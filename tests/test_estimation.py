"""MLE and MSE-CV objectives/fits, and the Metropolis baseline."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize

import gpcal.estimation
from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
from gpcal.bench import ExperimentScale, experiment_split, \
    sample_gp_response
from gpcal.estimation import (
    _NUGGET_BOUNDS,
    _NUGGET_START_BOX,
    _SIGMA2_BOUNDS,
    _START_BOX,
    _THETA_BOUNDS,
    _Design,
    _log_objective,
    _make_starts,
    _mle_with_dk,
    _msecv_with_dk,
    _multistart_minimize,
    bayes_predictive,
    fit_mle,
    fit_msecv,
    mle_objective,
    posterior_mean_kernel,
    random_walk_metropolis,
)
from gpcal.exceptions import EstimationFailureError, IllConditionedError, \
    InvalidParameterError
from gpcal.gp import fit_gp
from gpcal.loo import loo_mse, virtual_loo

from conftest import ALL_FAMILIES, dense_kbar, msecv_value, \
    random_dataset, random_kernel

ORD = TrendSpec.from_string("ordinary")
SIM = TrendSpec.from_string("simple")


def _constants(monkeypatch, **values):
    """Set estimation's private constants (``_N_STARTS`` and the chain's
    ``_MCMC_SAMPLES``, ``_MCMC_BURN_IN``, ``_MCMC_STEP``) for one test:
    fewer starts or a shorter chain where the default is not what the
    test checks, or a value that reaches the case it checks."""
    for name, value in values.items():
        monkeypatch.setattr(gpcal.estimation, name, value)


class TestMleObjective:
    def test_scalar_case(self):
        # n = 1, simple kriging: y^2/(s2+eps) + log(s2+eps).
        ds = Dataset(X=np.array([[0.0]]), y=np.array([1.3]))
        spec = KernelSpec(KernelFamily.MATERN32, 0.8, np.array([1.0]),
                          nugget=0.4)
        got = mle_objective(ds, SIM, spec)
        expected = 1.3 ** 2 / 1.2 + math.log(1.2)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_transcription(self, rng):
        ds = random_dataset(rng, n=8, d=2)
        spec = random_kernel(rng, 2)
        model = fit_gp(ds, spec, ORD)
        kbar = dense_kbar(ds.X, ds.y, model.F, spec)
        expected = float(ds.y @ kbar @ ds.y) \
            + float(np.log(np.linalg.det(model.K)))
        assert mle_objective(ds, ORD, spec) == pytest.approx(expected,
                                                             rel=1e-9)

    def test_diverges_as_amplitude_vanishes(self, rng):
        # Nonzero residuals, no nugget: objective blows up when sigma2 -> 0.
        ds = random_dataset(rng, n=10, d=2)
        theta = rng.uniform(0.3, 1.0, 2)
        vals = []
        for s2 in (1.0, 1e-2, 1e-4, 1e-6):
            spec = KernelSpec(KernelFamily.MATERN32, s2, theta, nugget=0.0)
            vals.append(mle_objective(ds, ORD, spec))
        assert vals[-1] > vals[0]
        assert vals[-1] > 1e3

    def test_deterministic(self, rng):
        ds = random_dataset(rng, n=9, d=2)
        spec = random_kernel(rng, 2)
        assert mle_objective(ds, ORD, spec) == mle_objective(ds, ORD, spec)


class TestMsecvObjective:
    def test_zero_for_trend_responses(self, rng):
        X = rng.uniform(0, 1, (9, 2))
        y = np.full(9, 4.0)
        ds = Dataset(X=X, y=y)
        assert msecv_value(ds, ORD, random_kernel(rng, 2)) <= 1e-18

    def test_equals_n_times_loo_mse(self, rng):
        # n * loo_mse against the quadratic form y' Kbar Diag(Kbar)^{-2}
        # Kbar y from the dense Kbar oracle.
        for _ in range(20):
            ds = random_dataset(rng, n=10, d=2)
            spec = random_kernel(rng, 2)
            model = fit_gp(ds, spec, ORD)
            kbar = dense_kbar(ds.X, ds.y, model.F, spec)
            e = (kbar @ ds.y) / np.diag(kbar)
            assert ds.n * loo_mse(model) == pytest.approx(e @ e, rel=1e-10)

    def test_amplitude_invariance_without_nugget(self, rng):
        ds = random_dataset(rng, n=12, d=2)
        theta = rng.uniform(0.3, 1.0, 2)
        vals = [msecv_value(
            ds, ORD, KernelSpec(KernelFamily.MATERN52, s2, theta, 0.0))
            for s2 in (0.1, 1.0, 10.0)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-10)
        assert vals[2] == pytest.approx(vals[1], rel=1e-10)


def _simulated_dataset(seed, n=150, d=2, theta=(0.3, 0.7), sigma2=2.0,
                       nugget=0.0, family=KernelFamily.MATERN32):
    local = np.random.default_rng(seed)
    X = local.uniform(0, 1, (n, d))
    spec = KernelSpec(family, sigma2, np.asarray(theta), nugget=nugget)
    y = sample_gp_response(X, spec, local)
    return Dataset(X=X, y=y), spec


class TestMultistartMinimize:
    def test_backs_away_from_unevaluable_region(self):
        # The unconstrained minimum u = 2 lies where the criterion cannot
        # be evaluated; the search must stop near the edge u = 1 with a
        # real value, not at a penalty or a non-finite point.
        def objective(u):
            if u[0] > 1.0:
                return None
            return float((u[0] - 2.0) ** 2), 2.0 * (u - 2.0)

        value, u, n_evals, _ = _multistart_minimize(
            objective, [np.array([-3.0]), np.array([0.5])], [(-5.0, 5.0)])
        assert 0.9 <= u[0] <= 1.0
        assert value == objective(u)[0]
        assert n_evals > 0

    def test_all_starts_unevaluable_raise(self):
        with pytest.raises(EstimationFailureError):
            _multistart_minimize(lambda u: None, [np.zeros(2)],
                                 [(-1.0, 1.0)] * 2)

    def test_respects_box(self):
        value, u, _, converged = _multistart_minimize(
            lambda u: (float(np.sum(u)), np.ones_like(u)), [np.zeros(3)],
            [(-2.0, 2.0)] * 3)
        np.testing.assert_array_equal(u, -2.0)
        assert value == -6.0 and converged

    def test_unbuildable_kernel_is_unevaluable(self, rng):
        # Past log sigma2 = 709.8 the amplitude overflows to inf, which
        # KernelSpec refuses: the objective reports the point as one it
        # cannot evaluate, and a search started there too still ends on
        # a finite optimum.
        ds = random_dataset(rng, n=20, d=2)

        def unpack(u):
            with np.errstate(over="ignore"):
                sigma2 = np.exp(u[2])
            return KernelSpec(KernelFamily.MATERN52, sigma2, np.exp(u[:2]),
                              nugget=1e-6)

        objective = _log_objective(_mle_with_dk, _Design(ds, ORD), unpack)
        far = np.array([0.0, 0.0, 800.0])
        assert objective(far) is None
        value, u, _, _ = _multistart_minimize(
            objective, [far, np.zeros(3)],
            [(-3.0, 3.0), (-3.0, 3.0), (-5.0, 800.0)])
        assert math.isfinite(value)
        assert value == objective(u)[0]


def _wells(levels):
    """1-d objective min_k levels[k] + (u - c_k)^2 with the wells c_k 4
    apart, and the well centres."""
    centres = 4.0 * (np.arange(len(levels)) - (len(levels) - 1) / 2.0)

    def objective(u):
        k = int(np.argmin(levels + (u[0] - centres) ** 2))
        return float(levels[k] + (u[0] - centres[k]) ** 2), \
            2.0 * (u - centres[k])

    return objective, centres


class TestMultistartStopping:
    """Starts run in index order; after the third start and each later
    one the search stops once another start has matched the best value.
    Each case lists the well that every start falls into."""

    BOUNDS = [(-30.0, 30.0)]
    # Wells 0 and 1 are 1e-4 apart, far beyond the agreement tolerance.
    LEVELS = np.array([0.0, 1e-4, -1.0, 2.0, -2.0, 3.0])

    def run(self, wells):
        objective, centres = _wells(self.LEVELS)
        # Start i sits 0.3 + 0.1 i from its well's centre, inside its
        # basin and distinct from every other start.
        starts = [np.array([centres[k] + 0.3 + 0.1 * i])
                  for i, k in enumerate(wells)]
        seen = []

        def recording(u):
            seen.append(np.array(u))
            return objective(u)

        value, _, n_evals, _ = _multistart_minimize(recording, starts,
                                                    self.BOUNDS)
        # A start ran when its point was evaluated; n_evals is the summed
        # nfev of the starts that ran.
        ran = [x0 for x0 in starts
               if any(np.array_equal(x0, x) for x in seen)]
        assert n_evals == sum(
            optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                              bounds=self.BOUNDS).nfev for x0 in ran)
        return value, len(ran)

    def test_stops_after_third_start_when_first_and_third_agree(self):
        value, n_ran = self.run([2, 3, 2, 4, 4])
        assert n_ran == 3
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_two_starts_agreeing_on_a_local_optimum_do_not_stop(self):
        # Starts 0 and 1 agree on the higher well; start 2 finds the lower
        # one and start 3 confirms it.  Start 4 would find a lower well
        # still, so its absence shows the search stopped after start 3.
        value, n_ran = self.run([0, 0, 2, 2, 4])
        assert n_ran == 4
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_all_starts_run_when_none_agree(self):
        value, n_ran = self.run([0, 1, 3, 5, 2])
        assert n_ran == 5
        assert value == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("wells", [[0, 0], [0, 0, 2]],
                             ids=["two", "three"])
    def test_all_starts_run_up_to_three(self, wells):
        value, n_ran = self.run(wells)
        assert n_ran == len(wells)
        assert value == pytest.approx(self.LEVELS[wells[-1]], abs=1e-9)

    @pytest.mark.parametrize("wells", [[2, 3, 2, 4, 4], [0, 1, 3, 5, 2]],
                             ids=["stopped", "all"])
    def test_objective_sees_exactly_n_evals_calls(self, wells):
        # A start's end value is the optimizer's own: no start evaluates
        # its end point again.
        objective, centres = _wells(self.LEVELS)
        calls = []

        def recording(u):
            calls.append(u)
            return objective(u)

        starts = [np.array([centres[k] + 0.3 + 0.1 * i])
                  for i, k in enumerate(wells)]
        _, _, n_evals, _ = _multistart_minimize(recording, starts,
                                                self.BOUNDS)
        assert len(calls) == n_evals

    def test_start_ending_on_a_failed_point_is_skipped(self):
        # The first start sits where the criterion cannot be evaluated:
        # its zero penalty gradient ends it there, and it is skipped
        # without a further call.
        objective, centres = _wells(self.LEVELS)
        calls = []

        def failing(u):
            calls.append(u)
            return None if u[0] > 20.0 else objective(u)

        value, u, n_evals, _ = _multistart_minimize(
            failing, [np.array([25.0]), np.array([centres[2] + 0.3])],
            self.BOUNDS)
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert u[0] == pytest.approx(centres[2], abs=1e-4)
        assert len(calls) == n_evals


# The squared exponential at nugget 0 is left out: the condition number of
# its Gram matrix grows so fast with the length-scales (2e5 at the point
# below, 7e7 at twice and 2e10 at four times its length-scales) that
# central differences of the criterion stop resolving a 1e-5 bound: they
# differ from the gradient by 3e-6 to 7e-6 at twice and by 1e-3 at four
# times the length-scales.
_GRADIENT_CASES = [
    (family, trend, nugget)
    for family in ALL_FAMILIES
    for trend in ("simple", "ordinary", "universal")
    for nugget in (0.0, 1e-2, "estimated")
    if not (family is KernelFamily.SQUARED_EXPONENTIAL and nugget == 0.0)
]


class TestMakeStarts:
    """Start 0 at the data scales, the rest log-uniform in the start
    boxes, which lie inside the search boxes."""

    @pytest.mark.parametrize("nugget_slot", [False, True],
                             ids=["plain", "nugget"])
    def test_starts_lie_in_their_boxes(self, nugget_slot):
        starts = _make_starts(4, 50, np.random.default_rng(3),
                              nugget_slot=nugget_slot)
        assert len(starts) == 50
        np.testing.assert_array_equal(starts[0], np.zeros(4))
        rest = np.array(starts[1:])
        plain = rest[:, :-1] if nugget_slot else rest
        assert np.all(plain >= np.log(_START_BOX[0]))
        assert np.all(plain <= np.log(_START_BOX[1]))
        if nugget_slot:
            assert np.all(rest[:, -1] >= np.log(_NUGGET_START_BOX[0]))
            assert np.all(rest[:, -1] <= np.log(_NUGGET_START_BOX[1]))

    def test_start_box_inside_search_boxes(self):
        for lo, hi in (_THETA_BOUNDS, _SIGMA2_BOUNDS):
            assert lo <= _START_BOX[0] < 1.0 < _START_BOX[1] <= hi

    def test_same_seed_same_starts(self):
        a = _make_starts(5, 6, np.random.default_rng(17), nugget_slot=True)
        b = _make_starts(5, 6, np.random.default_rng(17), nugget_slot=True)
        c = _make_starts(5, 6, np.random.default_rng(18), nugget_slot=True)
        np.testing.assert_array_equal(np.array(a), np.array(b))
        assert not np.array_equal(np.array(a[1:]), np.array(c[1:]))

    def test_readme_states_the_start_box(self):
        # README states the random starts' box once, as "drawn
        # log-uniformly from [lo, hi] times"; it must be _START_BOX.
        text = " ".join((Path(__file__).resolve().parent.parent
                         / "README.md").read_text().split())
        stated = re.findall(r"drawn log-uniformly from \[([^,\]]+), "
                            r"([^\]]+)\] times", text)
        assert len(stated) == 1
        assert tuple(float(v) for v in stated[0]) == _START_BOX


class TestAnalyticGradient:
    """The (value, gradient) the optimizer sees against central
    differences of the value, in the optimizer's log coordinates."""

    @pytest.mark.parametrize("criterion, public", [
        (_mle_with_dk, mle_objective),
        (_msecv_with_dk, msecv_value),
    ], ids=["mle", "msecv"])
    @pytest.mark.parametrize("family, trend, nugget", _GRADIENT_CASES)
    def test_matches_central_differences(self, criterion, public, family,
                                         trend, nugget):
        local = np.random.default_rng(31)
        ds = random_dataset(local, n=25, d=3)
        trend = TrendSpec.from_string(trend)
        d = ds.d

        def unpack(u):
            eps = math.exp(u[d + 1]) if nugget == "estimated" else nugget
            return KernelSpec(family, math.exp(u[d]), np.exp(u[:d]),
                              nugget=eps)

        objective = _log_objective(criterion, _Design(ds, trend), unpack)
        u = np.log([0.4, 0.7, 1.1, 1.5])
        if nugget == "estimated":
            u = np.append(u, math.log(0.03))
        value, grad = objective(u)
        assert value == pytest.approx(public(ds, trend, unpack(u)),
                                      rel=1e-10)
        step = 1e-5
        fd = np.empty(u.size)
        for j in range(u.size):
            e = np.zeros(u.size)
            e[j] = step
            fd[j] = (objective(u + e)[0] - objective(u - e)[0]) / (2 * step)
        rel_err = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel_err <= 1e-5

    @pytest.mark.parametrize("fit", [fit_mle, fit_msecv],
                             ids=["mle", "msecv"])
    def test_one_kbar_y_solve_per_evaluation(self, monkeypatch, fit):
        # Kbar y = L^{-T} w is solved once per fit evaluation, by the
        # solved state (gp.solve_gls), and each criterion reads it there.
        # Every triangular solve of gp goes through gp._solve_lower.
        import gpcal.gp
        solves = []
        solve_lower = gpcal.gp._solve_lower

        def counting(T, b, trans=0):
            if trans == 1 and np.ndim(b) == 1:
                solves.append(1)
            return solve_lower(T, b, trans)

        monkeypatch.setattr(gpcal.gp, "_solve_lower", counting)
        _constants(monkeypatch, _N_STARTS=1)
        ds = random_dataset(np.random.default_rng(32), n=15, d=2)
        result = fit(ds, TrendSpec.from_string("ordinary"),
                     KernelFamily.MATERN52, nugget=1e-3)
        assert result.n_evals > 0
        assert len(solves) == result.n_evals


def test_optimizer_loads_with_the_first_fit(tmp_path):
    # Importing the package or its CLI leaves scipy.optimize unloaded, so a
    # process that never fits does not pay for it; the first fit loads it.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import gpcal, gpcal.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from gpcal import Dataset, KernelFamily, TrendSpec, fit_mle\n"
        "gpcal.estimation._N_STARTS = 2\n"
        "X = np.linspace(0.0, 1.0, 12)[:, None]\n"
        "res = fit_mle(Dataset(X=X, y=np.sin(6.0 * X[:, 0])),\n"
        "              TrendSpec.from_string('ordinary'),\n"
        "              KernelFamily.MATERN52)\n"
        "assert 'scipy.optimize' in sys.modules\n"
        "assert res.n_evals > 0 and np.isfinite(res.objective_value)\n")
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_calibrate_and_predict_leave_scipy_special_unloaded(tmp_path):
    # The normal quantile comes from the standard library, so importing
    # the package and its CLI, calibrating and predicting never load
    # scipy.special; only a copula design's normal CDF does.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import gpcal, gpcal.cli\n"
        "from gpcal import Dataset, DesignSpec, EstimationResult, \\\n"
        "    KernelFamily, KernelSpec, TrendSpec, calibrate, \\\n"
        "    predict_calibrated, sample_design\n"
        "X = np.linspace(0.0, 1.0, 12)[:, None]\n"
        "kernel = KernelSpec(KernelFamily.MATERN52, 1.0, np.array([0.3]),\n"
        "                    nugget=1e-4)\n"
        "ref = EstimationResult(kernel=kernel, objective_value=0.0,\n"
        "                       n_evals=0, method='MLE', converged=True)\n"
        "cal = calibrate(Dataset(X=X, y=np.sin(6.0 * X[:, 0])),\n"
        "                TrendSpec.from_string('ordinary'),\n"
        "                KernelFamily.MATERN52, 1e-4, ref, 0.1)\n"
        "lower, upper, _ = predict_calibrated(cal, np.array([[0.45]]))\n"
        "assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))\n"
        "assert 'scipy.special' not in sys.modules\n"
        "U = sample_design(DesignSpec(n=4, d=2, sampling='copula'))\n"
        "assert 'scipy.special' in sys.modules\n"
        "assert np.all((U > 0.0) & (U < 1.0))\n")
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


class TestFitMle:
    def test_rejects_single_observation(self):
        ds = Dataset(X=np.array([[0.0]]), y=np.array([1.0]))
        with pytest.raises(EstimationFailureError):
            fit_mle(ds, SIM, KernelFamily.MATERN32)

    @pytest.mark.parametrize("fit", [fit_mle, fit_msecv],
                             ids=["mle", "msecv"])
    def test_duplicate_rows_need_a_nugget(self, monkeypatch, rng, fit):
        # Duplicated rows make K singular at zero nugget for every start,
        # so the fit refuses the design before the first evaluation.  A
        # positive nugget fits the same design.
        fits = []
        design_fit = _Design.fit

        def counting_fit(design, kernel):
            fits.append(kernel.nugget)
            return design_fit(design, kernel)

        monkeypatch.setattr(_Design, "fit", counting_fit)
        _constants(monkeypatch, _N_STARTS=1)
        ds = random_dataset(rng, n=20, d=2)
        X = ds.X.copy()
        X[1] = X[0]
        ds = Dataset(X=X, y=ds.y)
        with pytest.raises(IllConditionedError):
            fit(ds, ORD, KernelFamily.MATERN32)
        assert not fits
        result = fit(ds, ORD, KernelFamily.MATERN32, nugget=0.05)
        assert fits and np.isfinite(result.objective_value)

    def test_objective_value_consistent(self, monkeypatch, rng):
        _constants(monkeypatch, _N_STARTS=2)
        ds = random_dataset(rng, n=30, d=2)
        result = fit_mle(ds, ORD, KernelFamily.MATERN32, nugget=0.05,
                         seed=1)
        recomputed = mle_objective(ds, ORD, result.kernel)
        assert result.objective_value == pytest.approx(recomputed,
                                                       rel=1e-10)
        assert result.method == "MLE"
        assert result.n_evals > 0

    @pytest.mark.slow
    def test_recovers_known_hyperparameters(self, monkeypatch):
        # Well-specified recovery: theta within x/2 of truth in >= 80%
        # of seeds.
        _constants(monkeypatch, _N_STARTS=3)
        hits = 0
        n_seeds = 20
        for seed in range(n_seeds):
            ds, truth = _simulated_dataset(seed, nugget=0.1)
            result = fit_mle(ds, ORD, KernelFamily.MATERN32, nugget=0.1,
                             seed=seed)
            ratio = result.kernel.theta / truth.theta
            hits += bool(np.all(ratio >= 0.5) and np.all(ratio <= 2.0))
        assert hits >= 0.8 * n_seeds

    def test_reaches_optimum_on_desk_zhou_nugget(self):
        # Seed 2 of the zhou_nugget desk experiment (150 training points,
        # d=10, Matern 3/2, nugget 1.71e-2).  Its profile-NLL optimum is
        # -157.13; a budget-bound simplex search stopped at -155.07.
        train, _, _ = experiment_split("zhou_nugget",
                                       ExperimentScale(n=200, d=10), 2)
        result = fit_mle(train, ORD, KernelFamily.MATERN32, nugget=1.71e-2,
                         seed=2)
        assert result.converged
        assert result.objective_value <= -157.12

    def test_third_start_guards_against_an_agreeing_local_optimum(self):
        # Seed 109 of the desk morokoff inputs (150 training points, d=10,
        # Matern 5/2, nugget 1e-4; experiment_split builds the benchmark's
        # desk inputs).  Starts 0 and 2 both end at -687.97084, a local
        # optimum 0.607 above the -688.57822 that starts 1 and 3 reach;
        # their agreement does not stop the search, which ends once start
        # 3 matches the best.  -688.57822 is also the best of 40 starts,
        # 20 from the start box and 20 from the whole search box.
        train, _, _ = experiment_split("morokoff",
                                       ExperimentScale(n=200, d=10), 109)
        first = fit_mle(train, ORD, KernelFamily.MATERN52, nugget=1e-4,
                        seed=109)
        assert first.objective_value == pytest.approx(-688.5782166683045,
                                                      abs=1e-6)
        again = fit_mle(train, ORD, KernelFamily.MATERN52, nugget=1e-4,
                        seed=109)
        assert again.to_dict() == first.to_dict()

    def test_third_start_undercuts_two_agreeing_starts(self):
        # Seed 187 of the desk morokoff inputs.  Starts 0 and 1 end at
        # -696.60799, 6.6e-10 relative apart, and starts 2 and 3 at
        # -703.15750: stopping once the first two agree would return a
        # value 6.55 above the optimum.
        train, _, _ = experiment_split("morokoff",
                                       ExperimentScale(n=200, d=10), 187)
        result = fit_mle(train, ORD, KernelFamily.MATERN52, nugget=1e-4,
                         seed=187)
        assert result.objective_value == pytest.approx(-703.1575049396278,
                                                       abs=1e-6)

    def test_scale_equivariance(self, monkeypatch):
        _constants(monkeypatch, _N_STARTS=2)
        ds, _ = _simulated_dataset(3, n=60, nugget=0.0)
        scaled = Dataset(X=ds.X, y=3.0 * ds.y)
        r1 = fit_mle(ds, ORD, KernelFamily.MATERN32, nugget=0.0, seed=0)
        r2 = fit_mle(scaled, ORD, KernelFamily.MATERN32, nugget=0.0,
                     seed=0)
        assert r2.kernel.sigma2 == pytest.approx(9.0 * r1.kernel.sigma2,
                                                 rel=1e-3)
        np.testing.assert_allclose(r2.kernel.theta, r1.kernel.theta,
                                   rtol=1e-3)


class TestFitMsecv:
    def test_no_nugget_amplitude_normalizes_residuals(self, monkeypatch,
                                                      rng):
        # The closed-form amplitude makes the mean squared standardized
        # LOO residual equal one.
        _constants(monkeypatch, _N_STARTS=2)
        for k in range(5):
            local = np.random.default_rng(200 + k)
            ds = random_dataset(local, n=25, d=2)
            result = fit_msecv(ds, ORD, KernelFamily.MATERN52, nugget=0.0,
                               seed=k)
            model = fit_gp(ds, result.kernel, ORD)
            z = virtual_loo(model).std_resid
            assert float(np.mean(z * z)) == pytest.approx(1.0, abs=1e-8)

    def test_objective_value_consistent(self, monkeypatch, rng):
        _constants(monkeypatch, _N_STARTS=2)
        ds = random_dataset(rng, n=25, d=2)
        result = fit_msecv(ds, ORD, KernelFamily.MATERN52, nugget=0.05,
                           seed=1)
        recomputed = msecv_value(ds, ORD, result.kernel)
        assert result.objective_value == pytest.approx(recomputed,
                                                       rel=1e-10)
        assert result.method == "MSE_CV"

    @pytest.mark.slow
    def test_recovers_known_hyperparameters_loosely(self, monkeypatch):
        _constants(monkeypatch, _N_STARTS=3)
        hits = 0
        n_seeds = 10
        for seed in range(n_seeds):
            ds, truth = _simulated_dataset(seed, n=120, nugget=0.1)
            result = fit_msecv(ds, ORD, KernelFamily.MATERN32, nugget=0.1,
                               seed=seed)
            ratio = result.kernel.theta / truth.theta
            hits += bool(np.all(ratio >= 1 / 3) and np.all(ratio <= 3.0))
        assert hits >= 0.7 * n_seeds

    def test_local_optimality_against_random_probes(self, monkeypatch,
                                                    rng):
        _constants(monkeypatch, _N_STARTS=3)
        ds = random_dataset(rng, n=30, d=2)
        result = fit_msecv(ds, ORD, KernelFamily.MATERN32, nugget=0.05,
                           seed=2)
        best = msecv_value(ds, ORD, result.kernel)
        probes = 0
        for _ in range(100):
            spec = random_kernel(rng, 2, family=KernelFamily.MATERN32,
                                 nugget=0.05)
            probes += msecv_value(ds, ORD, spec) >= best - 1e-9
        assert probes >= 97   # allow a couple of lucky probes


class TestJointNugget:
    """Both criteria with the nugget estimated jointly, on a Matern 5/2
    draw with a known nugget (n = 60, d = 2, seed 3).  The nugget's box is
    _NUGGET_BOUNDS times var(y)."""

    @staticmethod
    def _fit(fit, nugget):
        ds, _ = _simulated_dataset(3, n=60, nugget=nugget,
                                   family=KernelFamily.MATERN52)
        result = fit(ds, ORD, KernelFamily.MATERN52, nugget=None)
        lo, hi = (b * float(np.var(ds.y)) for b in _NUGGET_BOUNDS)
        assert lo <= result.kernel.nugget <= hi
        assert result.kernel.nugget > 0.0
        assert result.converged
        return result.kernel.nugget

    @pytest.mark.parametrize("fit", [fit_mle, fit_msecv],
                             ids=["mle", "msecv"])
    def test_positive_inside_box_and_converged(self, fit):
        self._fit(fit, 0.1)

    @pytest.mark.parametrize("nugget", [1e-2, 0.1])
    def test_mle_recovers_true_nugget(self, nugget):
        # Within a factor 2 of the nugget the draw was made with.
        assert nugget / 2.0 <= self._fit(fit_mle, nugget) <= 2.0 * nugget


class TestFitArguments:
    """A seed that is not an integer >= 0 and a negative, NaN or infinite
    nugget are rejected before any optimizer start or chain step runs."""

    @pytest.mark.parametrize("fit", [fit_mle, fit_msecv],
                             ids=["mle", "msecv"])
    @pytest.mark.parametrize("kwargs", [
        {"seed": -2}, {"seed": 1.5},
        {"nugget": -1.0}, {"nugget": math.nan}, {"nugget": math.inf},
    ], ids=["seed_neg", "seed_frac", "nugget_neg", "nugget_nan",
            "nugget_inf"])
    def test_rejected_before_any_start(self, monkeypatch, rng, fit, kwargs):
        import gpcal.estimation

        def no_start(*args):
            raise AssertionError("an optimizer start ran")

        monkeypatch.setattr(gpcal.estimation, "_multistart_minimize",
                            no_start)
        ds = random_dataset(rng, n=12, d=2)
        with pytest.raises(InvalidParameterError):
            fit(ds, ORD, KernelFamily.MATERN32, **kwargs)

    @pytest.mark.parametrize("call", ["posterior_mean_kernel",
                                      "bayes_predictive"])
    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_mcmc_seed_rejected(self, monkeypatch, rng, call, seed):
        def no_step(*args):
            raise AssertionError("a chain step ran")

        monkeypatch.setattr(gpcal.estimation, "random_walk_metropolis",
                            no_step)
        ds = random_dataset(rng, n=12, d=2)
        with pytest.raises(InvalidParameterError, match="seed"):
            if call == "posterior_mean_kernel":
                posterior_mean_kernel(ds, ORD, KernelFamily.MATERN32, 0.05,
                                      seed)
            else:
                bayes_predictive(ds, ORD, KernelFamily.MATERN32, 0.05, seed,
                                 np.array([[0.5, 0.5]]), 0.1)

    def test_numpy_integers_accepted(self, monkeypatch, rng):
        _constants(monkeypatch, _N_STARTS=1, _MCMC_SAMPLES=6,
                   _MCMC_BURN_IN=5)
        ds = random_dataset(rng, n=12, d=2)
        fit_mle(ds, ORD, KernelFamily.MATERN32, nugget=0.05,
                seed=np.int64(3))
        posterior_mean_kernel(ds, ORD, KernelFamily.MATERN32, 0.05,
                              np.int64(3))


class TestRandomWalkMetropolis:
    def test_detailed_balance_on_toy_gaussian(self):
        # Target N(2, 1.5^2): the sample mean sits within 3 Monte Carlo
        # standard errors.
        rng = np.random.default_rng(5)

        def log_target(x):
            return -0.5 * ((x[0] - 2.0) / 1.5) ** 2

        chain, acc = random_walk_metropolis(log_target, np.zeros(1), 20000,
                                            1.5, rng)
        samples = chain[2000:, 0]
        n_eff = samples.size / 10.0     # crude autocorrelation discount
        mc_se = 1.5 / math.sqrt(n_eff)
        assert abs(samples.mean() - 2.0) <= 3.0 * mc_se
        assert 0.05 <= acc <= 0.9

    def test_flat_target_recovers_prior(self):
        # Flat likelihood: chain targeting the prior alone reproduces the
        # prior quantiles within Monte Carlo error.
        rng = np.random.default_rng(11)

        def log_prior(u):
            return -0.5 * float(u @ u)

        chain, _ = random_walk_metropolis(log_prior, np.zeros(1), 40000,
                                          1.0, rng)
        samples = chain[4000:, 0]
        # prior is N(0,1)
        assert abs(np.quantile(samples, 0.5)) <= 0.08
        assert abs(np.quantile(samples, 0.975) - 1.96) <= 0.15
        assert abs(np.quantile(samples, 0.025) + 1.96) <= 0.15

    def test_empty_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            random_walk_metropolis(lambda x: 0.0, np.zeros(1), 0, 1.0,
                                   np.random.default_rng(0))


class TestBayesPredictive:
    def test_prepares_the_design_once(self, monkeypatch, rng):
        # One call builds F, the squared differences and the duplicated-row
        # verdict once, not once per chain step or predictive sample.
        import gpcal.estimation
        import gpcal.gp
        import gpcal.kernels
        counts = {}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            return wrapped

        for home, name in [(gpcal.gp, "build_regression_matrix"),
                           (gpcal.kernels, "pairwise_sq_diffs"),
                           (gpcal.gp, "_has_duplicate_rows")]:
            wrapped = counting(name, getattr(home, name))
            for module in (home, gpcal.estimation):
                monkeypatch.setattr(module, name, wrapped)
        _constants(monkeypatch, _MCMC_SAMPLES=40, _MCMC_BURN_IN=10)
        ds = random_dataset(rng, n=12, d=2)
        out = bayes_predictive(ds, ORD, KernelFamily.MATERN32, 0.0, 0,
                               np.array([[0.5, 0.5], [0.2, 0.9]]), 0.1)
        assert np.all(out.lower <= out.upper)
        assert counts == {"build_regression_matrix": 1,
                          "pairwise_sq_diffs": 1, "_has_duplicate_rows": 1}

    @pytest.mark.parametrize("call", ["posterior_mean_kernel",
                                      "bayes_predictive"])
    def test_duplicate_rows_without_nugget_rejected_up_front(
            self, monkeypatch, rng, call):
        # Every chain state shares the zero nugget, so a design with a
        # repeated row fails before the first Metropolis step, not after
        # a chain whose every state failed.
        fits = []
        fit = _Design.fit

        def counting_fit(design, kernel):
            fits.append(1)
            return fit(design, kernel)

        monkeypatch.setattr(_Design, "fit", counting_fit)
        X = rng.uniform(0, 1, (11, 2))
        X[7] = X[2]
        ds = Dataset(X=X, y=rng.standard_normal(11))
        _constants(monkeypatch, _MCMC_SAMPLES=40, _MCMC_BURN_IN=10)
        with pytest.raises(IllConditionedError):
            if call == "posterior_mean_kernel":
                posterior_mean_kernel(ds, ORD, KernelFamily.MATERN52, 0.0,
                                      0)
            else:
                bayes_predictive(ds, ORD, KernelFamily.MATERN52, 0.0, 0,
                                 np.array([[0.5, 0.5]]), 0.1)
        assert not fits

    @pytest.mark.parametrize("call", ["posterior_mean_kernel",
                                      "bayes_predictive"])
    def test_chain_needs_a_fixed_nugget(self, monkeypatch, rng, call):
        # The chain moves over log theta and log sigma2 only; nugget=None,
        # which asks a fit to estimate the nugget, is rejected before the
        # first step.
        def no_step(*args):
            raise AssertionError("a chain step ran")

        monkeypatch.setattr(gpcal.estimation, "random_walk_metropolis",
                            no_step)
        ds = random_dataset(rng, n=12, d=2)
        with pytest.raises(InvalidParameterError, match="fixed nugget"):
            if call == "posterior_mean_kernel":
                posterior_mean_kernel(ds, ORD, KernelFamily.MATERN32, None,
                                      0)
            else:
                bayes_predictive(ds, ORD, KernelFamily.MATERN32, None, 0,
                                 np.array([[0.5, 0.5]]), 0.1)

    def test_single_retained_sample_degenerates(self, monkeypatch, rng):
        _constants(monkeypatch, _MCMC_SAMPLES=6, _MCMC_BURN_IN=5)
        ds = random_dataset(rng, n=10, d=1)
        out = bayes_predictive(ds, ORD, KernelFamily.MATERN32, 0.05, 0,
                               np.array([0.5]), 0.1)
        assert out.lower == out.upper == out.mean

    def test_wild_proposal_sets_warning_not_error(self, monkeypatch, rng):
        # A huge step size tanks the acceptance rate; that is reported in
        # the result metadata, never raised.
        _constants(monkeypatch, _MCMC_SAMPLES=120, _MCMC_BURN_IN=20,
                   _MCMC_STEP=150.0)
        ds = random_dataset(rng, n=12, d=1)
        out = bayes_predictive(ds, ORD, KernelFamily.MATERN32, 0.05, 0,
                               np.array([0.5]), 0.1)
        assert out.acceptance_rate < 0.05
        assert out.warning is not None and "acceptance" in out.warning

    @pytest.mark.slow
    def test_concentrates_near_mle_when_well_specified(self, monkeypatch):
        _constants(monkeypatch, _N_STARTS=2, _MCMC_SAMPLES=1500,
                   _MCMC_BURN_IN=400)
        ds, truth = _simulated_dataset(7, n=120, nugget=0.1)
        mle = fit_mle(ds, ORD, KernelFamily.MATERN32, nugget=0.1, seed=0)
        model = fit_gp(ds, mle.kernel, ORD)
        rng = np.random.default_rng(42)
        X_new = rng.uniform(0, 1, (40, 2))
        from gpcal.gp import prediction_interval
        lo, up = prediction_interval(model, X_new, 0.1)
        mle_width = float(np.mean(up - lo))
        out = bayes_predictive(ds, ORD, KernelFamily.MATERN32, 0.1, 1,
                               X_new, 0.1)
        bayes_width = float(np.mean(out.upper - out.lower))
        assert abs(bayes_width - mle_width) <= 0.25 * mle_width
