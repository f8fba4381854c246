"""Amplitude bracketing, Wasserstein distance, and interval calibration."""

import functools
import gc
import math
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
from gpcal.bench import morokoff_caflisch, sample_gp_response
from gpcal.estimation import EstimationResult
from gpcal.exceptions import CalibrationInfeasibleError, \
    IllConditionedError, InvalidMatrixError, InvalidParameterError, \
    ShapeError
from gpcal.gp import build_regression_matrix, factor_covariance, fit_gp, \
    prediction_interval, solve_gls
from gpcal.loo import SigmaScanBasis, SmoothingParams, \
    psi_from_residuals, psi_smoothed_from_residuals, virtual_loo
from gpcal.rpie import (
    _PARABOLA_BRACKET,
    _GOLDEN,
    _LOG_LAMBDA_TOL,
    _SIGMA_SCAN,
    _Calibration,
    _LambdaState,
    _Side,
    _search,
    _trace_root,
    CalibratedIntervalModel,
    GridSpec,
    RpieConfig,
    calibrate,
    calibrate_quantile,
    predict_calibrated,
    relaxation_objective,
    sigma_opt,
    sqrtm_psd,
    wasserstein2_gaussians,
)
from gpcal.stats import normal_quantile

from conftest import random_dataset

ORD = TrendSpec.from_string("ordinary")

FAST = RpieConfig(lambda_grid=GridSpec(1e-1, 1e1, 25))


def _reference(kernel):
    return EstimationResult(kernel=kernel, objective_value=0.0, n_evals=1,
                            method="MLE", converged=True)


def _misspecified_dataset(seed, n=60, d=2):
    local = np.random.default_rng(seed)
    X = local.uniform(0, 1, (n, d))
    y = morokoff_caflisch(X) + 0.01 * local.standard_normal(n)
    return Dataset(X=X, y=y)


def _record_search(monkeypatch):
    """Record, in call order, the lambda of every ``_LambdaState``, every
    ``SigmaScanBasis.from_gram`` call, every evaluation as (lambda,
    whether an objective came out) (``order``), and each side's
    evaluations the same way and as (log lambda, W2 or inf) (``search``),
    keyed by its level."""
    log = {"states": [], "bases": [], "order": [], "evaluated": {},
           "search": {}}
    from_gram = SigmaScanBasis.from_gram.__func__
    init = _LambdaState.__init__
    evaluate = _Side.evaluate

    def counting_from_gram(cls, *args, **kwargs):
        log["bases"].append(1)
        return from_gram(cls, *args, **kwargs)

    def counting_init(state, cal, lam):
        log["states"].append(lam)
        init(state, cal, lam)

    def recording_evaluate(side, lam):
        out = evaluate(side, lam)
        log["order"].append((lam, out[0] is not None))
        log["evaluated"].setdefault(side.a, []).append(log["order"][-1])
        log["search"].setdefault(side.a, []).append(
            (math.log(lam), math.inf if out[0] is None else out[0]))
        return out

    monkeypatch.setattr(SigmaScanBasis, "from_gram",
                        classmethod(counting_from_gram))
    monkeypatch.setattr(_LambdaState, "__init__", counting_init)
    monkeypatch.setattr(_Side, "evaluate", recording_evaluate)
    return log


def _distinct_lambdas(log) -> set:
    return {lam for calls in log["evaluated"].values() for lam, _ in calls}


def _slot_runs(log) -> list:
    """The recorded evaluations as runs of equal consecutive lambdas, each
    (lambda, whether any of its evaluations had an objective): a one-state
    slot builds one state per run."""
    runs = []
    for lam, has_objective in log["order"]:
        if runs and runs[-1][0] == lam:
            runs[-1][1] |= has_objective
        else:
            runs.append([lam, has_objective])
    return runs


def _slot_builds(log) -> int:
    return len(_slot_runs(log))


class TestSigmaOpt:
    def test_exists_with_nugget_for_any_theta(self):
        # Existence when the nugget is positive, over 30 random datasets.
        config = RpieConfig()
        for k in range(30):
            local = np.random.default_rng(3000 + k)
            ds = random_dataset(local, n=int(local.integers(15, 35)), d=2)
            theta = local.uniform(0.05, 4.0, 2)
            s2 = sigma_opt(ds, ORD, KernelFamily.MATERN32, theta, 0.05,
                           0.95, config)
            assert s2 is not None and s2 > 0.0

    def test_achieves_target_proportion(self, rng):
        config = RpieConfig()
        ds = random_dataset(rng, n=30, d=2)
        theta = np.array([0.5, 0.8])
        for a in (0.95, 0.05):
            s2 = sigma_opt(ds, ORD, KernelFamily.MATERN52, theta, 0.02, a,
                           config)
            F = build_regression_matrix(ds.X, ORD)
            basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN52,
                                   theta, 0.02)
            assert psi_smoothed_from_residuals(
                basis.std_residuals(s2), a, config.delta) == \
                pytest.approx(a, abs=1e-6)

    def test_absent_for_degenerate_residuals(self, rng):
        # y inside the trend span: every residual is zero, psi is 1
        # for all amplitudes, no bracket exists.
        X = rng.uniform(0, 1, (12, 2))
        ds = Dataset(X=X, y=np.full(12, 2.0))
        s2 = sigma_opt(ds, ORD, KernelFamily.MATERN32,
                       np.array([0.5, 0.5]), 0.05, 0.95, RpieConfig())
        assert s2 is None

    def test_absent_for_degenerate_residuals_without_nugget(self, rng):
        # The zero-nugget twin: with y in the trend span the residuals are
        # round-off, so psi_delta - a is already positive at the bottom of
        # the scan range and the exact root reports absence.
        X = rng.uniform(0, 1, (12, 2))
        ds = Dataset(X=X, y=np.full(12, 2.0))
        theta = np.array([0.5, 0.5])
        s2 = sigma_opt(ds, ORD, KernelFamily.MATERN32, theta, 0.0, 0.95,
                       RpieConfig())
        assert s2 is None
        ref = fit_gp(ds, KernelSpec(KernelFamily.MATERN32, 1.0, theta), ORD)
        cal = _Calibration(ref, RpieConfig())
        side = _Side(cal, 0.95)
        z1 = cal.at(1.0).z1
        assert side.excess(z1 / math.sqrt(cal.scan_range[0])) > 0.0

    @pytest.mark.parametrize("a", [0.95, 0.05])
    def test_absent_when_excess_negative_at_top_without_nugget(self, a):
        # At a long lambda the zero-nugget LOO residuals at unit amplitude
        # are so large that psi_delta - a is still below zero at the top
        # of the scan range: no crossing, so no amplitude and no objective.
        ds = random_dataset(np.random.default_rng(0), n=20, d=2)
        theta = np.array([0.5, 0.5])
        lam = 100.0
        ref = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, 1.0, theta), ORD)
        cal = _Calibration(ref, RpieConfig())
        side = _Side(cal, a)
        z1 = cal.at(lam).z1
        lo, hi = cal.scan_range
        assert side.excess(z1 / math.sqrt(lo)) < 0.0
        assert side.excess(z1 / math.sqrt(hi)) < 0.0
        assert side.sigma_opt_at(lam) is None
        assert sigma_opt(ds, ORD, KernelFamily.MATERN52, lam * theta, 0.0,
                         a, RpieConfig()) is None
        assert relaxation_objective(ds, ORD, KernelFamily.MATERN52, 0.0,
                                    theta, 1.0, lam, a, RpieConfig()) is None

    def test_scan_extends_past_box_when_nugget_positive(self, rng):
        # Extreme length-scales push the required amplitude beyond the
        # default scan box; a positive nugget guarantees a solution, so
        # the scan keeps going instead of reporting absence.
        ds = random_dataset(rng, n=40, d=2)
        spans = ds.X.max(axis=0) - ds.X.min(axis=0)
        theta = 100.0 * spans
        config = RpieConfig()
        s2 = sigma_opt(ds, ORD, KernelFamily.MATERN52, theta, 1e-4, 0.95,
                       config)
        assert s2 is not None
        F = build_regression_matrix(ds.X, ORD)
        basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN52,
                               theta, 1e-4)
        assert psi_smoothed_from_residuals(
            basis.std_residuals(s2), 0.95, config.delta) == \
            pytest.approx(0.95, abs=1e-6)

    @pytest.mark.parametrize("a", [0.95, 0.05])
    def test_left_end_of_plateau_when_n_a_is_integer(self, a):
        # n * a is an integer (57 or 3 of 60), so psi_delta equals a on a
        # whole interval of amplitudes; the root is its left end: psi is a
        # there, and just below it psi still has its initial strict sign.
        config = RpieConfig()
        ds = _misspecified_dataset(11)
        theta = np.array([0.5, 0.7])
        s2 = sigma_opt(ds, ORD, KernelFamily.MATERN52, theta, 1e-4, a,
                       config)
        F = build_regression_matrix(ds.X, ORD)
        basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN52, theta,
                               1e-4)

        def g(s):
            return psi_smoothed_from_residuals(
                basis.std_residuals(s), a, config.delta) - a

        initial = np.sign(g(_SIGMA_SCAN.points(np.var(ds.y))[0]))
        assert initial != 0.0
        assert abs(g(s2)) <= 1e-12
        assert np.sign(g(s2 * (1.0 - 1e-9))) == initial

    def test_batched_residuals_match_scalar_on_scan_grid(self, rng):
        # Every batch of the amplitude scan, the extension past the top of
        # the grid included, equals the scalar residuals at its amplitudes.
        ds = random_dataset(rng, n=40, d=2)
        cal = _Calibration(fit_gp(ds, KernelSpec(
            KernelFamily.MATERN32, 1.0, [0.3, 0.6], nugget=0.01), ORD),
            RpieConfig())
        state = cal.at(1.7)
        amps = np.concatenate(cal.batches)
        rows = np.vstack([state.residuals(k)
                          for k in range(len(cal.batches))])
        assert rows.shape == (amps.size, ds.n)
        assert amps.size > _SIGMA_SCAN.count
        assert np.all(np.diff(amps) > 0.0)
        for s2, row in zip(amps, rows):
            z = state.basis.std_residuals(s2)
            np.testing.assert_allclose(row, z, rtol=1e-12,
                                       atol=1e-12 * np.abs(z).max())

    @pytest.mark.parametrize("nugget", [0.0, 0.05])
    def test_builds_no_law(self, monkeypatch, rng, nugget):
        # The amplitude search reads no W2 law: A = L0' R L0 and L0' L0
        # are formed only when an objective is asked for, and the hooks
        # below are on that path, as the objective at the same lambda shows.
        def no_law(self):
            raise AssertionError("the W2 law was formed")

        monkeypatch.setattr(_LambdaState, "A", property(no_law))
        monkeypatch.setattr(_Calibration, "L0tL0", property(no_law))
        ds = random_dataset(rng, n=25, d=2)
        theta = np.array([0.4, 0.4])
        assert sigma_opt(ds, ORD, KernelFamily.MATERN32, theta, nugget,
                         0.95, RpieConfig()) is not None
        with pytest.raises(AssertionError, match="W2 law was formed"):
            relaxation_objective(ds, ORD, KernelFamily.MATERN32, nugget,
                                 theta, 1.0, 1.0, 0.95, RpieConfig())

    def test_minimality_on_grid(self, rng):
        # No scanned amplitude below the returned root achieves the target.
        config = RpieConfig()
        ds = random_dataset(rng, n=25, d=2)
        theta = np.array([0.4, 0.4])
        a = 0.95
        s2 = sigma_opt(ds, ORD, KernelFamily.MATERN32, theta, 0.05, a,
                       config)
        F = build_regression_matrix(ds.X, ORD)
        basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN32,
                               theta, 0.05)
        grid = np.var(ds.y) * np.logspace(-8, 8, _SIGMA_SCAN.count)
        below = grid[grid < s2 * (1 - 1e-9)]
        vals = np.array([psi_smoothed_from_residuals(
            basis.std_residuals(s), a, config.delta) for s in below])
        assert np.all(np.abs(vals - a) > 1e-6)


def _bisection_oracle(hit, lo, hi):
    """Plain bisection at the arithmetic midpoint down to adjacent doubles:
    the smallest double in (lo, hi] at which the monotone predicate hit
    holds, given it fails at lo and holds at hi."""
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if hit(mid):
            hi = mid
        else:
            lo = mid


class TestAmplitudeRoot:
    """Every root is the adjacent-double left end of the crossing: the
    predicate of the search (the excess is zero or has lost the strict
    sign it has at the bottom of the scan) holds at the root and fails one
    double below it.  With zero nugget the predicate is monotone in
    sigma2, so the root is also the bisection oracle's, bit for bit.

    n = 60, so alpha = 0.1 and 0.2 put n * a on an integer at both bounds
    (psi_delta = a on whole plateaus of sigma2) and alpha = 0.05 does not.
    """

    THETA = np.array([0.5, 0.7])
    LAMBDAS = np.logspace(-1, 1, 7)

    def _roots(self, nugget, alpha):
        """(root, side, state) for both bounds at every lambda, each root
        from sigma_opt, each side and state built as sigma_opt builds
        them."""
        ds = _misspecified_dataset(11)
        config = RpieConfig()
        out = []
        for a in (1.0 - alpha / 2.0, alpha / 2.0):
            for lam in self.LAMBDAS:
                theta = lam * self.THETA
                s2 = sigma_opt(ds, ORD, KernelFamily.MATERN52, theta, nugget,
                               a, config)
                cal = _Calibration(fit_gp(ds, KernelSpec(
                    KernelFamily.MATERN52, 1.0, theta, nugget), ORD), config)
                out.append((s2, _Side(cal, a), cal.at(1.0)))
        return out

    @staticmethod
    def _excess(side, state, s2):
        return side.excess(state.std_residuals(s2))

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("nugget", [0.0, 1e-3])
    def test_left_end_of_crossing(self, nugget, alpha):
        for s2, side, state in self._roots(nugget, alpha):
            assert s2 is not None
            lo = side.cal.scan_range[0]
            g0 = self._excess(side, state, lo)
            assert g0 != 0.0
            negative = bool(g0 < 0.0)
            g = self._excess(side, state, s2)
            assert g == 0.0 or (g < 0.0) != negative
            g = self._excess(side, state, math.nextafter(s2, 0.0))
            assert g != 0.0 and (g < 0.0) == negative

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_zero_nugget_root_is_bisection_oracle(self, alpha):
        plateaus = 0
        for s2, side, state in self._roots(0.0, alpha):
            lo, hi = side.cal.scan_range
            want = _bisection_oracle(
                lambda s: self._excess(side, state, s) >= 0.0, lo, hi)
            assert s2 == want
            plateaus += (self._excess(side, state, s2) == 0.0 and
                         self._excess(side, state, 1.001 * s2) == 0.0)
        # The integer cases do put roots on the left end of a plateau.
        assert (plateaus > 0) == (alpha != 0.05)

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("nugget, median, most",
                             [(0.0, 8, 16), (1e-3, 30, 45)])
    def test_evaluations_per_root(self, monkeypatch, nugget, median, most,
                                  alpha):
        # A root of a default search costs a few scalar residual
        # evaluations, against about 50 for a bisection to adjacent
        # doubles, on plateaus (alpha = 0.1) too: no root walks a plateau
        # in ulp steps.
        calls, per_root = [0], []
        std_residuals = _LambdaState.std_residuals
        sigma_opt_at = _Side.sigma_opt_at

        def counting_std_residuals(state, s2):
            calls[0] += 1
            return std_residuals(state, s2)

        def counting_sigma_opt_at(side, lam):
            before = calls[0]
            out = sigma_opt_at(side, lam)
            per_root.append(calls[0] - before)
            return out

        monkeypatch.setattr(_LambdaState, "std_residuals",
                            counting_std_residuals)
        monkeypatch.setattr(_Side, "sigma_opt_at", counting_sigma_opt_at)
        ds = _misspecified_dataset(11)
        ref = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, 0.05, self.THETA,
                                    nugget), ORD)
        _search(ref, (1.0 - alpha / 2.0, alpha / 2.0), RpieConfig())
        assert len(per_root) >= 2 * RpieConfig().lambda_grid.count
        assert np.median(per_root) <= median
        assert max(per_root) <= most


def _h_upper(x, delta):
    """The paper's h_delta^+: 0 at or below 0, x / delta on (0, delta],
    1 above delta."""
    return np.where(x > delta, 1.0, np.where(x > 0.0, x / delta, 0.0))


def _h_lower(x, delta):
    """The paper's h_delta^-: 1 at or above 0, 1 + x / delta on
    [-delta, 0), 0 below -delta."""
    return np.where(x >= 0.0, 1.0,
                    np.where(x >= -delta, 1.0 + x / delta, 0.0))


class TestExcess:
    """The amplitude search's excess and the public psi_delta read one
    ramp; both match the paper's piecewise ramps at q_a, h_delta^+ for an
    upper bound and h_delta^- for a lower one.  The upper side matches bit
    for bit.  The lower side is scored at -q_{1-a}, which differs from q_a
    in the last bits, and through 1 - mean, so it matches to 1e-13: a
    residual on the ramp's edge moves its term by |q_a + q_{1-a}| / delta,
    about 7e-14 at a = 0.05."""

    @pytest.mark.parametrize("a", [0.95, 0.05])
    def test_matches_paper_ramps(self, a, rng):
        n = 40
        ds = random_dataset(rng, n=n, d=2)
        side = _Side(_Calibration(fit_gp(ds, KernelSpec(
            KernelFamily.MATERN52, 1.0, [0.5, 0.5], nugget=1e-4), ORD),
            FAST), a)
        q, sign, delta = side.q, side.sign, side.delta
        params = SmoothingParams(delta)
        z = rng.standard_normal((64, n)) * 2.0
        # residuals on the ramp's edges and inside its band
        z[:, 0] = sign * q
        z[:, 1] = sign * (q - delta)
        z[:, 2] = sign * (q - 0.5 * delta)
        z[::2, 3] = sign * q
        ramp = _h_upper if a > 0.5 else _h_lower
        for zz in (z, z[5], z[:, :1]):
            psi = np.mean(ramp(normal_quantile(a) - zz, delta), axis=-1)
            got = side.excess(zz)
            public = np.array([psi_smoothed_from_residuals(row, a, params)
                               for row in np.atleast_2d(zz)])
            assert np.shape(got) == np.shape(psi)
            if a > 0.5:
                np.testing.assert_array_equal(got, psi - a)
                np.testing.assert_array_equal(public, np.atleast_1d(psi))
            else:
                np.testing.assert_allclose(got, a - psi, rtol=0, atol=1e-13)
                np.testing.assert_allclose(public, np.atleast_1d(psi),
                                           rtol=0, atol=1e-13)


class TestBadLevel:
    """A quantile level outside (0, 1), or equal to 1/2, is rejected by
    every entry point of the amplitude search with the level check's
    InvalidParameterError."""

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, 0.5])
    @pytest.mark.parametrize("entry", ["sigma_opt", "relaxation_objective",
                                       "calibrate_quantile"])
    def test_rejected(self, entry, a):
        ds = _misspecified_dataset(5, n=20)
        theta, family = np.array([0.5, 0.5]), KernelFamily.MATERN52
        calls = {
            "sigma_opt": lambda: sigma_opt(
                ds, ORD, family, theta, 1e-4, a, FAST),
            "relaxation_objective": lambda: relaxation_objective(
                ds, ORD, family, 1e-4, theta, 0.05, 1.0, a, FAST),
            "calibrate_quantile": lambda: calibrate_quantile(
                ds, ORD, family, 1e-4, theta, 0.05, a, FAST),
        }
        with pytest.raises(InvalidParameterError, match="differ from 1/2"):
            calls[entry]()


class TestBadTheta:
    """A theta whose length differs from the design's column count is
    rejected by every entry point with the reference fit's ShapeError."""

    @pytest.mark.parametrize("entry", ["sigma_opt", "relaxation_objective",
                                       "calibrate_quantile", "calibrate"])
    def test_rejected(self, entry):
        ds = _misspecified_dataset(5, n=20)
        theta, family = np.array([0.5, 0.5, 0.5]), KernelFamily.MATERN52
        ref = _reference(KernelSpec(family, 0.05, theta, nugget=1e-4))
        calls = {
            "sigma_opt": lambda: sigma_opt(
                ds, ORD, family, theta, 1e-4, 0.95, FAST),
            "relaxation_objective": lambda: relaxation_objective(
                ds, ORD, family, 1e-4, theta, 0.05, 1.0, 0.95, FAST),
            "calibrate_quantile": lambda: calibrate_quantile(
                ds, ORD, family, 1e-4, theta, 0.05, 0.95, FAST),
            "calibrate": lambda: calibrate(
                ds, ORD, family, 1e-4, ref, 0.1, FAST),
        }
        with pytest.raises(ShapeError, match="3 entries"):
            calls[entry]()


class TestBadLambda:
    """A lambda that is not finite and positive is rejected up front, at
    either nugget, before any amplitude search."""

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("nugget", [0.0, 1e-4])
    def test_rejected(self, nugget, lam):
        ds = _misspecified_dataset(5, n=20)
        with pytest.raises(InvalidParameterError,
                           match="finite and positive"):
            relaxation_objective(ds, ORD, KernelFamily.MATERN52, nugget,
                                 np.array([0.5, 0.5]), 0.05, lam, 0.95,
                                 FAST)


class TestGridSpec:
    @pytest.mark.parametrize("lo, hi, count", [
        (1e-2, math.inf, 5), (math.nan, 1e2, 5), (1e-2, math.nan, 5),
        (math.inf, math.inf, 1), (1e-2, 1e2, 2.5), (1e-2, 1e2, 5.0),
        (1e-2, 1e2, "5"),
    ], ids=["hi_inf", "lo_nan", "hi_nan", "single_inf", "count_frac",
            "count_float", "count_str"])
    def test_rejected(self, lo, hi, count):
        with pytest.raises(InvalidParameterError):
            GridSpec(lo, hi, count)

    def test_numpy_integer_count(self):
        grid = GridSpec(1e-2, 1e2, np.int64(7))
        np.testing.assert_array_equal(grid.points(),
                                      GridSpec(1e-2, 1e2, 7).points())

    def test_readme_states_the_default(self):
        # README states the default lambda grid once, as "N log-spaced
        # points on [lo, hi]"; it must be RpieConfig's.
        text = " ".join((Path(__file__).resolve().parent.parent
                         / "README.md").read_text().split())
        stated = re.findall(r"(\d+) log-spaced points on \[([^,\]]+), "
                            r"([^\]]+)\]", text)
        assert len(stated) == 1
        count, lo, hi = stated[0]
        assert GridSpec(float(lo), float(hi), int(count)) \
            == RpieConfig().lambda_grid


class TestWasserstein:
    def test_identity_of_indiscernibles(self, rng):
        A = rng.standard_normal((6, 6))
        K = A @ A.T + 6 * np.eye(6)
        m = rng.standard_normal(6)
        assert wasserstein2_gaussians(m, K, m, K) == pytest.approx(
            0.0, abs=1e-8)

    def test_scalar_variances(self):
        # N(0,1) vs N(0,4): squared distance (1-2)^2 = 1.
        one = np.array([[1.0]])
        four = np.array([[4.0]])
        z = np.zeros(1)
        assert wasserstein2_gaussians(z, one, z, four) == pytest.approx(
            1.0, rel=1e-10)

    def test_commuting_diagonal_case(self):
        K1 = np.diag([1.0, 4.0])
        K2 = np.diag([9.0, 1.0])
        z = np.zeros(2)
        assert wasserstein2_gaussians(z, K1, z, K2) == pytest.approx(
            5.0, rel=1e-10)

    def test_scalar_closed_form_random_pairs(self, rng):
        # (m1-m2)^2 + (s1-s2)^2 on 100 random 1-D pairs.
        for _ in range(100):
            m1, m2 = rng.standard_normal(2) * 3.0
            s1, s2 = rng.uniform(0.1, 5.0, 2)
            got = wasserstein2_gaussians(np.array([m1]),
                                         np.array([[s1 ** 2]]),
                                         np.array([m2]),
                                         np.array([[s2 ** 2]]))
            expected = (m1 - m2) ** 2 + (s1 - s2) ** 2
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_metric_axioms(self, rng):
        def make(n):
            A = rng.standard_normal((n, n))
            return rng.standard_normal(n), A @ A.T + n * np.eye(n)

        for _ in range(10):
            n = int(rng.integers(2, 21))
            m1, K1 = make(n)
            m2, K2 = make(n)
            m3, K3 = make(n)
            d12 = wasserstein2_gaussians(m1, K1, m2, K2)
            d21 = wasserstein2_gaussians(m2, K2, m1, K1)
            assert d12 >= 0.0
            assert d12 == pytest.approx(d21, rel=1e-8, abs=1e-10)
            w12, w13, w23 = (math.sqrt(d12),
                             math.sqrt(wasserstein2_gaussians(m1, K1, m3,
                                                              K3)),
                             math.sqrt(wasserstein2_gaussians(m2, K2, m3,
                                                              K3)))
            assert w13 <= w12 + w23 + 1e-6

    def test_rejects_asymmetric_input(self, rng):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(InvalidMatrixError):
            wasserstein2_gaussians(np.zeros(2), K, np.zeros(2), np.eye(2))

    def test_rejects_indefinite_input(self):
        K = np.diag([1.0, -0.5])
        with pytest.raises(InvalidMatrixError):
            wasserstein2_gaussians(np.zeros(2), K, np.zeros(2), np.eye(2))

    def test_eigenvalue_trace_matches_sqrtm(self, rng):
        # Tr (S1 K2 S1)^{1/2} from eigenvalues equals the trace of the
        # explicit PSD square root.
        for _ in range(20):
            n = int(rng.integers(2, 40))
            A, B = rng.standard_normal((2, n, n))
            S1 = sqrtm_psd(A @ A.T + 0.1 * np.eye(n))
            K2 = B @ B.T
            expected = np.trace(sqrtm_psd(S1 @ K2 @ S1))
            assert _trace_root(S1 @ K2 @ S1) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_sqrtm_squares_back(self, rng):
        for n in (3, 10, 50):
            A = rng.standard_normal((n, n))
            K = A @ A.T + 0.1 * np.eye(n)
            S = sqrtm_psd(K)
            assert np.linalg.norm(S @ S - K) <= 1e-8 * np.linalg.norm(K)


class TestRelaxationObjective:
    def test_zero_when_reference_is_self_consistent(self):
        # Reference amplitude chosen as sigma_opt at lambda = 1 makes the
        # two laws identical, so the objective vanishes there.
        ds = _misspecified_dataset(0)
        theta0 = np.array([0.6, 0.6])
        config = FAST
        s2_at_1 = sigma_opt(ds, ORD, KernelFamily.MATERN52, theta0, 1e-4,
                            0.95, config)
        L1 = relaxation_objective(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                  theta0, s2_at_1, 1.0, 0.95, config)
        assert L1 == pytest.approx(0.0, abs=1e-6)

    def test_finite_on_grid_with_nugget(self):
        ds = _misspecified_dataset(1)
        theta0 = np.array([0.5, 0.9])
        for lam in np.logspace(-1, 1, 7):
            L = relaxation_objective(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                     theta0, 0.05, float(lam), 0.95, FAST)
            assert L is not None and np.isfinite(L)


class TestCalibrateQuantile:
    def test_achieves_target_on_misspecified_data(self):
        ds = _misspecified_dataset(2)
        sol = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                 np.array([0.6, 0.8]), 0.05, 0.95, FAST)
        assert sol.psi_achieved == pytest.approx(0.95, abs=1e-6)
        assert abs(sol.psi_raw - 0.95) <= 1.5 / ds.n + 1e-9

    def test_beta_opt_is_gls_at_solution(self):
        ds = _misspecified_dataset(3)
        sol = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                 np.array([0.5, 0.5]), 0.04, 0.95, FAST)
        model = fit_gp(ds, sol.kernel, ORD)
        expected = solve_gls(model.F, model.gls.L, ds.y).beta
        np.testing.assert_allclose(sol.beta_opt, expected, rtol=1e-10)

    def test_single_point_grid(self):
        ds = _misspecified_dataset(4)
        config = RpieConfig(lambda_grid=GridSpec(1.0, 1.0, 1))
        sol = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                 np.array([0.5, 0.7]), 0.05, 0.95, config)
        assert sol.lambda_star == 1.0
        expected = sigma_opt(ds, ORD, KernelFamily.MATERN52,
                             np.array([0.5, 0.7]), 1e-4, 0.95, config)
        assert sol.sigma2_opt == pytest.approx(expected, rel=1e-12)

    def test_infeasible_reports_diagnostics(self, rng):
        X = rng.uniform(0, 1, (15, 2))
        ds = Dataset(X=X, y=np.full(15, 1.0))   # zero residuals everywhere
        with pytest.raises(CalibrationInfeasibleError) as exc:
            calibrate_quantile(ds, ORD, KernelFamily.MATERN32, 0.05,
                               np.array([0.5, 0.5]), 0.02, 0.95, FAST)
        assert exc.value.k_eps is not None
        assert exc.value.n_times_a == pytest.approx(15 * 0.95)
        assert exc.value.side == "upper"
        with pytest.raises(CalibrationInfeasibleError) as exc:
            calibrate(ds, ORD, KernelFamily.MATERN32, 0.05,
                      _reference(KernelSpec(KernelFamily.MATERN32, 0.02,
                                            np.array([0.5, 0.5]),
                                            nugget=0.05)),
                      0.1, FAST)
        assert exc.value.side == "upper"

    def test_negation_mirror_between_sides(self):
        # Negating the responses swaps the two one-sided problems exactly:
        # the ramps are mirror images, so lambda* and sigma2 agree.
        ds = _misspecified_dataset(5)
        neg = Dataset(X=ds.X, y=-ds.y)
        up = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                np.array([0.6, 0.6]), 0.05, 0.95, FAST)
        lo = calibrate_quantile(neg, ORD, KernelFamily.MATERN52, 1e-4,
                                np.array([0.6, 0.6]), 0.05, 0.05, FAST)
        assert up.lambda_star == pytest.approx(lo.lambda_star, rel=1e-12)
        assert up.sigma2_opt == pytest.approx(lo.sigma2_opt, rel=1e-12)

    def test_fixed_point_of_calibration(self):
        # Re-calibrating from an already calibrated side stays put: the
        # Wasserstein objective is zero at lambda = 1 by construction.
        ds = _misspecified_dataset(6)
        first = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                   np.array([0.5, 0.5]), 0.05, 0.95, FAST)
        second = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                    first.kernel.theta, first.sigma2_opt,
                                    0.95, FAST)
        # movement less than one (log-spaced) grid cell
        cell = FAST.lambda_grid.points()[1] / FAST.lambda_grid.points()[0]
        assert 1.0 / cell <= second.lambda_star <= cell


def _parabola_recorder(monkeypatch, calls: list) -> list:
    """Wrap ``rpie._parabola``: for every parabola fitted, the number of
    evaluations in calls at the time and the parabola's points."""
    import gpcal.rpie
    parabola = gpcal.rpie._parabola
    fitted = []

    def recording_parabola(*points):
        fitted.append((len(calls), points))
        return parabola(*points)

    monkeypatch.setattr(gpcal.rpie, "_parabola", recording_parabola)
    return fitted


def _golden_phase(search: list, a: float, b: float) -> tuple:
    """Replay a lambda search from its bracket [a, b] in log lambda, given
    its evaluations as (t, W2), until the bracket is first no wider than
    _PARABOLA_BRACKET.  Asserts that each of those evaluations is the golden
    point of the current bracket, to 1e-12 in t: first a + (1 - phi)(b -
    a), then the golden point other than the lowest x so far, a + b - x.
    The bracket then drops the part beyond u when f(u) > f(x), and beyond
    x otherwise: a tie moves x to u.  Returns the number of those
    evaluations and the bracket they leave."""
    (x, fx), *rest = search
    assert abs(x - (a + (1.0 - _GOLDEN) * (b - a))) <= 1e-12
    count = 1
    for u, fu in rest:
        if b - a <= _PARABOLA_BRACKET:
            break
        # The two golden points are a + (1 - phi)(b - a) and a + phi (b -
        # a), which sum to a + b.
        assert min(abs(x - (a + g * (b - a)))
                   for g in (1.0 - _GOLDEN, _GOLDEN)) <= 1e-12
        assert abs(u - (a + b - x)) <= 1e-12
        if fu <= fx:
            a, b = (x, b) if u > x else (a, x)
            x, fx = u, fu
        else:
            a, b = (a, u) if u > x else (u, b)
        count += 1
    return count, a, b


class TestRefine:
    """``_Side.refine`` driven through the generator protocol ``_lockstep``
    uses, on synthetic W2 curves of t = log lambda and with no GP: the
    default 15-point grid, then Brent's search on the best grid lambda's
    two cells, golden steps only until the bracket is no wider than
    _PARABOLA_BRACKET.  The objective is sent back with lambda itself in place
    of sigma2_opt, so the result shows which evaluation it was read from."""

    # Golden steps from a two-cell bracket of the default grid (log width
    # 2 ln(1e4) / 14 = 1.316) down to 1e-2: its golden point, then 11
    # shrinks by phi, since 1.316 phi^10 = 0.0107 > 1e-2 >= 1.316 phi^11
    # = 0.0066.
    GOLDEN_STEPS = 12

    # (W2 of t, or None where absent; local minima in t; evaluations in
    # all; absent evaluations).  Each case takes 15 grid evaluations and
    # GOLDEN_STEPS = 12 golden ones, then its parabolic and golden steps:
    # 3 on the parabola, whose first vertex is the minimum, 9 on the kink
    # and 11 on the two kinks, where no parabola fits the minimum, 3 on
    # the absent stretch and 5 on the island.  The
    # two kink minima lie 0.003 apart in one grid cell, 3e-5 apart in W2,
    # as on a zero-nugget calibration.  The absent stretch starts 5e-4
    # above the minimum, and 3 of the golden steps land in it.  On the
    # island W2 is absent but at the grid lambda 1 (t = 0) and within 2e-3
    # of the minimum, so 11 of the search's 17 evaluations are absent, and
    # absent values reach the check that keeps them from a parabola.
    CASES = {
        "parabola": (lambda t: 1.0 + (t - 0.3) ** 2, (0.3,), 30, 0),
        "kink": (lambda t: 1.0 + abs(t - 0.3), (0.3,), 36, 0),
        "two_kinks": (lambda t: 1.0 + min(abs(t - 0.063),
                                          abs(t - 0.066) + 3e-5),
                      (0.063, 0.066), 38, 0),
        "absent_stretch": (lambda t: None if 0.3047 < t < 0.505
                           else 1.0 + (t - 0.3042) ** 2, (0.3042,), 30, 3),
        "island": (lambda t: 2.0 if t == 0.0 else 1.0 + (t - 0.155) ** 2
                   if abs(t - 0.155) < 2e-3 else None, (0.155,), 32, 11),
    }

    @staticmethod
    def _drive(objective, calls: list):
        """The search's result, each evaluation appended to calls as it is
        made, as (lambda, W2 or inf)."""
        run = _Side(SimpleNamespace(config=RpieConfig()), 0.9).refine()
        sent = None
        with pytest.raises(StopIteration) as stop:
            while True:
                lam = run.send(sent)
                w2 = objective(math.log(lam))
                calls.append((lam, math.inf if w2 is None else w2))
                sent = (None, None) if w2 is None else (w2, lam)
        return stop.value.value

    @pytest.mark.parametrize("case", list(CASES))
    def test_search(self, monkeypatch, case):
        objective, minima, evaluations, absent = self.CASES[case]
        calls = []
        fitted = _parabola_recorder(monkeypatch, calls)
        grid = RpieConfig().lambda_grid
        lam_star, tag, w2_star = self._drive(objective, calls)
        assert len(calls) == evaluations
        # lambda* is the lowest W2 evaluated, and a local minimum to
        # within the search's resolution.
        assert w2_star == min(w2 for _, w2 in calls)
        assert (lam_star, w2_star) in calls
        assert tag == lam_star
        assert min(abs(math.log(lam_star) - m) for m in minima) \
            <= _LOG_LAMBDA_TOL
        # Every evaluation made while the bracket is wider than
        # _PARABOLA_BRACKET is a golden point, down to the first bracket no
        # wider than that.
        t = np.log([lam for lam, _ in calls[:grid.count]])
        i_best = int(np.argmin([w2 for _, w2 in calls[:grid.count]]))
        search = [(math.log(lam), w2) for lam, w2 in calls[grid.count:]]
        steps, a, b = _golden_phase(search, t[i_best - 1], t[i_best + 1])
        assert steps == self.GOLDEN_STEPS
        assert b - a <= _PARABOLA_BRACKET < (b - a) / _GOLDEN
        # No parabola is fitted before that bracket, and only finite
        # values reach one.
        assert fitted
        assert all(made >= grid.count + steps for made, _ in fitted)
        assert all(math.isfinite(value) for _, fit in fitted
                   for value in fit)
        assert sum(w2 == math.inf for _, w2 in search) == absent

    def test_ties_move_to_the_new_point(self):
        # On a flat W2 every comparison is a tie, and Brent's rule fu <= fx
        # moves the search to the new point each time, so its steps march
        # up from the first grid cell's golden point towards the cell's
        # top; a golden section that keeps the left part on ties would
        # march down.  No value is lower than the first grid lambda's, so
        # that stays lambda*.
        grid = RpieConfig().lambda_grid.points()
        calls = []
        lam_star, _, _ = self._drive(lambda t: 1.0, calls)
        search = [lam for lam, _ in calls[grid.size:]]
        assert all(x < y for x, y in zip(search, search[1:]))
        assert grid[0] < search[0] and search[-1] <= grid[1]
        assert lam_star == grid[0]


class TestCalibrate:
    def test_two_sided_coverage(self):
        ds = _misspecified_dataset(7)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.7]), nugget=1e-4))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.2,
                        FAST)
        assert cal.loo_coverage_smoothed() == pytest.approx(0.8, abs=2e-6)
        assert abs(cal.loo_coverage() - 0.8) <= 2.0 / ds.n + 1e-9
        assert cal.upper.a == pytest.approx(0.9)
        assert cal.lower.a == pytest.approx(0.1)

    def test_loo_coverage_reads_recorded_counts(self):
        # loo_coverage() is the difference of the step counts each side
        # recorded, which equal the counts of the final models' residuals,
        # and it survives a document round trip.
        ds = _misspecified_dataset(7)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.7]), nugget=1e-4))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.2,
                        FAST)
        recount = (
            psi_from_residuals(virtual_loo(cal.upper_model).std_resid, 0.9)
            - psi_from_residuals(virtual_loo(cal.lower_model).std_resid,
                                 0.1))
        assert cal.loo_coverage() == recount
        loaded = CalibratedIntervalModel.from_dict(cal.to_dict())
        assert loaded.loo_coverage() == recount

    def test_state_released_before_final_fits(self, monkeypatch):
        # With the cycle collector off, the calibration state is freed by
        # reference counting alone as soon as _search returns: no
        # reference cycle keeps it alive through the two final fits.
        import gpcal.rpie
        refs, alive = [], []

        class Tracked(_Calibration):
            def __init__(self, *args):
                super().__init__(*args)
                refs.append(weakref.ref(self))

        search = gpcal.rpie._search

        def checked(*args):
            out = search(*args)
            alive.append(refs[-1]() is not None)
            return out

        monkeypatch.setattr(gpcal.rpie, "_Calibration", Tracked)
        monkeypatch.setattr(gpcal.rpie, "_search", checked)
        ds = _misspecified_dataset(7)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.7]), nugget=1e-4))
        gc.disable()
        try:
            calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.2, FAST)
        finally:
            gc.enable()
        assert len(refs) == 1 and alive == [False]

    def test_sides_equal_one_sided_calibrations(self):
        # Sharing one state between both sides changes no bit of either.
        ds = _misspecified_dataset(12)
        theta0 = np.array([0.6, 0.7])
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05, theta0,
                                    nugget=1e-4))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.2, FAST)
        for side, a in ((cal.upper, 0.9), (cal.lower, 0.1)):
            alone = calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 1e-4,
                                       theta0, 0.05, a, FAST)
            for name in ("lambda_star", "sigma2_opt", "wasserstein2",
                         "psi_achieved", "psi_raw"):
                assert getattr(side, name) == getattr(alone, name)
            np.testing.assert_array_equal(side.beta_opt, alone.beta_opt)
            np.testing.assert_array_equal(side.trace.objectives,
                                          alone.trace.objectives)
            np.testing.assert_array_equal(side.trace.sigma2_opts,
                                          alone.trace.sigma2_opts)

    # Problems whose two sides' searches share lambdas: (data seed,
    # nugget, alpha, config, states built twice).  On the seed-2 one the
    # two searches cross once: one lambda that both evaluate is asked for
    # again after the kept state has moved on, and it is built a second
    # time.  The other two build each distinct lambda once.
    SHARED = [(7, 1e-4, 0.2, FAST, 0), (12, 0.0, 0.1, FAST, 0),
              (2, 0.0, 0.1, FAST, 1)]

    @pytest.mark.parametrize("seed,nugget,alpha,config,rebuilt", SHARED)
    def test_shared_bracket_shares_states(self, monkeypatch, seed, nugget,
                                          alpha, config, rebuilt):
        # Both sides' searches evaluate some lambdas in common, the
        # calibration builds one state per distinct lambda (plus one per
        # lambda asked for again after the kept state moved on), and each
        # side still equals its one-sided calibration bit for bit.
        ds = _misspecified_dataset(seed)
        theta0 = np.array([0.6, 0.7])
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05, theta0,
                                    nugget=nugget))
        log = _record_search(monkeypatch)
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, nugget, ref, alpha,
                        config)
        count = config.lambda_grid.count
        searched = [{lam for lam, _ in log["evaluated"][a][count:]}
                    for a in (1.0 - alpha / 2.0, alpha / 2.0)]
        shared = searched[0] & searched[1]
        assert shared
        states = log["states"]
        assert set(states) == _distinct_lambdas(log)
        assert len(states) == _slot_builds(log) \
            == len(_distinct_lambdas(log)) + rebuilt
        twice = [lam for lam in set(states) if states.count(lam) > 1]
        assert len(twice) == rebuilt and set(twice) <= shared
        assert len(log["bases"]) == (len(log["states"]) if nugget else 0)
        monkeypatch.undo()
        for side, a in ((cal.upper, 1.0 - alpha / 2.0),
                        (cal.lower, alpha / 2.0)):
            alone = calibrate_quantile(ds, ORD, KernelFamily.MATERN52,
                                       nugget, theta0, 0.05, a, config)
            for name in ("lambda_star", "sigma2_opt", "wasserstein2",
                         "psi_achieved", "psi_raw"):
                assert getattr(side, name) == getattr(alone, name)
            np.testing.assert_array_equal(side.beta_opt, alone.beta_opt)
            np.testing.assert_array_equal(side.trace.objectives,
                                          alone.trace.objectives)

    def test_search_cost_and_phase_stops(self, monkeypatch):
        # A default two-sided calibration builds one per-lambda state, and
        # with a nugget one eigenbasis, per distinct lambda evaluated over
        # the grid and both searches.  The sides' best grid lambdas are
        # interior and their brackets apart here, so that is 15 grid
        # lambdas and, per side, TestRefine.GOLDEN_STEPS = 12 golden steps
        # down to the first bracket no wider than _PARABOLA_BRACKET, then 5
        # more steps on the upper side and 6 on the lower: 15 + 17 + 18 =
        # 50 in all.  (Those last steps compare W2 values 1e-11 apart, so
        # their count follows the round-off of the eigenbasis.)  The
        # searches stop with evaluated lambdas within 2/3
        # _LOG_LAMBDA_TOL of lambda* in log lambda on either side of it,
        # the ends of the final bracket.
        log = _record_search(monkeypatch)
        ds = _misspecified_dataset(13)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.7]), nugget=1e-4))
        config = RpieConfig()
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.1,
                        config)
        grid = config.lambda_grid
        assert len(log["evaluated"]) == 2
        cell = math.log(grid.hi / grid.lo) / (grid.count - 1)
        reach = 2.0 / 3.0 * _LOG_LAMBDA_TOL * (1.0 + 1e-9)
        t = np.log(grid.points())
        for side in (cal.lower, cal.upper):
            i_best = int(np.nanargmin(side.trace.objectives))
            assert 0 < i_best < grid.count - 1
            steps, a, b = _golden_phase(log["search"][side.a][grid.count:],
                                        t[i_best - 1], t[i_best + 1])
            assert steps == TestRefine.GOLDEN_STEPS
            assert b - a <= _PARABOLA_BRACKET < (b - a) / _GOLDEN
            assert (b - a) / _GOLDEN ** (steps - 1) \
                == pytest.approx(2.0 * cell, rel=1e-9)
            calls = log["evaluated"][side.a][grid.count:]
            gaps = [math.log(lam / side.lambda_star) for lam, _ in calls
                    if lam != side.lambda_star]
            assert any(-reach <= gap < 0.0 for gap in gaps)
            assert any(0.0 < gap <= reach for gap in gaps)
        distinct = _distinct_lambdas(log)
        assert len(distinct) == 50
        assert len(log["bases"]) == len(log["states"]) \
            == len(set(log["states"])) == len(distinct) == _slot_builds(log)

    @pytest.mark.parametrize("nugget,count", [(1e-4, 15), (0.0, 30)])
    def test_cost_model(self, monkeypatch, nugget, count):
        # One two-sided calibration at n = 60 on a count-point grid: with a
        # nugget, one eigh per state and one eigvalsh per (state, side)
        # objective; without, one eigvalsh per state build that has an
        # objective.  No n x n Kbar or K^{-1} is formed: gp._inverse, the
        # only route to either, is never called.  Neither calibration's
        # searches cross, so each distinct lambda is built once.
        import gpcal.estimation
        import gpcal.gp
        calls = {"eigh": 0, "eigvalsh": 0, "_inverse": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                counting(name, getattr(np.linalg, name)))
        for module in (gpcal.gp, gpcal.estimation):
            monkeypatch.setattr(module, "_inverse",
                                counting("_inverse", module._inverse))
        log = _record_search(monkeypatch)
        ds = _misspecified_dataset(14)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.7]), nugget=nugget))
        calibrate(ds, ORD, KernelFamily.MATERN52, nugget, ref, 0.1,
                  RpieConfig(lambda_grid=GridSpec(1e-2, 1e2, count)))
        states = log["states"]
        assert set(states) == _distinct_lambdas(log)
        assert len(states) == _slot_builds(log) == len(set(states))
        objectives = [lam for lam, has_objective in log["order"]
                      if has_objective]
        if nugget > 0.0:
            assert calls["eigh"] == len(states)
            assert calls["eigvalsh"] == len(objectives)
        else:
            assert calls["eigh"] == 0
            assert calls["eigvalsh"] == sum(
                has_objective for _, has_objective in _slot_runs(log))
        assert calls["_inverse"] == 0

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_default_grid_loses_no_w2(self, alpha):
        # On a misspecified problem per nugget form and level, no side of
        # the default 15-point calibration lands above the W2 of a
        # 60-point grid by more than the lambda search's own resolution;
        # here every side finds the 60-point grid's minimum, within 1e-11
        # relative in W2.  This is not a guarantee: with zero nugget W2 can
        # have kink minima closer than one grid cell, and either grid's
        # search may settle in the higher of them.
        ds = _misspecified_dataset(21)
        fine = RpieConfig(lambda_grid=GridSpec(1e-2, 1e2, 60))
        for nugget in (1e-4, 0.0):
            ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                        np.array([0.6, 0.7]),
                                        nugget=nugget))
            coarse = calibrate(ds, ORD, KernelFamily.MATERN52, nugget, ref,
                               alpha)
            dense = calibrate(ds, ORD, KernelFamily.MATERN52, nugget, ref,
                              alpha, fine)
            for got, want in ((coarse.lower, dense.lower),
                              (coarse.upper, dense.upper)):
                assert got.trace.lambdas.size == 15
                assert got.wasserstein2 <= want.wasserstein2 * (1.0 + 1e-6)

    def test_duplicate_rows_without_nugget_rejected(self, rng):
        X = rng.uniform(0, 1, (20, 2))
        X[1] = X[0]
        ds = Dataset(X=X, y=rng.standard_normal(20))
        with pytest.raises(IllConditionedError):
            calibrate_quantile(ds, ORD, KernelFamily.MATERN52, 0.0,
                               np.array([0.5, 0.5]), 1.0, 0.95, FAST)

    def test_well_specified_data_barely_moves(self):
        # A correct reference model needs little recalibration: lambda*
        # stays within the central grid decade and the distance is small
        # relative to the reference covariance mass.
        hits = 0
        for seed in range(5):
            local = np.random.default_rng(7000 + seed)
            X = local.uniform(0, 1, (50, 2))
            spec = KernelSpec(KernelFamily.MATERN32, 1.0,
                              np.array([0.4, 0.4]), nugget=0.05)
            y = sample_gp_response(X, spec, local)
            ds = Dataset(X=X, y=y)
            cal = calibrate(ds, ORD, KernelFamily.MATERN32, 0.05,
                            _reference(spec), 0.1, FAST)
            K0_mass = 50 * (spec.sigma2 + spec.nugget)
            small = (cal.upper.wasserstein2 <= 0.5 * K0_mass
                     and 0.2 <= cal.upper.lambda_star <= 5.0)
            hits += small
        assert hits >= 4

    def test_predict_calibrated_consistency_with_shared_model(self):
        # When both sides carry identical hyperparameters the calibrated
        # interval coincides with the plug-in interval of that model.
        ds = _misspecified_dataset(8)
        spec = KernelSpec(KernelFamily.MATERN52, 0.03,
                          np.array([0.5, 0.6]), nugget=1e-4)
        sol_kwargs = dict(theta_ref=spec.theta, beta_opt=np.zeros(1),
                          wasserstein2=0.0, kernel=spec,
                          trace=None, lambda_star=1.0,
                          sigma2_opt=spec.sigma2)
        from gpcal.rpie import LambdaTrace, RpieSolution
        trace = LambdaTrace(np.array([1.0]), np.array([0.0]),
                            np.array([spec.sigma2]))
        upper = RpieSolution(a=0.95, psi_achieved=0.95, psi_raw=0.95,
                             **{**sol_kwargs, "trace": trace})
        lower = RpieSolution(a=0.05, psi_achieved=0.05, psi_raw=0.05,
                             **{**sol_kwargs, "trace": trace})
        model = fit_gp(ds, spec, ORD)
        cal = CalibratedIntervalModel(
            upper=upper, lower=lower, reference=_reference(spec),
            dataset=ds, trend=ORD, alpha=0.1,
            upper_model=model, lower_model=model)
        Z = ds.X[:7]
        lo, up, crossed = predict_calibrated(cal, Z)
        lo_ref, up_ref = prediction_interval(model, Z, 0.1)
        np.testing.assert_allclose(lo, lo_ref, rtol=1e-12)
        np.testing.assert_allclose(up, up_ref, rtol=1e-12)
        assert not crossed.any()

    def test_training_points_have_positive_width(self):
        ds = _misspecified_dataset(9)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.6, 0.6]), nugget=1e-3))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-3, ref, 0.1,
                        FAST)
        lo, up, _ = predict_calibrated(cal, ds.X[:10])
        assert np.all(np.isfinite(lo)) and np.all(np.isfinite(up))
        assert np.all(up - lo > 0.0)

    def test_json_round_trip(self):
        ds = _misspecified_dataset(10)
        ref = _reference(KernelSpec(KernelFamily.MATERN52, 0.05,
                                    np.array([0.5, 0.5]), nugget=1e-4))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 1e-4, ref, 0.2,
                        FAST)
        import json
        back = CalibratedIntervalModel.from_dict(
            json.loads(json.dumps(cal.to_dict())))
        Z = ds.X[:5]
        lo1, up1, _ = predict_calibrated(cal, Z)
        lo2, up2, _ = predict_calibrated(back, Z)
        np.testing.assert_allclose(lo2, lo1, rtol=1e-12)
        np.testing.assert_allclose(up2, up1, rtol=1e-12)


class TestScaleFree:
    """With zero nugget sigma2 is a pure scale of K = sigma2 R: one
    Cholesky factor per lambda serves every amplitude and the W2 law (the
    scale-free state).  An R that needs jitter is replaced by the R + j I
    that ``factor_covariance`` returns, the matrix ``fit_gp`` scales at
    every amplitude, so every zero-nugget lambda takes this state."""

    THETA0 = np.array([0.6, 0.7, 0.5])
    SIGMA2_0 = 0.05
    LAMBDAS = (0.5, 1.0, 2.0)
    AMPLITUDES = (1e-3, 0.05, 0.7, 20.0)

    def _problem(self):
        # d = 3 keeps cond R(lambda) <= 1.2e7 on LAMBDAS; both routes then
        # agree to ~1e-11, well inside the 1e-9 asked below (at d = 2 the
        # same lambda = 2 gives cond R = 3.3e9 and both routes err by ~5e-9
        # against a 40-digit solve).
        ds = _misspecified_dataset(14, n=60, d=3)
        cal = _Calibration(fit_gp(ds, KernelSpec(
            KernelFamily.MATERN52, self.SIGMA2_0, self.THETA0), ORD),
            RpieConfig())
        return ds, cal

    def test_residuals_match_eigenbasis(self):
        ds, cal = self._problem()
        for lam in self.LAMBDAS:
            state = cal.at(lam)
            assert state.basis is None
            basis = SigmaScanBasis.from_gram(cal.gram(lam), cal.space, ds.y,
                                             0.0)
            for s2 in self.AMPLITUDES:
                want = basis.std_residuals(s2)
                np.testing.assert_allclose(state.std_residuals(s2), want,
                                           rtol=0.0,
                                           atol=1e-9 * np.abs(want).max())

    def test_objective_matches_wasserstein(self):
        ds, cal = self._problem()
        ref = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, self.SIGMA2_0,
                                    self.THETA0, nugget=0.0), ORD)
        m0 = ref.F @ ref.beta_hat
        for lam in self.LAMBDAS:
            R = cal.gram(lam)
            for s2 in self.AMPLITUDES:
                if lam == 1.0 and s2 == self.SIGMA2_0:
                    continue    # the reference law itself: W2 = 0
                model = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, s2,
                                              lam * self.THETA0, nugget=0.0),
                               ORD)
                want = wasserstein2_gaussians(m0, ref.K,
                                              model.F @ model.beta_hat,
                                              s2 * R)
                assert cal.objective(lam, s2) == pytest.approx(want,
                                                               rel=1e-9)

    def test_one_factorization_per_lambda(self, monkeypatch):
        # A default two-sided zero-nugget calibration never builds an
        # eigenbasis and builds one state per distinct lambda evaluated
        # over the grid and both searches: 60, 15 grid lambdas and 33 + 17
        # search lambdas less the 5 that both sides' searches share here.
        # Each search takes TestRefine.GOLDEN_STEPS = 12 golden steps, then
        # 21 more on the upper side and 5 on the lower.
        log = _record_search(monkeypatch)
        ds, _ = self._problem()
        ref = _reference(KernelSpec(KernelFamily.MATERN52, self.SIGMA2_0,
                                    self.THETA0, nugget=0.0))
        cal = calibrate(ds, ORD, KernelFamily.MATERN52, 0.0, ref, 0.1)
        assert not log["bases"]
        count = RpieConfig().lambda_grid.count
        searched = [{lam for lam, _ in calls[count:]}
                    for calls in log["evaluated"].values()]
        assert len(searched) == 2 and searched[0] & searched[1]
        distinct = _distinct_lambdas(log)
        assert len(distinct) == 60
        assert len(log["states"]) == len(set(log["states"])) \
            == len(distinct) == _slot_builds(log)
        assert cal.loo_coverage_smoothed() == pytest.approx(0.9, abs=1e-6)

    # Squared-exponential case in which the 7 largest of the 25 FAST grid
    # lambdas give an R that only factors with jitter 1e-10.
    SE = KernelFamily.SQUARED_EXPONENTIAL
    SE_THETA0 = np.full(2, 0.4)

    def _se_problem(self):
        local = np.random.default_rng(0)
        X = local.uniform(0, 1, (40, 2))
        y = morokoff_caflisch(X) + 0.01 * local.standard_normal(40)
        ds = Dataset(X=X, y=y)
        cal = _Calibration(fit_gp(ds, KernelSpec(
            self.SE, float(np.var(y)), self.SE_THETA0), ORD), FAST)
        jitters = {float(lam): factor_covariance(cal.gram(lam), 0.0, 1.0)[2]
                   for lam in FAST.lambda_grid.points()}
        jittered = {lam: j for lam, j in jitters.items() if j > 0.0}
        assert len(jittered) == 7
        return ds, cal, jittered

    def test_jittered_lambdas_stay_scale_free(self, monkeypatch):
        # Every zero-nugget lambda takes the scale-free state, those whose
        # R needs jitter included: no eigenbasis is ever built.
        from_gram = SigmaScanBasis.from_gram.__func__
        bases = []

        def counting_from_gram(cls, *args, **kwargs):
            bases.append(1)
            return from_gram(cls, *args, **kwargs)

        ds, cal, _ = self._se_problem()
        monkeypatch.setattr(SigmaScanBasis, "from_gram",
                            classmethod(counting_from_gram))
        ref = _reference(KernelSpec(self.SE, float(np.var(ds.y)),
                                    self.SE_THETA0, nugget=0.0))
        out = calibrate(ds, ORD, self.SE, 0.0, ref, 0.1, FAST)
        assert not bases
        assert out.loo_coverage_smoothed() == pytest.approx(0.9, abs=1e-6)

    def test_jittered_state_is_the_fitted_model(self):
        # At a jittered lambda the state reads R + j I, the matrix fit_gp
        # factors (scaled by sigma2) at every amplitude.  cond(R + j I) is
        # about 4e11 here, so the two routes agree only to round-off of
        # that conditioning: a one-ulp change of sigma2 alone moves the
        # fit_gp residuals by 1.6e-5 of max |z|.  Measured here: residuals
        # 7.8e-6 of max |z| apart, W2 1.1e-5 relative.
        ds, cal, jittered = self._se_problem()
        ref = fit_gp(ds, KernelSpec(self.SE, float(np.var(ds.y)),
                                    self.SE_THETA0, nugget=0.0), ORD)
        m0 = ref.F @ ref.beta_hat
        for lam, jitter in jittered.items():
            state = cal.at(lam)
            np.testing.assert_array_equal(
                state.R, cal.gram(lam) + jitter * np.eye(ds.n))
            for s2 in (0.01, 1.0, 100.0):
                s2 *= float(np.var(ds.y))
                model = fit_gp(ds, KernelSpec(self.SE, s2,
                                              lam * self.SE_THETA0,
                                              nugget=0.0), ORD)
                assert model.jitter_used == pytest.approx(s2 * jitter,
                                                          rel=1e-12)
                np.testing.assert_allclose(model.K, s2 * state.R, rtol=0.0,
                                           atol=1e-13 * s2)
                want = virtual_loo(model).std_resid
                np.testing.assert_allclose(state.std_residuals(s2), want,
                                           rtol=0.0,
                                           atol=1e-4 * np.abs(want).max())
                w2 = wasserstein2_gaussians(m0, ref.K,
                                            model.F @ model.beta_hat,
                                            s2 * state.R)
                assert cal.objective(lam, s2) == pytest.approx(w2, rel=1e-3)

    def test_duplicate_rows_rejected_by_sigma_opt(self, rng):
        X = rng.uniform(0, 1, (20, 2))
        X[1] = X[0]
        ds = Dataset(X=X, y=rng.standard_normal(20))
        with pytest.raises(IllConditionedError):
            sigma_opt(ds, ORD, KernelFamily.MATERN52, np.array([0.5, 0.5]),
                      0.0, 0.95, FAST)


class TestEigenbasisLaw:
    """With a positive nugget the W2 law is read from the eigenbasis
    state: the mean y - K Kbar y and Tr (sigma2 L0' R L0 + nugget L0'
    L0)^{1/2}, with L0' R L0 formed once per lambda by two triangular
    products.  Only the reference fit and the two final fits factor a
    covariance."""

    NUGGET = 1e-3

    def test_objective_matches_wasserstein(self):
        ds = _misspecified_dataset(14, n=60, d=3)
        theta0, sigma2_0 = TestScaleFree.THETA0, TestScaleFree.SIGMA2_0
        ref = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, sigma2_0, theta0,
                                    nugget=self.NUGGET), ORD)
        cal = _Calibration(ref, RpieConfig())
        m0 = ref.F @ ref.beta_hat
        for lam in TestScaleFree.LAMBDAS:
            assert cal.at(lam).basis is not None
            for s2 in TestScaleFree.AMPLITUDES:
                if lam == 1.0 and s2 == sigma2_0:
                    continue    # the reference law itself: W2 = 0
                model = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, s2,
                                              lam * theta0,
                                              nugget=self.NUGGET), ORD)
                want = wasserstein2_gaussians(m0, ref.K,
                                              model.F @ model.beta_hat,
                                              model.K)
                assert cal.objective(lam, s2) == pytest.approx(want,
                                                               rel=1e-9)

    @pytest.mark.parametrize("nugget", [NUGGET, 0.0])
    def test_triangular_products(self, nugget):
        # A = L0' R L0 by two dtrmm products equals the two GEMMs, for
        # both state forms (R + j I in the scale-free one).
        ds = _misspecified_dataset(14, n=60, d=3)
        cal = _Calibration(fit_gp(ds, KernelSpec(
            KernelFamily.MATERN52, TestScaleFree.SIGMA2_0,
            TestScaleFree.THETA0, nugget=nugget), ORD), RpieConfig())
        L0 = cal.ref.gls.L
        for lam in TestScaleFree.LAMBDAS:
            state = cal.at(lam)
            want = (L0.T @ state.R) @ L0
            assert np.abs(state.A - want).max() <= \
                1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("nugget", [1e-2, 0.0])
    def test_factorizations_per_calibration(self, monkeypatch, nugget):
        # A default two-sided calibration factors the reference fit and
        # the two final fits; a zero-nugget one also factors R once per
        # lambda state.
        import gpcal.gp
        import gpcal.rpie
        factor = gpcal.gp.factor_covariance
        init = _LambdaState.__init__
        calls, states = [], []

        def counting_factor(*args):
            calls.append(1)
            return factor(*args)

        def counting_init(state, *args):
            states.append(1)
            init(state, *args)

        for module in (gpcal.gp, gpcal.rpie):
            monkeypatch.setattr(module, "factor_covariance", counting_factor)
        monkeypatch.setattr(_LambdaState, "__init__", counting_init)
        ds = _misspecified_dataset(14, n=60, d=3)
        ref = _reference(KernelSpec(KernelFamily.MATERN52,
                                    TestScaleFree.SIGMA2_0,
                                    TestScaleFree.THETA0, nugget=nugget))
        calibrate(ds, ORD, KernelFamily.MATERN52, nugget, ref, 0.1)
        assert len(states) > RpieConfig().lambda_grid.count
        assert len(calls) == 3 + (len(states) if nugget == 0.0 else 0)


class TestNoNuggetCase:
    def test_sigma_opt_exists_near_unit_lambda(self):
        # Exponential kernel, no nugget, well-specified responses: the
        # amplitude equation stays solvable around the reference scales.
        successes = 0
        for seed in range(20):
            local = np.random.default_rng(8800 + seed)
            X = local.uniform(0, 1, (30, 2))
            spec = KernelSpec(KernelFamily.EXPONENTIAL, 1.0,
                              np.array([0.5, 0.5]), nugget=0.0)
            y = sample_gp_response(X, spec, local)
            ds = Dataset(X=X, y=y)
            s2 = sigma_opt(ds, ORD, KernelFamily.EXPONENTIAL,
                           spec.theta, 0.0, 0.95, FAST)
            successes += s2 is not None
        assert successes == 20

    def test_absent_lambdas_are_skipped(self):
        # With no nugget some grid cells may be infeasible; calibration
        # still returns a solution from the feasible region.
        local = np.random.default_rng(99)
        X = local.uniform(0, 1, (40, 2))
        spec = KernelSpec(KernelFamily.EXPONENTIAL, 1.0,
                          np.array([0.4, 0.4]), nugget=0.0)
        y = sample_gp_response(X, spec, local)
        ds = Dataset(X=X, y=y)
        config = RpieConfig(lambda_grid=GridSpec(1e-2, 1e2, 30))
        sol = calibrate_quantile(ds, ORD, KernelFamily.EXPONENTIAL, 0.0,
                                 spec.theta, spec.sigma2, 0.95, config)
        assert sol.psi_achieved == pytest.approx(0.95, abs=1e-6)
        # the trace may legitimately contain absent (NaN) entries
        assert np.isfinite(sol.trace.objectives).any()


class TestInvariance:
    """Calibrated bounds on an n=60, d=3 problem under symmetries of the
    data, to 1e-6 relative to the largest bound.  Each symmetry is checked
    with a positive nugget and with zero nugget, where every lambda of
    these problems takes the scale-free state."""

    TOL = 1e-6
    KERNELS = (KernelSpec(KernelFamily.MATERN52, 0.05, np.full(3, 0.6),
                          nugget=1e-4),
               KernelSpec(KernelFamily.MATERN52, 0.05, np.full(3, 0.6),
                          nugget=0.0))

    @staticmethod
    @functools.lru_cache(maxsize=2)
    def _base(i):
        ds = _misspecified_dataset(8, n=60, d=3)
        queries = np.random.default_rng(81).uniform(0, 1, (20, 3))
        return ds, queries, TestInvariance._bounds(
            ds, TestInvariance.KERNELS[i], queries)

    @staticmethod
    def _bounds(ds, kernel, queries):
        cal = calibrate(ds, ORD, kernel.family, kernel.nugget,
                        _reference(kernel), 0.1, FAST)
        lower, upper, _ = predict_calibrated(cal, queries)
        return np.concatenate([lower, upper])

    def _assert_close(self, got, want):
        assert np.max(np.abs(got - want)) <= self.TOL * np.max(np.abs(want))

    @given(perm=st.permutations(range(60)))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_row_permutation(self, perm):
        idx = np.asarray(perm)
        for i, kernel in enumerate(self.KERNELS):
            ds, queries, want = self._base(i)
            got = self._bounds(Dataset(X=ds.X[idx], y=ds.y[idx]), kernel,
                               queries)
            self._assert_close(got, want)

    @given(shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_affine_response_map(self, shift, scale):
        # y -> shift + scale * y with the amplitude and nugget scaled by
        # scale^2 maps each bound the same way.
        for i, kernel in enumerate(self.KERNELS):
            ds, queries, want = self._base(i)
            kernel = kernel.with_(sigma2=scale ** 2 * kernel.sigma2,
                                  nugget=scale ** 2 * kernel.nugget)
            got = self._bounds(Dataset(X=ds.X, y=shift + scale * ds.y),
                               kernel, queries)
            self._assert_close(got, shift + scale * want)

    @given(offset=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_input_translation(self, offset):
        ds, queries, want = self._base(0)
        c = np.asarray(offset)
        got = self._bounds(Dataset(X=ds.X + c, y=ds.y), self.KERNELS[0],
                           queries + c)
        self._assert_close(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_response_negation_swaps_sides(self, seed):
        # Negating y swaps the two one-sided problems bit for bit, so each
        # bound of one run is minus the other bound of the other run.
        ds = _misspecified_dataset(20 + seed, n=40, d=2)
        queries = np.random.default_rng(seed).uniform(0, 1, (20, 2))
        for kernel in self.KERNELS:
            kernel = kernel.with_(theta=np.full(2, 0.6))
            runs = [calibrate(Dataset(X=ds.X, y=y), ORD, kernel.family,
                              kernel.nugget, _reference(kernel), 0.1, FAST)
                    for y in (ds.y, -ds.y)]
            pos, neg = runs
            for one, other in ((pos.upper, neg.lower),
                               (pos.lower, neg.upper)):
                assert one.lambda_star == other.lambda_star
                assert one.sigma2_opt == other.sigma2_opt
            lo_pos, up_pos, _ = predict_calibrated(pos, queries)
            lo_neg, up_neg, _ = predict_calibrated(neg, queries)
            scale = max(np.abs(lo_pos).max(), np.abs(up_pos).max())
            assert np.max(np.abs(lo_neg + up_pos)) <= 1e-12 * scale
            assert np.max(np.abs(up_neg + lo_pos)) <= 1e-12 * scale
