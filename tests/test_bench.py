"""Test functions, design sampling, metrics, and the experiment runner."""

import csv
import math

import numpy as np
import pytest
from scipy import stats

from gpcal.bench import (
    MOROKOFF_CORRELATION,
    WING_WEIGHT_BOUNDS,
    DesignSpec,
    ExperimentScale,
    compute_metrics,
    experiment_split,
    morokoff_caflisch,
    run_experiment,
    sample_design,
    wing_weight,
    write_report_csv,
    zhou_log,
)
from gpcal.estimation import McmcConfig
from gpcal.exceptions import DataError, DomainError, InvalidMatrixError, \
    InvalidParameterError


class TestWingWeight:
    def test_midpoint_regression_value(self):
        x = WING_WEIGHT_BOUNDS.mean(axis=1)
        # Frozen from a separate evaluation of the closed form with the
        # sweep angle at 0 degrees (midpoint), where the cosines are 1.
        got = wing_weight(x)
        Sw, Wfw, A = x[0], x[1], x[2]
        q, lam, tc = x[4], x[5], x[6]
        Nz, Wdg, Wp = x[7], x[8], x[9]
        expected = (0.036 * Sw ** 0.758 * Wfw ** 0.0035 * A ** 0.6
                    * q ** 0.006 * lam ** 0.04 * (100 * tc) ** (-0.3)
                    * (Nz * Wdg) ** 0.49 + Sw * Wp)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(267.6246925704356, rel=1e-12)

    def test_zero_sweep_angle_drops_trig_terms(self):
        x = WING_WEIGHT_BOUNDS.mean(axis=1)
        x[3] = 0.0
        with_cos = wing_weight(x)
        # cos(0) = 1: reconstruct without any trig
        manual = (0.036 * x[0] ** 0.758 * x[1] ** 0.0035 * x[2] ** 0.6
                  * x[4] ** 0.006 * x[5] ** 0.04
                  * (100 * x[6]) ** (-0.3) * (x[7] * x[8]) ** 0.49
                  + x[0] * x[9])
        assert with_cos == pytest.approx(manual, rel=1e-13)

    def test_monotone_in_wing_area(self):
        xs = []
        for s in np.linspace(150, 200, 9):
            x = WING_WEIGHT_BOUNDS.mean(axis=1)
            x[0] = s
            xs.append(wing_weight(x))
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_out_of_range_rejected(self):
        x = WING_WEIGHT_BOUNDS.mean(axis=1)
        x[0] = 149.0
        with pytest.raises(DomainError):
            wing_weight(x)

    def test_angle_interpreted_in_degrees(self):
        # At +-10 the cosine factor must stay near 1 (10 degrees), not
        # oscillate as 10 radians would.
        x = WING_WEIGHT_BOUNDS.mean(axis=1)
        x[3] = 10.0
        ratio = wing_weight(x) / wing_weight(
            np.concatenate([x[:3], [0.0], x[4:]]))
        assert 1.0 < ratio < 1.05


class TestMorokoffCaflisch:
    def test_all_ones_value(self):
        x = np.ones(10)
        assert morokoff_caflisch(x) == pytest.approx(0.5 * 1.1 ** 10,
                                                     rel=1e-12)
        assert morokoff_caflisch(x) == pytest.approx(1.296871, abs=5e-7)

    def test_zero_coordinate_gives_zero(self, rng):
        x = rng.uniform(0, 1, 6)
        x[3] = 0.0
        assert morokoff_caflisch(x) == 0.0

    def test_one_dimensional_case(self):
        assert morokoff_caflisch(np.array([0.25])) == pytest.approx(
            0.25, rel=1e-12)

    def test_domain_check(self):
        with pytest.raises(DomainError):
            morokoff_caflisch(np.array([0.5, 1.2]))


class TestZhouLog:
    def test_one_dimensional_spike_value(self):
        phi0 = 1.0 / math.sqrt(2 * math.pi)
        phi_far = math.exp(-0.5 * (10.0 / 3.0) ** 2) / math.sqrt(2 * math.pi)
        f = 5.0 * (phi0 + phi_far)
        expected = math.log10(f)
        assert zhou_log(np.array([1.0 / 3.0])) == pytest.approx(
            expected, rel=1e-10)

    def test_reflection_symmetry(self, rng):
        # The two spikes at 1/3 and 2/3 swap under x -> 1 - x.
        for _ in range(20):
            x = rng.uniform(0, 1, 5)
            assert zhou_log(x) == pytest.approx(zhou_log(1.0 - x),
                                                rel=1e-10)

    def test_no_underflow_at_corners(self):
        # d = 10, all-zero corner: value stays finite through log-space
        # evaluation and matches the direct computation where the direct
        # route is still representable.
        val = zhou_log(np.zeros(10))
        assert np.isfinite(val)
        direct = (10.0 ** 10 / 2.0) * (
            math.exp(-0.5 * 10 * (10.0 / 3.0) ** 2)
            + math.exp(-0.5 * 10 * (20.0 / 3.0) ** 2)) \
            * (2 * math.pi) ** (-5)
        assert val == pytest.approx(math.log10(direct) / 10.0, rel=1e-10)
        # far enough into a corner the direct route does underflow while
        # the log-space value remains finite
        big_d = 80
        assert np.isfinite(zhou_log(np.zeros(big_d)))


class TestSampleDesign:
    def test_deterministic_given_seed(self):
        spec = DesignSpec(n=50, d=3, sampling="uniform", seed=123)
        np.testing.assert_array_equal(sample_design(spec),
                                      sample_design(spec))

    def test_uniform_box_respects_bounds(self):
        bounds = np.array([[1.0, 2.0], [-5.0, -4.0]])
        spec = DesignSpec(n=200, d=2, sampling="uniform", bounds=bounds,
                          seed=1)
        X = sample_design(spec)
        assert X[:, 0].min() >= 1.0 and X[:, 0].max() <= 2.0
        assert X[:, 1].min() >= -5.0 and X[:, 1].max() <= -4.0

    def test_identity_copula_is_uniform(self):
        # KS test per column against U(0,1).
        spec = DesignSpec(n=10000, d=3, sampling="copula",
                          correlation=np.eye(3), seed=7)
        X = sample_design(spec)
        for j in range(3):
            p = stats.kstest(X[:, j], "uniform").pvalue
            assert p > 0.01

    def test_copula_reproduces_correlation(self):
        spec = DesignSpec(n=20000, d=10, sampling="copula",
                          correlation=MOROKOFF_CORRELATION, seed=11)
        X = sample_design(spec)
        Z = stats.norm.ppf(X)
        C_hat = np.corrcoef(Z.T)
        assert np.abs(C_hat - MOROKOFF_CORRELATION).max() <= 0.05

    def test_non_psd_correlation_rejected(self):
        C = np.array([[1.0, 0.99, -0.99],
                      [0.99, 1.0, 0.99],
                      [-0.99, 0.99, 1.0]])
        with pytest.raises(InvalidMatrixError):
            sample_design(DesignSpec(n=10, d=3, sampling="copula",
                                     correlation=C, seed=0))

    def test_correlation_matrix_is_psd_with_unit_diagonal(self):
        w = np.linalg.eigvalsh(MOROKOFF_CORRELATION)
        assert w.min() >= -1e-10
        np.testing.assert_array_equal(np.diag(MOROKOFF_CORRELATION),
                                      np.ones(10))


class TestComputeMetrics:
    def test_perfect_predictions_wide_intervals(self):
        y = np.array([1.0, 2.0, 3.0])
        m = compute_metrics(y, y, y - 100.0, y + 100.0)
        assert m.q2 == pytest.approx(1.0)
        assert m.cp == 1.0

    def test_constant_predictor_scores_zero(self):
        y = np.array([0.0, 1.0, 2.0, 5.0])
        const = np.full(4, y.mean())
        m = compute_metrics(y, const, const - 1, const + 1)
        assert m.q2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_counted_case(self):
        y = np.array([0.0, 1.0])
        lowers = np.array([-1.0, 2.0])
        uppers = np.array([1.0, 3.0])
        m = compute_metrics(y, y, lowers, uppers)
        assert m.cp == pytest.approx(0.5)
        assert m.mpiw == pytest.approx(1.5)
        assert m.sdpiw == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            compute_metrics(np.array([]), np.array([]), np.array([]),
                            np.array([]))

    def test_missing_means_gives_nan_q2(self):
        y = np.array([1.0, 2.0])
        m = compute_metrics(y, None, y - 1, y + 1)
        assert math.isnan(m.q2)
        assert m.cp == 1.0


class TestExperimentScale:
    @pytest.mark.parametrize("fields", [
        dict(n=1), dict(n=2), dict(d=0), dict(seeds=0), dict(n=-3),
        dict(n=20.0), dict(seeds="2"),
    ], ids=["n1", "n2", "d0", "seeds0", "n_negative", "n_float",
            "seeds_str"])
    def test_rejects_bad_fields(self, fields):
        with pytest.raises(InvalidParameterError):
            ExperimentScale(**fields)

    def test_smallest_split_and_numpy_integers_accepted(self):
        # n = 3 leaves two training points and one test point.
        scale = ExperimentScale(n=np.int64(3), d=np.int32(1), seeds=1)
        train, X_test, _ = experiment_split("morokoff", scale, 0)
        assert (train.n, X_test.shape[0]) == (2, 1)


class TestRunExperiment:
    def test_unknown_name_rejected(self):
        with pytest.raises(DataError, match="valid names"):
            run_experiment("nope", scale=ExperimentScale(n=20, d=2,
                                                         seeds=1))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_bad_alpha_rejected_before_any_seed(self, monkeypatch, alpha):
        import gpcal.bench

        def no_seed(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(gpcal.bench, "_run_seed", no_seed)
        with pytest.raises(InvalidParameterError,
                           match=r"alpha must lie in \(0, 1\)"):
            run_experiment("morokoff", scale=ExperimentScale(n=20, d=2,
                                                             seeds=1),
                           alpha=alpha)

    # A method name outside mle, msecv and bayes (case included), a bare
    # string, which would run one seed per character, and an empty
    # collection are rejected before any seed runs.
    @pytest.mark.parametrize("methods", [("MLE",), "mle", (),
                                         ("mle", "foo")],
                             ids=["upper_case", "string", "empty", "unknown"])
    def test_bad_methods_rejected_before_any_seed(self, monkeypatch,
                                                  methods):
        import gpcal.bench

        def no_seed(*args):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(gpcal.bench, "_run_seed", no_seed)
        with pytest.raises(InvalidParameterError, match="methods"):
            run_experiment("morokoff", scale=ExperimentScale(n=20, d=2,
                                                             seeds=1),
                           methods=methods)

    def test_bayes_beside_mle(self):
        # A repeated name runs once.
        report = run_experiment(
            "morokoff", scale=ExperimentScale(n=20, d=2, seeds=1),
            methods=["mle", "bayes", "mle"], alpha=0.2)
        assert [r.method for r in report.rows] == ["bayes", "mle",
                                                   "mle_rpie"]
        bayes = report.rows[0]
        assert math.isfinite(bayes.q2) and math.isnan(bayes.loo_cp)
        assert 0.0 <= bayes.cp <= 1.0 and bayes.mpiw > 0.0
        assert bayes.converged and bayes.n_evals == McmcConfig().n_samples
        assert bayes.calibrate_seconds == 0.0
        assert list(report.calibrations) == [(0, "mle")]
        assert set(report.summary) == {"bayes", "mle", "mle_rpie"}

    def test_rows_come_in_seed_then_method_order(self):
        # Each seed appends its rows in method order, whatever the order
        # of ``methods``; nothing sorts them afterwards.
        report = run_experiment(
            "zhou_nugget", scale=ExperimentScale(n=30, d=2, seeds=2),
            methods=("msecv", "mle"), alpha=0.2)
        assert [(r.seed, r.method) for r in report.rows] == [
            (seed, method) for seed in (0, 1)
            for method in ("mle", "mle_rpie", "msecv", "msecv_rpie")]
        assert list(report.calibrations) == [
            (0, "mle"), (0, "msecv"), (1, "mle"), (1, "msecv")]

    def test_smoke_scale_runs_end_to_end(self, tmp_path):
        # n=40, d=2, 3 seeds: completes quickly and produces sane rows.
        report = run_experiment(
            "morokoff", scale=ExperimentScale(n=40, d=2, seeds=3),
            methods=("mle",), alpha=0.2)
        assert len(report.rows) == 6      # mle + mle_rpie per seed
        methods = sorted({r.method for r in report.rows})
        assert methods == ["mle", "mle_rpie"]
        for row in report.rows:
            assert 0.0 <= row.cp <= 1.0
            assert row.mpiw >= 0.0
            assert isinstance(row.converged, bool)
            assert row.n_evals > 0
            if row.method == "mle_rpie":
                assert abs(row.loo_cp - 0.8) <= 2.0 / 30 + 1e-9
        # rows are ordered by (seed, method)
        order = [(r.seed, r.method) for r in report.rows]
        assert order == sorted(order)
        # summary has per-method means
        assert set(report.summary) == {"mle", "mle_rpie"}
        path = tmp_path / "report.csv"
        write_report_csv(report.rows, path)
        header = path.read_text().splitlines()[0]
        assert header == ("experiment,seed,method,q2,loo_cp,cp,mpiw,"
                          "sdpiw,fit_seconds,calibrate_seconds,converged,"
                          "n_evals")
        # the reference fit's diagnostics reach every row of the file
        lines = csv.DictReader(path.read_text().splitlines())
        for row, line in zip(report.rows, lines):
            assert line["converged"] == str(row.converged)
            assert int(line["n_evals"]) == row.n_evals

    def test_reruns_are_identical_outside_timings(self):
        # Nothing but the timings may differ between two runs.
        kwargs = dict(scale=ExperimentScale(n=30, d=2, seeds=2),
                      methods=("mle",), alpha=0.2)
        r1 = run_experiment("zhou_nugget", **kwargs)
        r2 = run_experiment("zhou_nugget", **kwargs)
        assert len(r1.rows) == len(r2.rows) == 4
        for a, b in zip(r1.rows, r2.rows):
            for col in ("experiment", "seed", "method", "q2", "loo_cp",
                        "cp", "mpiw", "sdpiw"):
                va, vb = getattr(a, col), getattr(b, col)
                assert va == vb or (isinstance(va, float)
                                    and math.isnan(va) and math.isnan(vb))
        assert list(r1.calibrations) == [(0, "mle"), (1, "mle")]
        assert list(r2.calibrations) == list(r1.calibrations)
        for key, c1 in r1.calibrations.items():
            c2 = r2.calibrations[key]
            for s1, s2 in ((c1.upper, c2.upper), (c1.lower, c2.lower)):
                assert (s1.lambda_star, s1.sigma2_opt, s1.wasserstein2) == \
                    (s2.lambda_star, s2.sigma2_opt, s2.wasserstein2)
                for field in ("lambdas", "objectives", "sigma2_opts"):
                    np.testing.assert_array_equal(getattr(s1.trace, field),
                                                  getattr(s2.trace, field))

    @pytest.mark.slow
    def test_well_specified_pipeline_coverage(self):
        # Simulate from the fitting family and check the MLE LOO-CP lands
        # inside +-3 binomial standard errors at several levels.
        from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
        from gpcal.bench import sample_gp_response
        from gpcal.estimation import fit_mle
        from gpcal.gp import fit_gp
        from gpcal.loo import loo_coverage
        local = np.random.default_rng(321)
        n = 150
        X = local.uniform(0, 1, (n, 3))
        spec = KernelSpec(KernelFamily.MATERN32, 2.0,
                          np.array([0.4, 0.5, 0.6]), nugget=0.05)
        y = sample_gp_response(X, spec, local)
        ds = Dataset(X=X, y=y)
        trend = TrendSpec.from_string("ordinary")
        result = fit_mle(ds, trend, KernelFamily.MATERN32, nugget=0.05,
                         n_starts=3, seed=0)
        model = fit_gp(ds, result.kernel, trend)
        for alpha in (0.01, 0.05, 0.1):
            cov = loo_coverage(model, alpha)
            se = math.sqrt(alpha * (1 - alpha) / n)
            assert abs(cov - (1 - alpha)) <= 3 * se + 1.0 / n
