"""Virtual LOO formulas, quasi-Gaussian proportions, and LOO coverage."""

import numpy as np
import pytest

from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
from gpcal.exceptions import InvalidParameterError
from gpcal.gp import build_regression_matrix, fit_gp
from gpcal.loo import (
    SigmaScanBasis,
    SmoothingParams,
    loo_coverage,
    loo_mse,
    psi_from_residuals,
    psi_smoothed_from_residuals,
    virtual_loo,
)
from gpcal.stats import normal_quantile

from conftest import brute_force_loo, random_dataset, random_kernel

ORD = TrendSpec.from_string("ordinary")
UNI = TrendSpec.from_string("universal")
SIM = TrendSpec.from_string("simple")


class TestVirtualLoo:
    def test_matches_brute_force_refits(self, rng):
        # Cornerstone: closed-form LOO equals n refits, with and without
        # a nugget, across trends.
        for trend in (ORD, UNI):
            for nugget in (0.0, 0.1):
                ds = random_dataset(rng, n=15, d=2)
                spec = random_kernel(rng, 2,
                                     family=KernelFamily.MATERN52,
                                     nugget=nugget)
                model = fit_gp(ds, spec, trend)
                diag = virtual_loo(model)
                means, variances = brute_force_loo(ds, spec, trend)
                np.testing.assert_allclose(diag.loo_mean, means,
                                           rtol=1e-6, atol=1e-9)
                np.testing.assert_allclose(diag.loo_var, variances,
                                           rtol=1e-6, atol=1e-12)

    def test_pure_nugget_limit(self):
        # K ~ I (amplitude negligible, nugget 1): LOO mean ~ 0, var ~ 1.
        X = np.array([[0.0], [1.0]])
        y = np.array([0.7, -0.4])
        spec = KernelSpec(KernelFamily.MATERN32, 1e-12, np.array([1.0]),
                          nugget=1.0)
        model = fit_gp(Dataset(X=X, y=y), spec, SIM)
        diag = virtual_loo(model)
        np.testing.assert_allclose(diag.loo_mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(diag.loo_var, 1.0, atol=1e-6)

    def test_trend_responses_are_reproduced_exactly(self, rng):
        # y in the trend span: Kbar y = 0, so every LOO mean equals y_i.
        X = rng.uniform(0, 1, (10, 2))
        y = 2.0 + 3.0 * X[:, 0] - 1.0 * X[:, 1]
        ds = Dataset(X=X, y=y)
        model = fit_gp(ds, random_kernel(rng, 2), UNI)
        diag = virtual_loo(model)
        np.testing.assert_allclose(diag.loo_mean, y, rtol=0, atol=1e-9)

    def test_identities_between_fields(self, rng):
        ds = random_dataset(rng, n=11, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        diag = virtual_loo(model)
        np.testing.assert_allclose(diag.loo_var, 1.0 / diag.kbar_diag,
                                   rtol=1e-14)
        np.testing.assert_allclose(
            diag.std_resid,
            (ds.y - diag.loo_mean) / np.sqrt(diag.loo_var), rtol=1e-10)

    def test_unit_vector_in_trend_span_raises_h2(self):
        # Universal trend on a design whose second coordinate value
        # repeats puts e_1 inside the basis span, so the residual
        # variance at that point degenerates.
        from gpcal.exceptions import HypothesisH2Error
        X = np.array([[0.0], [1.0], [1.0]])
        y = np.array([0.3, -0.2, 0.4])
        spec = KernelSpec(KernelFamily.MATERN32, 1.0, np.array([0.5]),
                          nugget=0.1)
        model = fit_gp(Dataset(X=X, y=y), spec, UNI)
        with pytest.raises(HypothesisH2Error):
            virtual_loo(model)

    def test_one_pass_per_model(self, rng, monkeypatch):
        # Repeated LOO reads of one model (virtual_loo, loo_mse and the
        # proportions built on them) pay the O(n^3) pass once, and a
        # caller writing to the returned diagonal leaves the cache as it
        # was.  The pass is the one LAPACK dtrtri (L^{-1}) of the solved
        # state's (Kbar y, diag Kbar).
        import scipy.linalg.lapack
        calls = []
        dtrtri = scipy.linalg.lapack.dtrtri

        def counting(*args, **kwargs):
            calls.append(1)
            return dtrtri(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dtrtri", counting)
        model = fit_gp(random_dataset(rng, n=12, d=2), random_kernel(rng, 2),
                       ORD)
        first = virtual_loo(model)
        kbar_diag = first.kbar_diag.copy()
        first.kbar_diag[:] = -1.0
        mse = loo_mse(model)
        psi_from_residuals(virtual_loo(model).std_resid, 0.9)
        loo_coverage(model, 0.1)
        again = virtual_loo(model)
        assert len(calls) == 1
        np.testing.assert_array_equal(again.loo_var, first.loo_var)
        np.testing.assert_array_equal(again.kbar_diag, kbar_diag)
        assert mse == pytest.approx(np.mean((model.dataset.y
                                             - again.loo_mean) ** 2),
                                    rel=1e-12)


class TestLooMse:
    def test_zero_for_trend_responses(self, rng):
        X = rng.uniform(0, 1, (9, 2))
        y = 1.5 - 0.5 * X[:, 0] + 2.0 * X[:, 1]
        model = fit_gp(Dataset(X=X, y=y), random_kernel(rng, 2), UNI)
        assert loo_mse(model) <= 1e-16

    def test_equals_mean_squared_virtual_residuals(self, rng):
        for _ in range(20):
            ds = random_dataset(rng, n=10, d=2)
            model = fit_gp(ds, random_kernel(rng, 2), ORD)
            diag = virtual_loo(model)
            direct = float(np.mean((ds.y - diag.loo_mean) ** 2))
            assert loo_mse(model) == pytest.approx(direct, rel=1e-10)

    def test_quadratic_homogeneity(self, rng):
        ds = random_dataset(rng, n=10, d=2)
        spec = random_kernel(rng, 2)
        m1 = fit_gp(ds, spec, ORD)
        m2 = fit_gp(Dataset(X=ds.X, y=2.0 * ds.y), spec, ORD)
        assert loo_mse(m2) == pytest.approx(4.0 * loo_mse(m1), rel=1e-12)


class TestQuasiGaussian:
    def test_zero_residuals(self, rng):
        X = rng.uniform(0, 1, (8, 2))
        y = np.full(8, 3.25)          # constant: in the ordinary trend span
        model = fit_gp(Dataset(X=X, y=y), random_kernel(rng, 2), ORD)
        z = virtual_loo(model).std_resid
        assert psi_from_residuals(z, 0.95) == 1.0
        assert psi_from_residuals(z, 0.05) == 0.0

    def test_half_level_rejected(self, rng):
        ds = random_dataset(rng, n=8, d=1)
        model = fit_gp(ds, random_kernel(rng, 1), ORD)
        with pytest.raises(InvalidParameterError):
            psi_from_residuals(virtual_loo(model).std_resid, 0.5)

    def test_values_are_counts_over_n(self, rng):
        ds = random_dataset(rng, n=13, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        z = virtual_loo(model).std_resid
        for a in (0.05, 0.3, 0.7, 0.95):
            psi = psi_from_residuals(z, a)
            assert psi == pytest.approx(round(psi * 13) / 13, abs=1e-12)

    def test_nondecreasing_in_level(self, rng):
        ds = random_dataset(rng, n=14, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        levels = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
        z = virtual_loo(model).std_resid
        vals = [psi_from_residuals(z, a) for a in levels]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_well_specified_monte_carlo_band(self):
        # Simulated true model: psi_0.9 should land in the binomial band
        # [0.84, 0.96] for almost every seed.
        from gpcal.bench import sample_gp_response
        hits = 0
        n_seeds = 200
        for seed in range(n_seeds):
            local = np.random.default_rng(seed)
            X = local.uniform(0, 1, (100, 2))
            spec = KernelSpec(KernelFamily.MATERN32, 1.0,
                              np.array([0.3, 0.3]), nugget=0.1)
            y = sample_gp_response(X, spec, local)
            model = fit_gp(Dataset(X=X, y=y), spec, SIM)
            psi = psi_from_residuals(virtual_loo(model).std_resid, 0.9)
            hits += 0.84 <= psi <= 0.96
        assert hits >= 0.94 * n_seeds


class TestQuasiGaussianSmoothed:
    def test_zero_residuals_upper(self, rng):
        X = rng.uniform(0, 1, (8, 2))
        model = fit_gp(Dataset(X=X, y=np.full(8, 1.0)),
                       random_kernel(rng, 2), ORD)
        assert psi_smoothed_from_residuals(virtual_loo(model).std_resid,
                                           0.95, SmoothingParams(0.01)) == 1.0

    def test_midramp_point_contributes_half(self):
        # One residual exactly delta/2 short of the quantile.
        delta = 0.01
        q = normal_quantile(0.95)
        resid = np.array([q - delta / 2.0])
        psi = psi_smoothed_from_residuals(resid, 0.95,
                                          SmoothingParams(delta))
        assert psi == pytest.approx(0.5, rel=1e-12)

    def test_converges_to_step_as_delta_shrinks(self, rng):
        ds = random_dataset(rng, n=12, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        z = virtual_loo(model).std_resid
        raw = psi_from_residuals(z, 0.95)
        diffs = []
        for delta in (1e-2, 1e-4, 1e-6):
            smoothed = psi_smoothed_from_residuals(z, 0.95,
                                                   SmoothingParams(delta))
            diffs.append(abs(smoothed - raw))
        assert diffs[-1] <= 1e-9
        assert diffs[0] >= diffs[-1]

    def test_delta_too_large_rejected(self, rng):
        ds = random_dataset(rng, n=8, d=1)
        model = fit_gp(ds, random_kernel(rng, 1), ORD)
        # q_0.6 ~ 0.253: delta = 0.3 exceeds it.
        z = virtual_loo(model).std_resid
        with pytest.raises(InvalidParameterError):
            psi_smoothed_from_residuals(z, 0.6, SmoothingParams(0.3))
        with pytest.raises(InvalidParameterError):
            psi_smoothed_from_residuals(z, 0.4, SmoothingParams(0.3))

    def test_lower_ramp_used_below_half(self):
        # h^- equals 1 at exactly the threshold and ramps just below it.
        delta = 0.05
        q = normal_quantile(0.3)
        resid = np.array([q + delta / 2.0])   # argument q - z = -delta/2
        psi = psi_smoothed_from_residuals(resid, 0.3,
                                          SmoothingParams(delta))
        assert psi == pytest.approx(0.5, rel=1e-12)

    def test_continuity_in_sigma2(self, rng):
        ds = random_dataset(rng, n=20, d=2)
        spec = random_kernel(rng, 2, nugget=0.05)
        params = SmoothingParams(0.01)
        base = psi_smoothed_from_residuals(
            virtual_loo(fit_gp(ds, spec, ORD)).std_resid, 0.95, params)
        bumped = psi_smoothed_from_residuals(virtual_loo(
            fit_gp(ds, spec.with_(sigma2=spec.sigma2 * (1 + 1e-8)), ORD)
        ).std_resid, 0.95, params)
        assert abs(bumped - base) <= 1e-4


class TestLooCoverage:
    def test_zero_residuals_full_coverage(self, rng):
        X = rng.uniform(0, 1, (8, 2))
        model = fit_gp(Dataset(X=X, y=np.full(8, -2.0)),
                       random_kernel(rng, 2), ORD)
        for alpha in (0.01, 0.1, 0.5, 0.9):
            assert loo_coverage(model, alpha) == 1.0

    def test_hand_counted_case(self):
        resid = np.array([0.0, 0.0, 3.0, -3.0])
        hi = psi_from_residuals(resid, 0.95)
        lo = psi_from_residuals(resid, 0.05)
        assert hi - lo == pytest.approx(0.5)

    def test_equals_interval_count(self, rng):
        # psi difference equals directly counting y inside the LOO interval.
        for k in range(50):
            local = np.random.default_rng(500 + k)
            ds = random_dataset(local, n=int(local.integers(6, 25)), d=2)
            model = fit_gp(ds, random_kernel(local, 2), ORD)
            alpha = float(local.uniform(0.02, 0.5))
            diag = virtual_loo(model)
            q = normal_quantile(1 - alpha / 2)
            sd = np.sqrt(diag.loo_var)
            inside = (ds.y > diag.loo_mean - q * sd) \
                & (ds.y <= diag.loo_mean + q * sd)
            assert loo_coverage(model, alpha) == pytest.approx(
                float(np.mean(inside)), abs=1e-12)

    def test_nonincreasing_in_alpha(self, rng):
        ds = random_dataset(rng, n=16, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        alphas = [0.01, 0.05, 0.1, 0.3, 0.6, 0.9]
        cov = [loo_coverage(model, a) for a in alphas]
        assert all(c2 <= c1 for c1, c2 in zip(cov, cov[1:]))
        assert all(0.0 <= c <= 1.0 for c in cov)


class TestSigmaScanBasis:
    def test_matches_dense_kbar_route(self, rng):
        for nugget in (0.0, 0.05):
            ds = random_dataset(rng, n=18, d=2)
            theta = rng.uniform(0.3, 1.0, 2)
            F = build_regression_matrix(ds.X, ORD)
            basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN32,
                                   theta, nugget)
            for s2 in (0.2, 1.0, 5.0):
                spec = KernelSpec(KernelFamily.MATERN32, s2, theta,
                                  nugget=nugget)
                model = fit_gp(ds, spec, ORD)
                dense = virtual_loo(model).std_resid
                np.testing.assert_allclose(basis.std_residuals(s2), dense,
                                           rtol=1e-8, atol=1e-10)

    def test_sigma_bracket_exists_for_all_theta(self, rng):
        # With a positive nugget, scanning sigma2 over the wide log grid
        # brackets psi_delta = a for any length-scales (existence result).
        params = SmoothingParams(0.01)
        for k in range(10):
            local = np.random.default_rng(900 + k)
            ds = random_dataset(local, n=25, d=2)
            theta = local.uniform(0.05, 5.0, 2)
            F = build_regression_matrix(ds.X, ORD)
            basis = SigmaScanBasis(ds.X, ds.y, F, KernelFamily.MATERN32,
                                   theta, 0.05)
            grid = np.var(ds.y) * np.logspace(-8, 8, 200)
            vals = np.array([psi_smoothed_from_residuals(
                basis.std_residuals(s), 0.95, params) for s in grid]) - 0.95
            assert np.any(vals[:-1] * vals[1:] <= 0.0)
