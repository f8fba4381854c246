"""Trend bases, covariance assembly, GLS, prediction, Kbar, projections."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg

from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
from gpcal.exceptions import (
    GpcalError,
    HypothesisH1Error,
    HypothesisH2Error,
    IllConditionedError,
    InvalidParameterError,
)
from gpcal.gp import (
    HypothesisReport,
    ResidualSpace,
    build_regression_matrix,
    check_hypotheses,
    compute_kbar,
    factor_covariance,
    fit_gp,
    model_from_dict,
    model_to_dict,
    predict,
    prediction_interval,
    solve_gls,
)
from gpcal.kernels import cross_covariance, gram_matrix
from gpcal.loo import SigmaScanBasis, loo_coverage
from gpcal.stats import normal_quantile

from conftest import dense_kbar, dense_predict, random_dataset, \
    random_kernel, residual_basis

ORD = TrendSpec.from_string("ordinary")
UNI = TrendSpec.from_string("universal")
SIM = TrendSpec.from_string("simple")


class TestRegressionMatrix:
    def test_ordinary_is_all_ones(self, rng):
        X = rng.uniform(0, 1, (7, 3))
        F = build_regression_matrix(X, ORD)
        np.testing.assert_array_equal(F, np.ones((7, 1)))

    def test_universal_is_constant_plus_coordinates(self):
        # Basis evaluation at a point: constant then the coordinates.  The
        # training-matrix builder additionally demands n >= p, so a single
        # row goes through the trend basis directly.
        row = UNI.basis(np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(row, np.array([[1.0, 2.0, 3.0]]))
        X = np.column_stack([np.linspace(0, 1, 6), np.linspace(2, 3, 6) ** 2])
        F = build_regression_matrix(X, UNI)
        np.testing.assert_array_equal(F[:, 0], np.ones(6))
        np.testing.assert_array_equal(F[:, 1:], X)

    def test_collinear_design_raises_h1(self, rng):
        x = rng.uniform(0, 1, 10)
        X = np.column_stack([x, x])    # two identical columns
        with pytest.raises(HypothesisH1Error):
            build_regression_matrix(X, UNI)

    def test_too_few_rows_raises_h1(self):
        with pytest.raises(HypothesisH1Error):
            build_regression_matrix(np.array([[1.0, 2.0]]), UNI)


def _solved(X, spec):
    """(K, L, jitter_used) of the model fit_gp solves at spec on design X,
    with zero responses and the simple trend."""
    X = np.atleast_2d(X)
    model = fit_gp(Dataset(X, np.zeros(X.shape[0])), spec, SIM)
    return model.K, model.gls.L, model.jitter_used


class TestTrendSpec:
    @pytest.mark.parametrize("name", [5, None, b"ordinary", ["simple"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(InvalidParameterError, match="must be a name"):
            TrendSpec.from_string(name)


class TestBuildCovariance:
    """K = Gram + nugget I, its duplicated-row check and its jitter, as
    fit_gp assembles them."""

    def test_single_point_with_nugget(self):
        spec = KernelSpec(KernelFamily.MATERN32, 1.0, np.array([1.0]),
                          nugget=0.5)
        K, L, jitter = _solved(np.array([[0.3]]), spec)
        np.testing.assert_allclose(K, [[1.5]])
        assert jitter == 0.0

    def test_matches_entrywise_kernel(self, rng):
        X = rng.uniform(0, 1, (3, 2))
        spec = random_kernel(rng, 2, nugget=0.0)
        from conftest import dense_gram
        K, _, _ = _solved(X, spec)
        np.testing.assert_allclose(K, dense_gram(X, spec), rtol=1e-12)

    def test_duplicate_rows_no_nugget_rejected(self):
        X = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.6]])
        spec = KernelSpec(KernelFamily.MATERN52, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(IllConditionedError):
            _solved(X, spec)

    def test_jitter_rescues_near_singular(self, rng):
        # Two nearly identical points with a smooth kernel: plain Cholesky
        # fails, the escalating ridge recovers it.
        X = np.array([[0.0], [1e-9], [0.5]])
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.0,
                          np.array([1.0]))
        K, L, jitter = _solved(X, spec)
        assert jitter > 0.0
        np.testing.assert_allclose(L @ L.T, K, rtol=1e-10, atol=1e-12)


class TestJitterEscalation:
    """factor_covariance past its first ridge: a symmetric matrix whose
    smallest eigenvalue is -5e-9 sigma2 fails at the ridges 1e-10 and
    1e-9 sigma2 and factors at 1e-8 sigma2; at -1e-3 sigma2 no ridge up to
    1e-6 sigma2 helps."""

    @staticmethod
    def _with_smallest(eig, sigma2):
        Q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))[0]
        A = (Q * (sigma2 * np.array([2.0, 1.0, 0.5, 0.3, 0.1, eig]))) @ Q.T
        return 0.5 * (A + A.T)

    @pytest.mark.parametrize("sigma2", [1.0, 3.7])
    def test_third_ridge_factors(self, sigma2):
        A = self._with_smallest(-5e-9, sigma2)
        K, L, jitter = factor_covariance(A, 0.0, sigma2)
        assert jitter == pytest.approx(1e-8 * sigma2, rel=1e-12)
        np.testing.assert_array_equal(K, A + jitter * np.eye(6))
        np.testing.assert_allclose(L @ L.T, K, rtol=0.0, atol=1e-14 * sigma2)

    @pytest.mark.parametrize("sigma2", [1.0, 3.7])
    def test_beyond_largest_ridge_raises(self, sigma2):
        with pytest.raises(IllConditionedError, match="maximum jitter"):
            factor_covariance(self._with_smallest(-1e-3, sigma2), 0.0,
                              sigma2)


class TestFitBeta:
    def test_identity_covariance_ordinary_is_mean(self, rng):
        n = 9
        y = rng.standard_normal(n)
        F = np.ones((n, 1))
        L = np.eye(n)
        beta = solve_gls(F, L, y).beta
        assert beta[0] == pytest.approx(y.mean(), rel=1e-12)

    def test_identity_covariance_universal_is_ols(self, rng):
        n, d = 12, 2
        X = rng.uniform(0, 1, (n, d))
        y = rng.standard_normal(n)
        F = UNI.basis(X)
        beta = solve_gls(F, np.eye(n), y).beta
        expected, *_ = np.linalg.lstsq(F, y, rcond=None)
        np.testing.assert_allclose(beta, expected, rtol=1e-10)

    def test_matches_dense_formula(self, rng):
        n, p = 8, 2
        A = rng.standard_normal((n, n))
        K = A @ A.T + n * np.eye(n)
        L = np.linalg.cholesky(K)
        F = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        Kinv = np.linalg.inv(K)
        expected = np.linalg.inv(F.T @ Kinv @ F) @ F.T @ Kinv @ y
        np.testing.assert_allclose(solve_gls(F, L, y).beta, expected,
                                   rtol=1e-10)

    def test_normal_equation_residual(self, rng):
        ds = random_dataset(rng, n=14, d=2)
        spec = random_kernel(rng, 2)
        model = fit_gp(ds, spec, UNI)
        Kinv_F = np.linalg.solve(model.K, model.F)
        lhs = model.F.T @ Kinv_F @ model.beta_hat
        rhs = model.F.T @ np.linalg.solve(model.K, ds.y)
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_fitted_model_is_immutable(self, rng):
        # What derives from the solved state is kept by the state itself,
        # so nothing writes to a model once it is built.
        model = fit_gp(random_dataset(rng, n=10, d=2), random_kernel(rng, 2),
                       ORD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.kernel = random_kernel(rng, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.gls = None


class TestPredict:
    def test_interpolates_training_points_without_nugget(self, rng):
        ds = random_dataset(rng, n=10, d=2)
        spec = random_kernel(rng, 2, nugget=0.0)
        model = fit_gp(ds, spec, ORD)
        for i in range(ds.n):
            mean, var = predict(model, ds.X[i])
            assert abs(mean - ds.y[i]) <= 1e-6 * max(ds.y.std(), 1.0)
            assert var <= 1e-6 * spec.sigma2

    def test_far_field_reverts_to_trend(self, rng):
        ds = random_dataset(rng, n=10, d=2)
        spec = random_kernel(rng, 2, family=KernelFamily.MATERN32,
                             nugget=0.2)
        model = fit_gp(ds, spec, ORD)
        x_far = ds.X[0] + 1e6 * spec.theta.max()
        mean, var = predict(model, x_far)
        trend_mean = model.beta_hat[0]
        assert mean == pytest.approx(trend_mean, rel=1e-8, abs=1e-10)
        # limit variance: sigma2 + nugget + trend term 1' (F'K^{-1}F)^{-1} 1
        G = model.F.T @ np.linalg.solve(model.K, model.F)
        trend_var = float(np.linalg.inv(G)[0, 0])
        assert var == pytest.approx(spec.sigma2 + spec.nugget + trend_var,
                                    rel=1e-6)

    def test_matches_dense_transcription(self, rng):
        for trend in (SIM, ORD, UNI):
            ds = random_dataset(rng, n=5, d=1)
            spec = random_kernel(rng, 1)
            model = fit_gp(ds, spec, trend)
            x_new = np.array([0.37])
            mean, var = predict(model, x_new)
            m_o, v_o = dense_predict(ds.X, ds.y, model.F, spec, trend, x_new)
            assert mean == pytest.approx(m_o, rel=1e-8, abs=1e-10)
            assert var == pytest.approx(v_o, rel=1e-8, abs=1e-12)

    def test_variance_dominates_simple_kriging(self, rng):
        # The trend-uncertainty quadratic form is non-negative.
        ds = random_dataset(rng, n=12, d=2)
        spec = random_kernel(rng, 2)
        m_ord = fit_gp(ds, spec, ORD)
        m_sim = fit_gp(ds, spec, SIM)
        for _ in range(20):
            x = rng.uniform(-0.5, 1.5, 2)
            _, v_ord = predict(m_ord, x)
            _, v_sim = predict(m_sim, x)
            assert v_ord >= v_sim - 1e-12

    def test_batch_equals_pointwise(self, rng):
        ds = random_dataset(rng, n=9, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        Z = rng.uniform(0, 1, (5, 2))
        means, variances = predict(model, Z)
        for i in range(5):
            m, v = predict(model, Z[i])
            assert m == pytest.approx(means[i], rel=1e-13)
            assert v == pytest.approx(variances[i], rel=1e-13)


class TestPredictionInterval:
    def test_standard_normal_quantile(self, rng):
        ds = random_dataset(rng, n=8, d=1)
        model = fit_gp(ds, random_kernel(rng, 1), ORD)
        x = np.array([0.4])
        mean, var = predict(model, x)
        lo, up = prediction_interval(model, x, 0.05)
        q = 1.959963984540054  # Phi^{-1}(0.975)
        assert up - mean == pytest.approx(q * np.sqrt(var), rel=1e-9)
        assert mean - lo == pytest.approx(q * np.sqrt(var), rel=1e-9)

    def test_width_symmetric(self, rng):
        ds = random_dataset(rng, n=8, d=1)
        model = fit_gp(ds, random_kernel(rng, 1), ORD)
        for alpha in (0.01, 0.1, 0.5, 0.9):
            lo, up = prediction_interval(model, np.array([0.2]), alpha)
            mean, var = predict(model, np.array([0.2]))
            expected = 2.0 * normal_quantile(1 - alpha / 2) * np.sqrt(var)
            assert up - lo == pytest.approx(expected, rel=1e-9)
            assert up >= lo

    def test_alpha_too_small_for_a_quantile_is_a_gpcal_error(self, rng):
        # 1 - alpha/2 rounds to 1, whose normal quantile is infinite.
        ds = random_dataset(rng, n=8, d=1)
        model = fit_gp(ds, random_kernel(rng, 1), ORD)
        with pytest.raises(GpcalError, match="quantile level"):
            prediction_interval(model, np.array([0.2]), 1e-300)
        with pytest.raises(GpcalError, match="quantile level"):
            loo_coverage(model, 1e-300)


class TestKbar:
    def test_simple_kriging_kbar_is_kinv(self, rng):
        ds = random_dataset(rng, n=8, d=2)
        spec = random_kernel(rng, 2)
        model = fit_gp(ds, spec, SIM)
        kbar = compute_kbar(model)
        np.testing.assert_allclose(kbar, np.linalg.inv(model.K),
                                   rtol=1e-7, atol=1e-9)

    def test_kernel_contains_trend_space(self, rng):
        # Kbar F = 0.
        ds = random_dataset(rng, n=6, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), UNI)
        kbar = compute_kbar(model)
        assert np.linalg.norm(kbar @ model.F) <= \
            1e-8 * np.linalg.norm(kbar) * np.linalg.norm(model.F)

    def test_residual_basis_identity(self, rng):
        # Kbar = W (W' K W)^{-1} W'.
        ds = random_dataset(rng, n=10, d=2)
        model = fit_gp(ds, random_kernel(rng, 2), ORD)
        kbar = compute_kbar(model)
        W = residual_basis(model.F)
        alt = W @ np.linalg.inv(W.T @ model.K @ W) @ W.T
        np.testing.assert_allclose(kbar, alt,
                                   atol=1e-8 * np.linalg.norm(kbar))

    def test_matches_dense_oracle(self, rng):
        for trend in (ORD, UNI):
            ds = random_dataset(rng, n=12, d=2)
            spec = random_kernel(rng, 2)
            model = fit_gp(ds, spec, trend)
            kbar = compute_kbar(model)
            oracle = dense_kbar(ds.X, ds.y, model.F, spec)
            np.testing.assert_allclose(
                kbar, oracle, atol=1e-8 * np.abs(oracle).max())

    def test_positive_diagonal_property(self, rng):
        # 50 random ordinary-kriging datasets: min_ii Kbar > 0.
        for k in range(50):
            local = np.random.default_rng(1000 + k)
            ds = random_dataset(local, n=int(local.integers(5, 20)), d=2)
            model = fit_gp(ds, random_kernel(local, 2), ORD)
            kbar = compute_kbar(model)
            assert np.diag(kbar).min() > 0.0


class TestKbarYDiag:
    """(Kbar y, diag Kbar) without forming Kbar (``GlsState.kbar_y_diag``),
    against ``compute_kbar`` for every trend and every kind of covariance
    the calibration meets."""

    @staticmethod
    def _model(case, trend):
        local = np.random.default_rng(3)
        X = local.uniform(0.0, 1.0, (40, 2))
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2 \
            + 0.05 * local.standard_normal(40)
        family, theta, nugget = {
            "zero_nugget": (KernelFamily.MATERN52, 0.3, 0.0),
            # R only factors with jitter here (cond(R + j I) ~ 1e10).
            "zero_nugget_jitter": (KernelFamily.SQUARED_EXPONENTIAL, 1.6,
                                   0.0),
            "nugget": (KernelFamily.MATERN52, 0.3, 1e-3),
        }[case]
        model = fit_gp(Dataset(X=X, y=y),
                       KernelSpec(family, 1.0, np.full(2, theta), nugget),
                       trend)
        assert (model.jitter_used > 0.0) == (case == "zero_nugget_jitter")
        return model

    @pytest.mark.parametrize("trend", [SIM, ORD, UNI])
    @pytest.mark.parametrize("case", ["zero_nugget", "zero_nugget_jitter",
                                      "nugget"])
    def test_matches_compute_kbar(self, trend, case):
        model = self._model(case, trend)
        kbar = compute_kbar(model)
        ky, diag = model.gls.kbar_y_diag
        want_ky, want_diag = kbar @ model.dataset.y, np.diag(kbar)
        assert np.abs(ky - want_ky).max() <= \
            1e-12 * np.abs(want_ky).max()
        assert np.abs(diag - want_diag).max() <= 1e-12 * want_diag.max()

    @staticmethod
    def _unit_vector_in_trend_span():
        # Universal trend: the first input column is e_1, so e_1 lies in
        # Im F and Kbar_11 = 0.
        X = np.column_stack([np.eye(8)[0], np.linspace(0.0, 1.0, 8)])
        return Dataset(X=X, y=np.cos(np.arange(8.0)))

    @staticmethod
    def _no_residual_space():
        # Universal trend with p = n = 3: Kbar = 0.
        return Dataset(X=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                       y=np.array([1.0, 2.0, 0.5]))

    @pytest.mark.parametrize("nugget", [0.0, 1e-2])
    @pytest.mark.parametrize("dataset", ["unit_vector", "no_residual"])
    def test_raises_h2_where_kbar_does(self, dataset, nugget):
        ds = self._unit_vector_in_trend_span() if dataset == "unit_vector" \
            else self._no_residual_space()
        model = fit_gp(ds, KernelSpec(KernelFamily.MATERN52, 1.0,
                                      np.full(2, 0.5), nugget), UNI)
        with pytest.raises(HypothesisH2Error):
            model.gls.kbar
        with pytest.raises(HypothesisH2Error):
            model.gls.kbar_y_diag


class TestLapackRoute:
    """The GLS state and prediction call LAPACK directly; they equal the
    scipy.linalg front-end route they replace bit for bit."""

    @staticmethod
    def _scipy_gls(F, L, y):
        """(B, chol_G, beta, w, Kbar y, quad) by the scipy.linalg route."""
        a = scipy.linalg.solve_triangular(L, y, lower=True)
        quad = float(a @ a)
        B, chol_G, beta, w = F, None, np.zeros(0), a
        if F.shape[1] > 0:
            B = scipy.linalg.solve_triangular(L, F, lower=True)
            c = B.T @ a
            chol_G = scipy.linalg.cholesky(B.T @ B, lower=True)
            beta = scipy.linalg.cho_solve((chol_G, True), c)
            quad -= float(c @ beta)
            w = a - B @ beta
        kbar_y = scipy.linalg.solve_triangular(L, w, lower=True, trans="T")
        return B, chol_G, beta, w, kbar_y, quad

    @pytest.mark.parametrize("trend", [SIM, ORD, UNI],
                             ids=["p0", "p1", "p3"])
    def test_bit_identical_to_scipy(self, rng, trend):
        ds = random_dataset(rng, n=30, d=2)
        model = fit_gp(ds, random_kernel(rng, 2, nugget=1e-3), trend)
        gls = model.gls
        B, chol_G, beta, w, kbar_y, quad = self._scipy_gls(
            model.F, gls.L, ds.y)
        for got, want in ((gls.beta, beta), (gls.w, w),
                          (gls.kbar_y, kbar_y)):
            np.testing.assert_array_equal(got, want)
        assert gls.quad == quad
        X_new = rng.uniform(0.0, 1.0, (7, 2))
        mean, var = predict(model, X_new)
        Kx = scipy.linalg.solve_triangular(
            gls.L, cross_covariance(ds.X, X_new, model.kernel), lower=True)
        want_mean = trend.basis(X_new) @ beta + Kx.T @ w
        want_var = model.kernel.sigma2 + model.kernel.nugget \
            - np.einsum("ij,ij->j", Kx, Kx)
        if chol_G is not None:
            np.testing.assert_array_equal(gls.B, B)
            np.testing.assert_array_equal(gls.chol_G, chol_G)
            C = scipy.linalg.solve_triangular(chol_G, B.T, lower=True)
            np.testing.assert_array_equal(
                gls._trend_factor,
                scipy.linalg.solve_triangular(gls.L, C.T, lower=True,
                                              trans="T"))
            U = trend.basis(X_new).T - B.T @ Kx
            want_var = want_var + np.einsum(
                "ij,ij->j", U, scipy.linalg.cho_solve((chol_G, True), U))
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(var, np.maximum(want_var, 0.0))

    def test_singular_trend_gram_raises_h1(self, rng):
        # A zero trend column makes F' K^{-1} F exactly singular.
        n = 10
        A = rng.standard_normal((n, n))
        L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
        F = np.column_stack([np.ones(n), np.zeros(n)])
        with pytest.raises(HypothesisH1Error):
            solve_gls(F, L, rng.standard_normal(n))

    def test_singular_factor_raises_ill_conditioned(self, rng):
        # dtrtrs reports a zero on the factor's diagonal (info > 0).
        n = 10
        A = rng.standard_normal((n, n))
        L = np.linalg.cholesky(A @ A.T + n * np.eye(n))
        L[4, 4] = 0.0
        for F in (np.zeros((n, 0)), np.ones((n, 1))):
            with pytest.raises(IllConditionedError):
                solve_gls(F, L, rng.standard_normal(n))

    def test_predict_rejects_non_finite_points(self, rng):
        model = fit_gp(random_dataset(rng, n=10, d=2),
                       random_kernel(rng, 2), ORD)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                predict(model, np.array([0.5, bad]))
        mean, var = predict(model, np.zeros((0, 2)))
        assert mean.shape == var.shape == (0,)


class TestResidualSpace:
    """The Householder residual space against the explicit basis W of
    np.linalg.qr(F, mode="complete"), for trends with p = 0, 1 and
    d + 1, to 1e-10 relative."""

    TOL = 1e-10

    @staticmethod
    def _explicit_w(F):
        n, p = F.shape
        return np.eye(n) if p == 0 \
            else np.linalg.qr(F, mode="complete")[0][:, p:]

    @pytest.mark.parametrize("trend", [SIM, ORD, UNI])
    def test_matches_complete_qr(self, trend):
        for seed in range(5):
            local = np.random.default_rng(700 + seed)
            ds = random_dataset(local, n=40, d=3)
            spec = KernelSpec(KernelFamily.MATERN52, 1.0,
                              local.uniform(0.2, 1.0, 3))
            F = build_regression_matrix(ds.X, trend)
            W = self._explicit_w(F)
            space = ResidualSpace(F)
            R = gram_matrix(ds.X, spec)
            want = W.T @ R @ W
            got = space.project(R)
            assert np.abs(got - want).max() <= self.TOL * np.abs(want).max()
            U = np.linalg.eigh(0.5 * (want + want.T))[1]
            want_V = W @ U
            assert np.abs(space.lift(U) - want_V).max() <= \
                self.TOL * np.abs(want_V).max()
            np.testing.assert_allclose(residual_basis(F) @ U, want_V,
                                       rtol=0.0, atol=self.TOL)
            # Standardized residuals from the explicit basis.
            nugget = 1e-3
            lam, U = np.linalg.eigh(0.5 * (want + want.T))
            V = W @ U
            basis = SigmaScanBasis(ds.X, ds.y, F, spec.family, spec.theta,
                                   nugget)
            for s2 in (0.05, 1.0, 30.0):
                scale = s2 * np.maximum(lam, lam.max() * 1e-14) + nugget
                z = (V @ ((V.T @ ds.y) / scale)) \
                    / np.sqrt((V * V) @ (1.0 / scale))
                assert np.abs(basis.std_residuals(s2) - z).max() <= \
                    self.TOL * np.abs(z).max()

    def test_rank_deficient_raises_h1(self, rng):
        x = rng.uniform(0.0, 1.0, 10)
        F = np.column_stack([np.ones(10), x, 2.0 * x])
        with pytest.raises(HypothesisH1Error):
            ResidualSpace(F)

    @pytest.mark.parametrize("p", [3, 4])
    def test_no_residual_space_raises_h2(self, rng, p):
        F = rng.standard_normal((3, p))
        with pytest.raises(HypothesisH2Error):
            ResidualSpace(F)


class TestProjectionBasis:
    def test_ordinary_gives_centering_projector(self):
        F = np.ones((6, 1))
        W = residual_basis(F)
        expected = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
        np.testing.assert_allclose(W @ W.T, expected, atol=1e-12)

    def test_orthogonality_invariants(self, rng):
        for _ in range(10):
            n, p = 12, 3
            F = rng.standard_normal((n, p))
            W = residual_basis(F)
            np.testing.assert_allclose(W.T @ W, np.eye(n - p), atol=1e-10)
            assert np.linalg.norm(F.T @ W) <= 1e-10
            direct = np.eye(n) - F @ np.linalg.inv(F.T @ F) @ F.T
            np.testing.assert_allclose(W @ W.T, direct, atol=1e-10)

    def test_full_basis_rejected(self, rng):
        F = rng.standard_normal((3, 3))
        with pytest.raises(HypothesisH2Error):
            residual_basis(F)


class TestCheckHypotheses:
    def test_ordinary_trend_h1_h2_true(self, rng):
        ds = random_dataset(rng, n=10, d=2)
        spec = random_kernel(rng, 2)
        report = check_hypotheses(ds, ORD, spec, 0.95)
        assert report.h1 and report.h2

    def test_centered_residuals_h3(self):
        rng = np.random.default_rng(3)
        n = 100
        X = rng.uniform(0, 1, (n, 2))
        y = rng.standard_normal(n)   # centered, no trend
        ds = Dataset(X=X, y=y)
        spec = KernelSpec(KernelFamily.MATERN32, 1.0, np.ones(2),
                          nugget=1e-4)
        report = check_hypotheses(ds, ORD, spec, 0.95)
        # roughly half the projected residuals sit below ~0
        assert abs(report.k_eps - n / 2) < 20
        assert report.h3

    def test_all_positive_residuals_gives_zero_count(self):
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        ds = Dataset(X=X, y=y)
        spec = KernelSpec(KernelFamily.MATERN32, 1.0, np.ones(1),
                          nugget=1e-12)
        report = check_hypotheses(ds, ORD, spec, 0.95)
        # sigma_eps ~ 0, so k_eps counts (Pi y)_i <= ~0: the negatives.
        assert report.k_eps == 4
        assert report.h3

    # One ordinary-kriging design at a = 0.9 and at 1 - a = 0.1, at two
    # nuggets: (nugget, a, k_eps, h3).  With the nugget 1.0 the count
    # sits on the wrong side of n a at both levels.
    @pytest.mark.parametrize("nugget, a, k_eps, h3", [
        (0.09, 0.9, 22, True), (0.09, 0.1, 6, True),
        (1.0, 0.9, 30, False), (1.0, 0.1, 1, False)])
    def test_pinned_reports_on_both_sides(self, nugget, a, k_eps, h3):
        local = np.random.default_rng(0)
        n = 30
        X = local.uniform(0, 1, (n, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] + 0.3 * local.standard_normal(n)
        spec = KernelSpec(KernelFamily.MATERN52, 1.0, np.array([0.5, 0.5]),
                          nugget=nugget)
        report = check_hypotheses(Dataset(X=X, y=y), ORD, spec, a)
        assert report == HypothesisReport(h1=True, h2=True, h3=h3,
                                          k_eps=k_eps, n_times_a=n * a)
        # For the ordinary trend Pi = I - 11'/n, so Pi_ii = 1 - 1/n.
        ratios = (y - y.mean()) / np.sqrt(1.0 - 1.0 / n)
        assert k_eps == int(np.sum(
            ratios <= np.sqrt(nugget) * normal_quantile(a)))

    def test_collinear_universal_trend_fails_h1(self, rng):
        x = rng.uniform(0, 1, 10)
        ds = Dataset(X=np.column_stack([x, x]), y=np.arange(10.0))
        spec = KernelSpec(KernelFamily.MATERN52, 1.0, np.ones(2))
        assert check_hypotheses(ds, UNI, spec, 0.9) == HypothesisReport(
            h1=False, h2=False, h3=False, k_eps=0, n_times_a=10 * 0.9)

    def test_no_residual_space_fails_h2(self, rng):
        # Universal trend on n = d + 1 points: p = n.
        ds = Dataset(X=rng.uniform(0, 1, (3, 2)), y=np.arange(3.0))
        spec = KernelSpec(KernelFamily.MATERN52, 1.0, np.ones(2))
        assert check_hypotheses(ds, UNI, spec, 0.9) == HypothesisReport(
            h1=True, h2=False, h3=False, k_eps=0, n_times_a=3 * 0.9)


class TestPersistence:
    def test_round_trip_is_exact(self, rng):
        ds = random_dataset(rng, n=9, d=2)
        spec = random_kernel(rng, 2)
        model = fit_gp(ds, spec, UNI)
        doc = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(doc)
        np.testing.assert_array_equal(back.dataset.X, model.dataset.X)
        np.testing.assert_array_equal(back.dataset.y, model.dataset.y)
        np.testing.assert_array_equal(back.kernel.theta, model.kernel.theta)
        assert back.kernel.sigma2 == model.kernel.sigma2
        assert back.kernel.nugget == model.kernel.nugget
        np.testing.assert_allclose(back.beta_hat, model.beta_hat,
                                   rtol=1e-14)
