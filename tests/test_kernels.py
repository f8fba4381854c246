"""Kernel closed forms, the radial construction, and structural properties."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcal.exceptions import InvalidParameterError, ShapeError
from gpcal.kernels import (
    KernelFamily,
    KernelSpec,
    correlation,
    cross_covariance,
    gram_matrix,
    kernel_1d,
    kernel_radial,
    pairwise_sq_diffs,
    scaled_distance_matrix,
)

from conftest import ALL_FAMILIES


class TestKernel1d:
    def test_zero_lag_returns_amplitude(self):
        for family in ALL_FAMILIES:
            assert kernel_1d(family, 1.0, 1.0, 0.0) == 1.0
            assert kernel_1d(family, 2.5, 0.3, 0.0) == 2.5

    def test_exponential_closed_form(self):
        # sigma2 * exp(-h/theta) at h = theta = sigma2 = 1
        assert kernel_1d(KernelFamily.EXPONENTIAL, 1.0, 1.0, 1.0) == \
            pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_matern32_closed_form(self):
        expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
        assert kernel_1d(KernelFamily.MATERN32, 1.0, 1.0, 1.0) == \
            pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.4833577, abs=5e-8)

    def test_matern52_closed_form(self):
        s5 = math.sqrt(5.0)
        expected = (1.0 + s5 + 5.0 / 3.0) * math.exp(-s5)
        assert kernel_1d(KernelFamily.MATERN52, 1.0, 1.0, 1.0) == \
            pytest.approx(expected, rel=1e-12)

    def test_squared_exponential_closed_form(self):
        assert kernel_1d(KernelFamily.SQUARED_EXPONENTIAL, 1.0, 2.0, 1.0) \
            == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-12)

    def test_invalid_theta_rejected(self):
        with pytest.raises(InvalidParameterError):
            kernel_1d(KernelFamily.MATERN32, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            kernel_1d(KernelFamily.MATERN32, 1.0, -2.0, 1.0)

    @given(h=st.floats(0.0, 50.0), theta=st.floats(0.05, 10.0),
           sigma2=st.floats(0.01, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_value_in_unit_interval_scaled(self, h, theta, sigma2):
        # Positive in exact arithmetic; exp underflows to 0.0 for huge
        # scaled lags, so the float assertion is >= 0.
        for family in ALL_FAMILIES:
            v = kernel_1d(family, sigma2, theta, h)
            assert 0.0 <= v <= sigma2
            if h / theta < 10.0:
                assert v > 0.0

    def test_monotone_decay_on_grid(self):
        h = np.linspace(0.0, 10.0, 1000)
        for family in ALL_FAMILIES:
            vals = kernel_1d(family, 1.7, 0.8, h)
            assert np.all(np.diff(vals) <= 1e-15)


class TestKernelRadial:
    def test_same_point_returns_amplitude(self, rng):
        for family in ALL_FAMILIES:
            spec = KernelSpec(family, 1.9, rng.uniform(0.2, 2.0, 3))
            x = rng.standard_normal(3)
            assert kernel_radial(spec, x, x) == pytest.approx(1.9, rel=1e-15)

    def test_hand_computed_scaled_distance(self):
        # theta (1, 2) against points (0,0) and (1,2): scaled distance
        # sqrt(1 + 1) = sqrt(2), value 2 exp(-sqrt(2)).
        spec = KernelSpec(KernelFamily.EXPONENTIAL, 2.0, np.array([1.0, 2.0]))
        got = kernel_radial(spec, np.zeros(2), np.array([1.0, 2.0]))
        assert got == pytest.approx(2.0 * math.exp(-math.sqrt(2.0)),
                                    rel=1e-12)
        assert got == pytest.approx(0.4862335, abs=5e-8)

    def test_agrees_with_direct_formula(self, rng):
        # Independent re-implementation of the radial construction.
        for _ in range(100):
            d = int(rng.integers(1, 5))
            family = ALL_FAMILIES[rng.integers(len(ALL_FAMILIES))]
            spec = KernelSpec(family, float(rng.uniform(0.1, 3.0)),
                              rng.uniform(0.1, 2.0, d))
            x, xp = rng.standard_normal(d), rng.standard_normal(d)
            h = math.sqrt(sum((x[j] - xp[j]) ** 2 / spec.theta[j] ** 2
                              for j in range(d)))
            expected = kernel_1d(family, spec.sigma2, 1.0, h)
            assert kernel_radial(spec, x, xp) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_symmetry(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            spec = KernelSpec(ALL_FAMILIES[rng.integers(4)],
                              float(rng.uniform(0.1, 2.0)),
                              rng.uniform(0.1, 2.0, d))
            x, xp = rng.standard_normal(d), rng.standard_normal(d)
            assert kernel_radial(spec, x, xp) == kernel_radial(spec, xp, x)

    def test_dimension_mismatch(self):
        spec = KernelSpec(KernelFamily.MATERN32, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(ShapeError):
            kernel_radial(spec, np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeError):
            kernel_radial(spec, np.zeros(2), np.zeros(3))

    def test_scaling_invariance(self, rng):
        # Multiplying inputs and length-scales by c leaves values unchanged.
        d = 3
        spec = KernelSpec(KernelFamily.MATERN52, 1.4, rng.uniform(0.2, 1.0, d))
        x, xp = rng.standard_normal(d), rng.standard_normal(d)
        for c in (0.1, 3.0, 250.0):
            scaled = spec.with_(theta=c * spec.theta)
            assert kernel_radial(scaled, c * x, c * xp) == pytest.approx(
                kernel_radial(spec, x, xp), rel=1e-12)


class TestGramMatrix:
    def test_numerically_psd(self, rng):
        for family in ALL_FAMILIES:
            n, d = 50, 3
            X = rng.uniform(0.0, 2.0, (n, d))
            spec = KernelSpec(family, 1.5, rng.uniform(0.2, 1.5, d))
            K = gram_matrix(X, spec)
            w = np.linalg.eigvalsh(K)
            assert w.min() >= -1e-8 * spec.sigma2
            np.testing.assert_allclose(K, K.T, rtol=0, atol=0)

    def test_matches_entrywise_evaluation(self, rng):
        X = rng.uniform(0.0, 1.0, (8, 2))
        spec = KernelSpec(KernelFamily.MATERN32, 0.7,
                          np.array([0.3, 0.9]))
        K = gram_matrix(X, spec)
        for i in range(8):
            for j in range(8):
                assert K[i, j] == pytest.approx(
                    kernel_radial(spec, X[i], X[j]), rel=1e-14)

    def test_cross_covariance_consistency(self, rng):
        X = rng.uniform(0.0, 1.0, (6, 2))
        Z = rng.uniform(0.0, 1.0, (4, 2))
        spec = KernelSpec(KernelFamily.SQUARED_EXPONENTIAL, 1.1,
                          np.array([0.5, 0.4]))
        C = cross_covariance(X, Z, spec)
        assert C.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert C[i, j] == pytest.approx(
                    kernel_radial(spec, X[i], Z[j]), rel=1e-14)

    def test_cross_covariance_accumulated_per_dimension(self, rng):
        # h^2 is summed one input dimension at a time; the result must
        # match the Gram matrix on X itself and the scalar radial kernel.
        X = rng.uniform(0.0, 1.0, (40, 6))
        Z = rng.uniform(0.0, 1.0, (25, 6))
        for family in ALL_FAMILIES:
            spec = KernelSpec(family, 1.3, rng.uniform(0.2, 1.5, 6))
            np.testing.assert_allclose(cross_covariance(X, X, spec),
                                       gram_matrix(X, spec),
                                       rtol=1e-12, atol=1e-12)
            # The cached-tensor path the fit objective uses agrees.
            h = scaled_distance_matrix(pairwise_sq_diffs(X), spec.theta)
            np.testing.assert_allclose(
                gram_matrix(X, spec),
                spec.sigma2 * correlation(family, h), rtol=0, atol=1e-15)
            C = cross_covariance(X, Z, spec)
            oracle = np.array([[kernel_radial(spec, x, z) for z in Z]
                               for x in X])
            np.testing.assert_allclose(C, oracle, rtol=1e-12, atol=1e-12)

    def test_gram_builds_no_pairwise_tensor(self):
        # Without cached squared differences the peak allocation stays
        # below one (n, n, d) tensor of them.
        n, d = 150, 10
        X = np.random.default_rng(3).uniform(size=(n, d))
        spec = KernelSpec(KernelFamily.MATERN52, 1.0, np.full(d, 0.8))
        tracemalloc.start()
        try:
            gram_matrix(X, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * d * 8


def _closed_form(family, u):
    """r(u) written as the closed forms, one temporary per operation."""
    with np.errstate(over="ignore", invalid="ignore"):
        if family is KernelFamily.EXPONENTIAL:
            return np.exp(-u)
        if family is KernelFamily.MATERN32:
            s = math.sqrt(3.0) * u
            return (1.0 + s) * np.exp(-s)
        if family is KernelFamily.MATERN52:
            s = math.sqrt(5.0) * u
            return (1.0 + s + s * s / 3.0) * np.exp(-s)
        return np.exp(-0.5 * u * u)


class TestCorrelation:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_bit_identical_to_closed_form(self, family):
        # Zero, tiny, ordinary and overflowing distances (u * u and
        # sqrt(5) u overflow; the Matern forms give inf * 0 = NaN there).
        u = np.concatenate([
            [0.0, 5e-324, 1e-14, 1e154, 1e200, 1e300, np.inf],
            np.random.default_rng(5).exponential(3.0, 993)]).reshape(40, 25)
        got = correlation(family, u)
        assert got.shape == u.shape
        np.testing.assert_array_equal(got, _closed_form(family, u))
        assert not np.shares_memory(got, u)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_dimensional_input(self, family):
        for u in (0.7, np.float64(0.7), np.array(0.7)):
            got = correlation(family, u)
            assert got.ndim == 0
            assert float(got) == float(_closed_form(family, np.float64(0.7)))
        assert kernel_1d(family, 2.0, 0.5, 0.35) == \
            2.0 * float(_closed_form(family, np.float64(0.35) / 0.5))
        spec = KernelSpec(family, 2.0, np.array([0.5, 1.0]))
        assert kernel_radial(spec, [0.1, 0.2], [0.1, 0.2]) == 2.0


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(KernelFamily.MATERN32, -1.0, np.array([1.0]))
        with pytest.raises(InvalidParameterError):
            KernelSpec(KernelFamily.MATERN32, 1.0, np.array([1.0, -1.0]))
        with pytest.raises(InvalidParameterError):
            KernelSpec(KernelFamily.MATERN32, 1.0, np.array([1.0]),
                       nugget=-0.1)

    def test_json_round_trip(self):
        spec = KernelSpec(KernelFamily.EXPONENTIAL, 2.25,
                          np.array([0.1, 7.5, 3.25]), nugget=0.125)
        back = KernelSpec.from_dict(spec.to_dict())
        assert back.family is spec.family
        assert back.sigma2 == spec.sigma2
        assert back.nugget == spec.nugget
        np.testing.assert_array_equal(back.theta, spec.theta)

    def test_family_aliases(self):
        assert KernelFamily.from_string("exp") is KernelFamily.EXPONENTIAL
        assert KernelFamily.from_string("m32") is KernelFamily.MATERN32
        assert KernelFamily.from_string("m52") is KernelFamily.MATERN52
        assert KernelFamily.from_string("sqexp") is \
            KernelFamily.SQUARED_EXPONENTIAL
        with pytest.raises(InvalidParameterError):
            KernelFamily.from_string("cubic")
