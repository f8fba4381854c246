"""The standard-normal quantile against a 60-digit reference."""

import numpy as np
import pytest

from gpcal.exceptions import InvalidParameterError
from gpcal.stats import normal_quantile

mpmath = pytest.importorskip("mpmath")


def _reference_quantile(a: float):
    """Phi^{-1}(a) at 60 digits: the root of log Phi(x) = log p on the
    lower tail p = min(a, 1 - a), negated for a > 1/2."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        p = min(a, 1 - a)
        log_p = mpmath.log(p)
        start = mpmath.mpf(normal_quantile(float(p)))
        x = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(t)) - log_p,
                            start)
        return x if a <= 0.5 else -x


def _levels():
    lower = np.logspace(-300.0, np.log10(0.5), 301)[:-1]
    upper = 1.0 - np.logspace(-16.0, np.log10(0.5), 151)[:-1]
    return np.concatenate([lower, upper])


def test_within_three_ulp_of_reference():
    worst = 0.0
    for a in _levels():
        exact = _reference_quantile(float(a))
        q = normal_quantile(float(a))
        ulp = np.spacing(abs(float(exact)))
        worst = max(worst, float(abs(mpmath.mpf(q) - exact) / ulp))
    assert worst <= 3.0


@pytest.mark.parametrize("a", [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308])
def test_finite_at_subnormal_levels(a):
    q = normal_quantile(a)
    assert np.isfinite(q) and q < -37.0
    assert q == pytest.approx(float(_reference_quantile(a)), rel=1e-15)


def test_tails_mirror_exactly():
    # 1 - a is exact for every a in [1/2, 1), so q_a = -q_{1-a} holds
    # bit for bit there.
    rng = np.random.default_rng(5)
    for a in np.concatenate([rng.uniform(0.5, 1.0, 200),
                             1.0 - np.logspace(-16.0, -1.0, 50)]):
        b = 1.0 - a
        assert 1.0 - b == a
        assert normal_quantile(a) == -normal_quantile(b)
    assert normal_quantile(0.5) == 0.0


def test_arrays_elementwise():
    a = np.array([[1e-10, 0.025, 0.3], [0.5, 0.975, 1.0 - 1e-12]])
    q = normal_quantile(a)
    assert isinstance(q, np.ndarray) and q.shape == a.shape
    for got, level in zip(q.ravel(), a.ravel()):
        assert got == normal_quantile(float(level))
    assert isinstance(normal_quantile(0.975), float)
    assert normal_quantile(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("a", [0.0, 1.0, -0.1, 1.5, [0.2, 1.0],
                               float("nan"), [0.2, float("nan")]])
def test_rejects_levels_outside_the_open_interval(a):
    with pytest.raises(InvalidParameterError, match="quantile level"):
        normal_quantile(a)

