"""Standard-normal helpers shared across the package.

The inverse CDF q_a = Phi^{-1}(a) comes from the standard library, so a
process that calibrates or predicts never loads ``scipy.special``.
Wichura's AS 241 (``statistics.NormalDist.inv_cdf``; Appl. Statist. 37,
1988) solves the lower tail p = min(a, 1 - a), and one Newton step on
Phi(x) = p, with Phi from ``math.erfc``, refines it to within 3 ulp of
the exact quantile for a in [1e-300, 1 - 1e-16].  The upper tail is the
negated lower one, so q_a = -q_{1-a} exactly wherever 1 - a is exact.
"""

import math
from statistics import NormalDist

import numpy as np

from .exceptions import InvalidParameterError

__all__ = ["check_alpha", "check_level", "normal_quantile", "normal_cdf"]

_STANDARD_NORMAL = NormalDist()
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Beyond |x| = 37 (p below about 1e-300) exp(x^2 / 2) nears overflow, and
# AS 241 alone is already as accurate as the Newton step would make it.
_NEWTON_LIMIT = 37.0


def check_alpha(alpha: float) -> None:
    """Reject a miscoverage level alpha outside (0, 1), where no central
    (1 - alpha) interval exists."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError("alpha must lie in (0, 1)")


def check_level(a: float) -> None:
    """Reject a quantile level a outside (0, 1) or equal to 1/2, where no
    one-sided interval bound exists."""
    if not 0.0 < a < 1.0 or a == 0.5:
        raise InvalidParameterError("a must lie in (0,1) and differ from 1/2")


def _lower_quantile(p: float) -> float:
    """Phi^{-1}(p) for 0 < p <= 1/2: AS 241, then one Newton step."""
    x = _STANDARD_NORMAL.inv_cdf(p)
    if abs(x) <= _NEWTON_LIMIT:
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        x -= (cdf - p) * _SQRT_2PI * math.exp(0.5 * x * x)
    return x


def _quantile(a: float) -> float:
    # 1 - a is exact for a >= 1/2 (Sterbenz), so the tails mirror exactly.
    return _lower_quantile(a) if a <= 0.5 else -_lower_quantile(1.0 - a)


def normal_quantile(a):
    """a-quantile of the standard normal distribution, q_a = Phi^{-1}(a).

    Accepts scalars or arrays; a must lie strictly inside (0, 1).
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0) or np.any(a >= 1.0):
        raise InvalidParameterError(
            "quantile level must lie strictly inside (0, 1)")
    if a.ndim == 0:
        return _quantile(float(a))
    return np.vectorize(_quantile, otypes=[float])(a)


def normal_cdf(x):
    """Standard normal CDF Phi(x), vectorized.

    Only the copula designs of ``bench.sample_design`` call it, so
    ``scipy.special`` loads here rather than with the package.
    """
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    p = ndtr(x)
    return float(p) if p.ndim == 0 else p
