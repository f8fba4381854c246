"""Standard-normal helpers shared across the package.

The inverse CDF is delegated to ``scipy.special.ndtri`` (Wichura's AS 241
algorithm), which is accurate to full double precision -- far inside the
1e-9 absolute accuracy every quantile computation here requires.
"""

import numpy as np
from scipy import special

from .exceptions import InvalidParameterError

__all__ = ["check_alpha", "check_level", "normal_quantile", "normal_cdf"]


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


def normal_quantile(a):
    """a-quantile of the standard normal distribution, q_a = Phi^{-1}(a).

    Accepts scalars or arrays; a must lie strictly inside (0, 1).
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0) or np.any(a >= 1.0):
        raise InvalidParameterError(
            "quantile level must lie strictly inside (0, 1)")
    q = special.ndtri(a)
    return float(q) if q.ndim == 0 else q


def normal_cdf(x):
    """Standard normal CDF Phi(x), vectorized."""
    x = np.asarray(x, dtype=float)
    p = special.ndtr(x)
    return float(p) if p.ndim == 0 else p
