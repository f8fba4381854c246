"""Exception hierarchy for gpcal.

Numerical and hypothesis failures are kept separate from data/usage errors
so that callers (notably the CLI) can map them onto distinct exit codes.
"""


class GpcalError(Exception):
    """Base class for all gpcal errors."""


class InvalidParameterError(GpcalError, ValueError):
    """A scalar or enum argument is outside its admissible range."""


class ShapeError(GpcalError, ValueError):
    """Array arguments have inconsistent dimensions."""


class UsageError(GpcalError, ValueError):
    """A flag has an invalid value that the flag parser cannot reject,
    such as one whose range depends on another flag."""


class DataError(GpcalError, ValueError):
    """Malformed input data (CSV ingestion, schema mismatches)."""


class HypothesisH1Error(GpcalError):
    """The regression matrix is rank deficient (trend basis collinear)."""


class HypothesisH2Error(GpcalError):
    """Some canonical basis vector lies in the trend space, so the
    leave-one-out residual variance degenerates."""


class IllConditionedError(GpcalError):
    """Covariance factorization failed even after the jitter escalation."""


class EstimationFailureError(GpcalError):
    """Every optimizer start failed to produce a usable optimum."""


class InvalidMatrixError(GpcalError, ValueError):
    """A matrix argument violates a structural requirement (symmetry,
    positive semi-definiteness, unit diagonal)."""


class CalibrationInfeasibleError(GpcalError):
    """No scanned hyperparameter achieved the target quasi-Gaussian
    proportion.  Carries the diagnostics needed to judge why: k_eps and
    n_times_a from ``gp.check_hypotheses``, and side, the interval bound
    that failed ("upper" for a level above 1/2, "lower" below it)."""

    def __init__(self, message, k_eps=None, n_times_a=None, side=None):
        super().__init__(message)
        self.k_eps = k_eps
        self.n_times_a = n_times_a
        self.side = side


class DomainError(GpcalError, ValueError):
    """A test-function input lies outside the function's domain."""
