"""Stationary Matern-family covariance kernels.

Four closed-form smoothness variants are provided (exponential, Matern 3/2,
Matern 5/2, squared exponential); the free-smoothness Bessel form is not
needed and deliberately not implemented.  Anisotropy in d dimensions comes
from the geometric (radial) construction: the 1-D kernel with unit
length-scale evaluated at the per-dimension scaled distance

    h(x, x') = sqrt( sum_j |x_j - x'_j|^2 / theta_j^2 ).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError, ShapeError

__all__ = [
    "KernelFamily",
    "KernelSpec",
    "kernel_1d",
    "kernel_radial",
    "gram_matrix",
    "cross_covariance",
    "scaled_distances",
    "correlation",
    "scaled_distance_matrix",
    "pairwise_sq_diffs",
    "covariance_gradient",
]

# Scaled distances below this are treated as exactly zero to avoid
# catastrophic cancellation in the radial norm.
_DISTANCE_FLOOR = 1e-14

_SQRT3 = np.sqrt(3.0)
_SQRT5 = np.sqrt(5.0)


class KernelFamily(enum.Enum):
    """Closed-form Matern smoothness variants."""

    EXPONENTIAL = "exponential"          # nu = 1/2
    MATERN32 = "matern32"                # nu = 3/2
    MATERN52 = "matern52"                # nu = 5/2
    SQUARED_EXPONENTIAL = "squared_exponential"  # nu -> infinity

    @classmethod
    def from_string(cls, name: str) -> "KernelFamily":
        aliases = {
            "exp": cls.EXPONENTIAL,
            "exponential": cls.EXPONENTIAL,
            "m32": cls.MATERN32,
            "matern32": cls.MATERN32,
            "m52": cls.MATERN52,
            "matern52": cls.MATERN52,
            "sqexp": cls.SQUARED_EXPONENTIAL,
            "squared_exponential": cls.SQUARED_EXPONENTIAL,
            "gaussian": cls.SQUARED_EXPONENTIAL,
        }
        try:
            return aliases[name.lower()]
        except KeyError:
            raise InvalidParameterError(f"unknown kernel family: {name!r}")


def correlation(family: KernelFamily, u: np.ndarray) -> np.ndarray:
    """Unit-amplitude, unit-length-scale correlation profile r(u), u >= 0;
    an overflowed u yields 0 or NaN silently (rejected downstream).

    r(u) is built in its output array by in-place ufuncs (the Matern forms
    add one or two temporaries), in the operation order of the closed
    forms, so it equals them bit for bit:

        exp(-u),  (1 + s) exp(-s),  (1 + s + s^2 / 3) exp(-s),
        exp(-u^2 / 2)

    with s = sqrt(3) u and sqrt(5) u.  A 0-d u gives a 0-d array.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        if family is KernelFamily.EXPONENTIAL:
            np.negative(u, out=out)
            return np.exp(out, out=out)
        if family is KernelFamily.SQUARED_EXPONENTIAL:
            np.multiply(u, -0.5, out=out)
            out *= u
            return np.exp(out, out=out)
        if family is KernelFamily.MATERN32:
            np.multiply(u, _SQRT3, out=out)
            tail = None
        elif family is KernelFamily.MATERN52:
            np.multiply(u, _SQRT5, out=out)
            tail = np.multiply(out, out)
            tail /= 3.0
        else:
            raise InvalidParameterError(f"unhandled kernel family: {family}")
        decay = np.negative(out, out=np.empty(u.shape))
        np.exp(decay, out=decay)
        out += 1.0
        if tail is not None:
            out += tail
        out *= decay
    return out


def covariance_gradient(spec: KernelSpec, sq_diffs: np.ndarray,
                        h: np.ndarray, r: np.ndarray,
                        S: np.ndarray) -> np.ndarray:
    """Gradient of a scalar criterion of K = sigma2 R(h) + nugget I in the
    log hyperparameters, given the symmetric S = d criterion / dK.

    Returns the d + 2 partials [log theta_1 .. log theta_d, log sigma2,
    log nugget]:

        d/dlog theta_j = -(sigma2 / theta_j^2) sum S o (r'(h)/h) o Delta_j^2
        d/dlog sigma2  = sigma2 sum S o R
        d/dlog nugget  = nugget tr S

    with Delta_j^2 the cached ``pairwise_sq_diffs``, and h and r = R the
    scaled distances and unit correlations K was built from.  r'(h)/h
    comes in closed form from r; for the exponential kernel it is set to 0
    where h = 0, whose Delta_j^2 are 0.
    """
    family = spec.family
    with np.errstate(over="ignore", invalid="ignore"):
        if family is KernelFamily.EXPONENTIAL:
            slope = np.divide(-r, h, out=np.zeros_like(h), where=h > 0.0)
        elif family is KernelFamily.MATERN32:
            slope = -3.0 * r / (1.0 + _SQRT3 * h)
        elif family is KernelFamily.MATERN52:
            s = _SQRT5 * h
            slope = (-5.0 / 3.0) * r * (1.0 + s) / (1.0 + s + s * s / 3.0)
        else:
            slope = -r
    n, _, d = sq_diffs.shape
    dtheta = sq_diffs.reshape(n * n, d).T @ (S * slope).ravel()
    dsigma2 = spec.sigma2 * float(np.sum(S * r))
    dnugget = spec.nugget * float(np.trace(S))
    return np.concatenate([-spec.sigma2 * dtheta / (spec.theta * spec.theta),
                           [dsigma2, dnugget]])


@dataclass(frozen=True)
class KernelSpec:
    """A fully parameterized anisotropic kernel.

    Attributes
    ----------
    family : KernelFamily
        Smoothness variant.
    sigma2 : float
        Amplitude (response units squared), > 0.
    theta : ndarray, shape (d,)
        Per-dimension length-scales (input units), all > 0.
    nugget : float
        Additive observation-noise variance on the diagonal, >= 0.
    """

    family: KernelFamily
    sigma2: float
    theta: np.ndarray
    nugget: float = 0.0

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "nugget", float(self.nugget))
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise InvalidParameterError("sigma2 must be a positive finite real")
        if theta.ndim != 1 or theta.size == 0:
            raise ShapeError("theta must be a non-empty 1-D vector")
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0.0):
            raise InvalidParameterError("every length-scale must be positive")
        if not np.isfinite(self.nugget) or self.nugget < 0.0:
            raise InvalidParameterError("nugget must be non-negative")

    @property
    def dim(self) -> int:
        return self.theta.size

    def with_(self, **kwargs) -> "KernelSpec":
        """Copy with selected fields replaced."""
        params = {
            "family": self.family,
            "sigma2": self.sigma2,
            "theta": self.theta,
            "nugget": self.nugget,
        }
        params.update(kwargs)
        return KernelSpec(**params)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "sigma2": self.sigma2,
            "theta": [float(t) for t in self.theta],
            "nugget": self.nugget,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(
            family=KernelFamily.from_string(d["family"]),
            sigma2=float(d["sigma2"]),
            theta=np.asarray(d["theta"], dtype=float),
            nugget=float(d["nugget"]),
        )


def kernel_1d(family: KernelFamily, sigma2: float, theta: float, h) -> float:
    """Evaluate the 1-D stationary kernel at lag h >= 0.

    Closed forms per variant (amplitude sigma2, length-scale theta):

    * exponential:          sigma2 * exp(-h/theta)
    * Matern 3/2:           sigma2 * (1 + sqrt(3) h/theta) exp(-sqrt(3) h/theta)
    * Matern 5/2:           sigma2 * (1 + sqrt(5) h/theta + 5 h^2/(3 theta^2))
                            * exp(-sqrt(5) h/theta)
    * squared exponential:  sigma2 * exp(-h^2 / (2 theta^2))
    """
    if theta <= 0.0 or not np.isfinite(theta):
        raise InvalidParameterError("theta must be positive")
    if sigma2 <= 0.0 or not np.isfinite(sigma2):
        raise InvalidParameterError("sigma2 must be positive")
    h = np.asarray(h, dtype=float)
    if np.any(h < 0.0):
        raise InvalidParameterError("lag h must be non-negative")
    u = np.where(h < _DISTANCE_FLOOR, 0.0, h) / theta
    out = sigma2 * correlation(family, u)
    return float(out) if out.ndim == 0 else out


def kernel_radial(spec: KernelSpec, x, x_prime) -> float:
    """Anisotropic geometric kernel value between two points.

    Equals the 1-D kernel with unit length-scale applied to the scaled
    radial distance sqrt(sum_j |x_j - x'_j|^2 / theta_j^2).
    """
    x = np.asarray(x, dtype=float).ravel()
    x_prime = np.asarray(x_prime, dtype=float).ravel()
    if x.size != x_prime.size or x.size != spec.dim:
        raise ShapeError(
            f"dimension mismatch: x has {x.size}, x' has {x_prime.size}, "
            f"theta has {spec.dim}"
        )
    h2 = np.sum(((x - x_prime) / spec.theta) ** 2)
    h = np.sqrt(h2)
    if h < _DISTANCE_FLOOR:
        h = 0.0
    return kernel_1d(spec.family, spec.sigma2, 1.0, h)


def pairwise_sq_diffs(X: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape (n, n, d).

    Cached by the loops that repeat theta on one design (``_Design`` of
    the fits and the Metropolis chain): a new theta then costs one tensor
    contraction for h, and the gradient reads the same tensor.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError("X must be a 2-D design matrix")
    diff = X[:, None, :] - X[None, :, :]
    return diff * diff


def scaled_distance_matrix(sq_diffs: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Matrix of scaled radial distances from cached squared differences.

    Extreme length-scales may overflow to non-finite entries; callers that
    assemble covariance matrices reject those downstream.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h2 = sq_diffs @ (1.0 / (theta * theta))
        np.maximum(h2, 0.0, out=h2)
        h = np.sqrt(h2)
    h[h < _DISTANCE_FLOOR] = 0.0
    return h


def gram_matrix(X: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """n x n kernel matrix on the design X, nugget *not* included; h from
    ``scaled_distances`` (O(n^2) memory)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError("X must be a 2-D design matrix")
    if X.shape[1] != spec.dim:
        raise ShapeError(
            f"design has {X.shape[1]} columns but theta has {spec.dim}"
        )
    return cross_covariance(X, X, spec)


def scaled_distances(X: np.ndarray, X_new: np.ndarray,
                     theta: np.ndarray) -> np.ndarray:
    """n x m scaled radial distances h between the rows of X and X_new.

    h^2 = sum_k (x_k - x'_k)^2 / theta_k^2 is accumulated one dimension at
    a time, so memory stays O(n m) whatever d is.
    """
    inv_theta2 = 1.0 / (theta * theta)
    h2 = np.zeros((X.shape[0], X_new.shape[0]))
    for k in range(theta.size):
        diff = np.subtract.outer(X[:, k], X_new[:, k])
        diff *= diff
        diff *= inv_theta2[k]
        h2 += diff
    h = np.sqrt(h2)
    h[h < _DISTANCE_FLOOR] = 0.0
    return h


def cross_covariance(X: np.ndarray, X_new: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """n x m matrix of kernel values between design X and new points X_new,
    in O(n m) memory (see ``scaled_distances``)."""
    X = np.asarray(X, dtype=float)
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    if X.shape[1] != spec.dim or X_new.shape[1] != spec.dim:
        raise ShapeError("design/new-point dimension mismatch with theta")
    K = correlation(spec.family, scaled_distances(X, X_new, spec.theta))
    K *= spec.sigma2
    return K
