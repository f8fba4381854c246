"""Shared helpers: random dataset factories and dense-formula oracles.

The oracles deliberately transcribe the defining formulas with explicit
matrix inverses so they stay independent of the factorized implementation
paths they are used to check.  The scalar kernel oracles (``kernel_1d``,
``kernel_radial``) evaluate one pair of points at a time through the
package's unit correlation profile, so the closed forms they are checked
against are those of the profile ``gram_matrix`` evaluates.
"""

import numpy as np
import pytest

from gpcal import Dataset, KernelFamily, KernelSpec
from gpcal.exceptions import InvalidParameterError, ShapeError
from gpcal.gp import ResidualSpace, fit_gp
from gpcal.kernels import _DISTANCE_FLOOR, correlation
from gpcal.loo import loo_mse

ALL_FAMILIES = (
    KernelFamily.EXPONENTIAL,
    KernelFamily.MATERN32,
    KernelFamily.MATERN52,
    KernelFamily.SQUARED_EXPONENTIAL,
)


def random_dataset(rng, n=12, d=2, smooth=True):
    """A modest random regression dataset with a nonlinear response."""
    X = rng.uniform(0.0, 1.0, (n, d))
    y = (np.sin(3.0 * X[:, 0]) + np.sum(X * X, axis=1)
         + 0.05 * rng.standard_normal(n))
    return Dataset(X=X, y=y)


def random_kernel(rng, d, family=None, nugget=None):
    family = family or ALL_FAMILIES[rng.integers(len(ALL_FAMILIES))]
    if nugget is None:
        nugget = float(rng.uniform(0.01, 0.2))
    return KernelSpec(
        family=family,
        sigma2=float(rng.uniform(0.3, 3.0)),
        theta=rng.uniform(0.2, 1.5, d),
        nugget=nugget,
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


def sqrtm_psd(K: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues from round-off are clipped at zero, which keeps the
    result well-defined for nearly singular covariance matrices.
    """
    K = np.asarray(K, dtype=float)
    w, U = np.linalg.eigh(0.5 * (K + K.T))
    return (U * np.sqrt(np.maximum(w, 0.0))) @ U.T


def residual_basis(F):
    """Orthonormal basis W of the complement of Im F, as check_hypotheses
    forms it: the identity lifted by ResidualSpace, whose checks it keeps
    (rank-deficient F raises H1, p >= n raises H2)."""
    space = ResidualSpace(F)
    return space.lift(np.eye(space.n - space.p))


def msecv_value(dataset, trend, spec):
    """The MSE-CV criterion y' Kbar Diag(Kbar)^{-2} Kbar y = n * loo_mse
    of the fit at spec."""
    return dataset.n * loo_mse(fit_gp(dataset, spec, trend))


def dense_gram(X, spec):
    """Entrywise kernel matrix, nugget included, via the scalar kernel."""
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            K[i, j] = kernel_radial(spec, X[i], X[j])
    return K + spec.nugget * np.eye(n)


def dense_kbar(X, y, F, spec):
    """Kbar by literal dense inverses (oracle)."""
    K = dense_gram(X, spec)
    Kinv = np.linalg.inv(K)
    if F.shape[1] == 0:
        return Kinv
    G = F.T @ Kinv @ F
    return Kinv - Kinv @ F @ np.linalg.inv(G) @ F.T @ Kinv


def dense_predict(X, y, F, spec, trend, x_new):
    """Posterior mean/variance by literal dense transcription (oracle)."""
    n = X.shape[0]
    K = dense_gram(X, spec)
    Kinv = np.linalg.inv(K)
    k = np.array([kernel_radial(spec, X[i], x_new) for i in range(n)])
    f_new = trend.basis(np.atleast_2d(x_new))[0]
    if F.shape[1] > 0:
        G = F.T @ Kinv @ F
        beta = np.linalg.inv(G) @ F.T @ Kinv @ y
        mean = f_new @ beta + k @ Kinv @ (y - F @ beta)
        u = f_new - F.T @ Kinv @ k
        var = (spec.sigma2 + spec.nugget - k @ Kinv @ k
               + u @ np.linalg.inv(G) @ u)
    else:
        mean = k @ Kinv @ y
        var = spec.sigma2 + spec.nugget - k @ Kinv @ k
    return mean, var


def brute_force_loo(dataset, spec, trend):
    """Refit-on-n-subsets leave-one-out oracle."""
    n = dataset.n
    means = np.empty(n)
    variances = np.empty(n)
    from gpcal.gp import predict
    for i in range(n):
        mask = np.arange(n) != i
        sub = Dataset(X=dataset.X[mask], y=dataset.y[mask])
        model = fit_gp(sub, spec, trend)
        means[i], variances[i] = predict(model, dataset.X[i])
    return means, variances


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
