"""Virtual leave-one-out predictions and coverage diagnostics.

The closed-form LOO identities (Dubrule's formulas) express every
leave-one-out mean and variance through Kbar without refitting:

    y_i - loo_mean_i = (Kbar y)_i / Kbar_ii      loo_var_i = 1 / Kbar_ii

so the standardized LOO residual is (Kbar y)_i / sqrt(Kbar_ii).  The
quasi-Gaussian proportion psi_a counts how many of those residuals fall at
or below the normal a-quantile; its delta-smoothed variant psi_delta
replaces the step with a width-delta ramp so the count becomes continuous
in the hyperparameters.

The ramp is written once (``_ramp_mean``): the mean over residuals z of
clip((q - sign z) / delta, 0, 1).  For a > 1/2 psi_delta is that mean at
q = q_a and sign +1, the paper's h_delta^+(q_a - z).  For a < 1/2 it uses
the mirror identity h_delta^-(x) = 1 - h_delta^+(-x) with q_a = -q_{1-a}:
psi_delta = 1 - (the mean at q = q_{1-a} and sign -1).  The calibration's
amplitude search (``rpie``) reads the same mean in the same orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError
from .gp import FittedGp, ResidualSpace
from .kernels import KernelSpec, gram_matrix
from .stats import check_alpha, check_level, normal_quantile

__all__ = [
    "LooDiagnostics",
    "SmoothingParams",
    "virtual_loo",
    "loo_mse",
    "loo_coverage",
    "psi_from_residuals",
    "psi_smoothed_from_residuals",
    "SigmaScanBasis",
]


@dataclass(frozen=True)
class LooDiagnostics:
    """Per-point virtual LOO summaries."""

    loo_mean: np.ndarray
    loo_var: np.ndarray
    std_resid: np.ndarray


@dataclass(frozen=True)
class SmoothingParams:
    """Ramp width for the smoothed quasi-Gaussian proportion.

    delta must stay below q_a (a > 1/2) or q_{1-a} (a < 1/2) so that the
    ramp saturates at the quantile; ``validate_for`` checks both a and it.
    """

    delta: float = 1e-2

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta <= 0.0:
            raise InvalidParameterError("delta must be positive")

    def validate_for(self, a: float) -> None:
        check_level(a)
        limit = normal_quantile(a if a > 0.5 else 1.0 - a)
        if self.delta >= limit:
            raise InvalidParameterError(
                f"delta={self.delta} too large for quantile level a={a}: "
                f"must be < {limit:.6g}"
            )


def virtual_loo(model: FittedGp) -> LooDiagnostics:
    """All n leave-one-out means/variances from Kbar y and diag Kbar
    (``GlsState.kbar_y_diag``, kept by the model's solved state), without
    forming Kbar."""
    ky, diag = model.gls.kbar_y_diag
    resid = ky / diag
    loo_mean = model.dataset.y - resid
    loo_var = 1.0 / diag
    std_resid = ky / np.sqrt(diag)
    return LooDiagnostics(loo_mean=loo_mean, loo_var=loo_var,
                          std_resid=std_resid)


def loo_mse(model: FittedGp) -> float:
    """Mean squared virtual-LOO prediction error.

    Evaluated as the quadratic form (1/n) y' Kbar Diag(Kbar)^{-2} Kbar y,
    which equals the mean of the squared virtual residuals, from Kbar y
    and diag Kbar (``GlsState.kbar_y_diag``, kept by the model's solved
    state).
    """
    ky, diag = model.gls.kbar_y_diag
    return float(np.mean((ky / diag) ** 2))


def _ramp_mean(z: np.ndarray, q: float, sign: float, delta: float):
    """Mean over the last axis of z of clip((q - sign z) / delta, 0, 1).

    q, sign and delta come checked and computed by the caller; clipping in
    place keeps this hot call of the amplitude search to two temporaries.
    """
    x = (q - sign * z) / delta
    np.clip(x, 0.0, 1.0, out=x)
    return np.add.reduce(x, axis=-1) / x.shape[-1]


def psi_from_residuals(std_resid: np.ndarray, a: float) -> float:
    """Raw quasi-Gaussian proportion: the share of standardized LOO
    residuals at or below q_a."""
    check_level(a)
    return float(np.mean(np.asarray(std_resid) <= normal_quantile(a)))


def psi_smoothed_from_residuals(std_resid: np.ndarray, a: float,
                                params: SmoothingParams) -> float:
    """Smoothed quasi-Gaussian proportion psi_delta: the ramp mean at q_a
    for a > 1/2, and its mirror 1 - (the ramp mean at q_{1-a} of -z) for
    a < 1/2."""
    params.validate_for(a)
    z = np.asarray(std_resid, dtype=float)
    if a > 0.5:
        return float(_ramp_mean(z, normal_quantile(a), 1.0, params.delta))
    return 1.0 - float(_ramp_mean(z, normal_quantile(1.0 - a), -1.0,
                                  params.delta))


def loo_coverage(model: FittedGp, alpha: float) -> float:
    """Leave-one-out coverage at nominal level 1 - alpha: the share of
    standardized LOO residuals inside (q_{alpha/2}, q_{1-alpha/2}], which
    equals psi_{1-alpha/2} - psi_{alpha/2}.
    """
    check_alpha(alpha)
    z = virtual_loo(model).std_resid
    q_hi = normal_quantile(1.0 - alpha / 2.0)
    q_lo = normal_quantile(alpha / 2.0)
    return int(np.sum((z > q_lo) & (z <= q_hi))) / z.size


class SigmaScanBasis:
    """Standardized LOO residuals as a fast function of sigma2.

    For fixed length-scales, trend and nugget, write K = sigma2 R + nugget I
    with R the unit-amplitude Gram matrix.  Through the residual-space
    identity Kbar = W (W' K W)^{-1} W', W an orthonormal basis of the
    complement of the trend span, the dependence on sigma2 reduces to a
    diagonal rescaling in the eigenbasis of W' R W:

        W' K W = U diag(sigma2 * lam_j + nugget) U'

    so each evaluation of the standardized residuals costs two matrix-vector
    products instead of a fresh O(n^3) factorization, and a batch of
    amplitudes costs two matrix products.  W is the Householder basis of
    ``gp.ResidualSpace``: W' R W and V = W U come from the p reflectors of
    F's QR, so the eigendecomposition is the basis's only O(n^3) step.
    Eigenvalues are floored at lam_max * 1e-14 to guard the no-nugget case
    against round-off negatives.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, F: np.ndarray,
                 family, theta: np.ndarray, nugget: float):
        spec = KernelSpec(family=family, sigma2=1.0, theta=theta, nugget=0.0)
        R = gram_matrix(np.atleast_2d(np.asarray(X, dtype=float)), spec)
        self._factor(R, ResidualSpace(F), y, nugget)

    @classmethod
    def from_gram(cls, R: np.ndarray, space: ResidualSpace, y: np.ndarray,
                  nugget: float) -> "SigmaScanBasis":
        """Basis from a unit-amplitude Gram matrix R and the residual space
        of the trend (``gp.ResidualSpace`` of F)."""
        basis = cls.__new__(cls)
        basis._factor(R, space, y, nugget)
        return basis

    def _factor(self, R, space: ResidualSpace, y, nugget) -> None:
        lam, U = np.linalg.eigh(space.project(R))
        floor = max(lam.max(), 0.0) * 1e-14
        lam = np.maximum(lam, floor)
        V = space.lift(U)
        self.lam = lam
        self.V = V
        self.V2 = V * V
        self.c = V.T @ np.asarray(y, dtype=float).ravel()
        self.nugget = float(nugget)

    def _scales(self, sigma2s) -> np.ndarray:
        """sigma2 lam_j + nugget, one row per amplitude of a vector."""
        return np.asarray(sigma2s, dtype=float)[..., None] * self.lam \
            + self.nugget

    def kbar_y(self, sigma2s) -> np.ndarray:
        """Kbar y = V diag(1 / (sigma2 lam + nugget)) c at amplitude
        sigma2s, shaped as ``std_residuals``."""
        return (self.c / self._scales(sigma2s)) @ self.V.T

    def std_residuals(self, sigma2s) -> np.ndarray:
        """(Kbar y)_i / sqrt(Kbar_ii) at amplitude sigma2s: shape (n,) for
        a scalar, and (G, n) with row g at sigma2s[g] for G amplitudes."""
        kdiag = (1.0 / self._scales(sigma2s)) @ self.V2.T
        return self.kbar_y(sigma2s) / np.sqrt(kdiag)
