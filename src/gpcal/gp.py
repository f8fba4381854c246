"""Kriging core: trend bases, covariance assembly, the solved GLS state,
posterior prediction, and the residual-space machinery.

Each (design, kernel, trend) is solved once.  ``factor_covariance`` gives
the Cholesky factor L of K, and ``solve_gls`` derives from (F, L, y)
everything the fit, the likelihood, prediction and the LOO formulas read:
B = L^{-1} F, the Cholesky factor of G = B'B = F' K^{-1} F (the only place
G is factored), the GLS coefficients beta = G^{-1} B' L^{-1} y, the
whitened residual w = L^{-1} (y - F beta) and Kbar y = L^{-T} w, where

    Kbar = K^{-1} - K^{-1} F (F' K^{-1} F)^{-1} F' K^{-1}.

The state (``GlsState``) is the one owner of what derives from it: it
builds Kbar itself (``kbar``), for the callers that read all of it
(``compute_kbar`` and the LOO-MSE gradient), and (Kbar y, diag Kbar)
without forming the n x n matrix (``kbar_y_diag``), which is all that the
leave-one-out formulas and the coverage calibration read.  Each is built
on first read and kept, and both share one trend factor.  The kernel of
Kbar equals the column space of F, and its diagonal is strictly positive
whenever no canonical basis vector lies in that column space.

The triangular solves and the factor of G call LAPACK directly
(``dtrtrs``, ``dpotrf``, ``dpotrs``), as scipy.linalg's front-ends would
after their argument checks, which cost more than a solve at these sizes.
The complement of Im F is held as the Householder QR of F
(``ResidualSpace``), whose reflectors project onto it without forming its
basis.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .exceptions import (
    HypothesisH1Error,
    HypothesisH2Error,
    IllConditionedError,
    InvalidParameterError,
    ShapeError,
)
from .kernels import KernelSpec, cross_covariance, gram_matrix
from .stats import check_alpha, check_level, normal_quantile

__all__ = [
    "TrendKind",
    "TrendSpec",
    "Dataset",
    "FittedGp",
    "GlsState",
    "HypothesisReport",
    "build_regression_matrix",
    "build_covariance",
    "factor_covariance",
    "solve_gls",
    "fit_gp",
    "predict",
    "prediction_interval",
    "compute_kbar",
    "ResidualSpace",
    "projection_basis",
    "check_hypotheses",
    "model_to_dict",
    "model_from_dict",
]

# Jitter escalation: start at 1e-10 * sigma2 and multiply by 10 up to
# 1e-6 * sigma2 before giving up.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


class TrendKind(enum.Enum):
    SIMPLE = "simple"        # known zero mean
    ORDINARY = "ordinary"    # unknown constant
    UNIVERSAL = "universal"  # constant + linear monomials


@dataclass(frozen=True)
class TrendSpec:
    """Trend basis selector.

    simple    -> p = 0 basis functions (mean fixed at zero)
    ordinary  -> p = 1 (the constant function)
    universal -> p = d + 1 (constant plus the coordinate monomials), which
                 keeps the all-ones vector inside the basis span.
    """

    kind: TrendKind

    @classmethod
    def from_string(cls, name: str) -> "TrendSpec":
        try:
            return cls(TrendKind(name.lower()))
        except ValueError:
            raise InvalidParameterError(f"unknown trend: {name!r}")

    def basis(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the basis functions at the rows of X, shape (n, p)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        if self.kind is TrendKind.SIMPLE:
            return np.zeros((n, 0))
        if self.kind is TrendKind.ORDINARY:
            return np.ones((n, 1))
        return np.hstack([np.ones((n, 1)), X])


@dataclass(frozen=True)
class Dataset:
    """Experimental design X (n x d) with responses y (n,)."""

    X: np.ndarray
    y: np.ndarray
    column_names: tuple | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ShapeError("X must be an n x d matrix with n, d >= 1")
        if y.size != X.shape[0]:
            raise ShapeError(
                f"y has {y.size} entries but X has {X.shape[0]} rows"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise InvalidParameterError("X and y must be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class HypothesisReport:
    """Diagnostic outcome of the three runtime hypotheses.

    h1: the regression matrix has full column rank.
    h2: no canonical basis vector lies in the trend span.
    h3: the count k_eps of projected standardized residuals at or below
        sigma_eps * q_a sits on the correct side of n * a.
    """

    h1: bool
    h2: bool
    h3: bool
    k_eps: int
    n_times_a: float


def build_regression_matrix(X: np.ndarray, trend: TrendSpec) -> np.ndarray:
    """Regression matrix F with F_ij = f_j(x_i); full rank enforced.

    Raises HypothesisH1Error when the basis columns are collinear on the
    design (rank-revealing QR test) or when n < p.
    """
    F = trend.basis(X)
    n, p = F.shape
    if p == 0:
        return F
    if n < p:
        raise HypothesisH1Error(
            f"need at least p={p} observations for the trend, got n={n}"
        )
    # Rank-revealing check via column-pivoted QR.
    diag = np.abs(np.diag(linalg.lapack.dgeqp3(F)[0]))
    if diag.size < p or diag.min() <= max(n, p) * np.finfo(float).eps * diag.max():
        raise HypothesisH1Error("regression matrix is rank deficient")
    return F


def _has_duplicate_rows(X: np.ndarray) -> bool:
    view = np.ascontiguousarray(X)
    uniq = np.unique(view, axis=0)
    return uniq.shape[0] < view.shape[0]


def _check_kernel_dim(dataset: Dataset, kernel: KernelSpec) -> None:
    """Reject a theta that does not match the design's columns."""
    if kernel.dim != dataset.d:
        raise ShapeError(
            f"kernel theta has {kernel.dim} entries but design has "
            f"{dataset.d} columns"
        )


def _check_distinct_rows(kernel: KernelSpec, duplicates) -> None:
    """Reject a zero nugget on a design with duplicated rows; the rows are
    compared, by calling ``duplicates()``, only when the nugget is zero."""
    if kernel.nugget == 0.0 and duplicates():
        raise IllConditionedError(
            "duplicated design rows with zero nugget make K singular"
        )


def build_covariance(X: np.ndarray, kernel: KernelSpec):
    """Covariance matrix K = Gram(X) + nugget * I and its Cholesky factor.

    Returns (K, L, jitter_used) from ``factor_covariance``.  Duplicated
    design rows with a zero nugget raise IllConditionedError up front.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_distinct_rows(kernel, lambda: _has_duplicate_rows(X))
    return factor_covariance(gram_matrix(X, kernel), kernel.nugget,
                             kernel.sigma2)


def factor_covariance(gram: np.ndarray, nugget: float, sigma2: float):
    """K = gram + nugget * I and its Cholesky factor, under the jitter
    policy: when the factorization fails, a ridge of 1e-10 * sigma2 is
    added and escalated tenfold up to 1e-6 * sigma2; failure beyond that,
    or a non-finite entry, raises IllConditionedError.

    Returns (K, L, jitter_used).  Callers that hold a design check it for
    duplicated rows themselves (``_check_distinct_rows``).
    """
    K = gram
    n = K.shape[0]
    if nugget > 0.0:
        K = gram.copy()
        K.flat[::n + 1] += nugget
    if not np.all(np.isfinite(K)):
        raise IllConditionedError("covariance entries overflowed")
    jitter = 0.0
    try:
        L = np.linalg.cholesky(K)
        return K, L, jitter
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START * sigma2
    while jitter <= _JITTER_MAX * sigma2 * (1.0 + 1e-12):
        try:
            Kj = K.copy()
            Kj.flat[::n + 1] += jitter
            L = np.linalg.cholesky(Kj)
            return Kj, L, jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedError(
        "covariance factorization failed after maximum jitter "
        f"{_JITTER_MAX * sigma2:.3e}"
    )


@dataclass(frozen=True)
class GlsState:
    """Generalized least squares on K = L L', solved once.

    B = L^{-1} F; chol_G is the lower Cholesky factor of G = B'B =
    F' K^{-1} F (None when p = 0); beta = G^{-1} B' L^{-1} y; w =
    L^{-1} (y - F beta); kbar_y = Kbar y = L^{-T} w; quad = y' Kbar y.
    ``kbar`` and ``kbar_y_diag`` are built from these on first read and
    kept with the state; callers must not write to what they return.
    """

    L: np.ndarray
    B: np.ndarray
    chol_G: np.ndarray | None
    beta: np.ndarray
    w: np.ndarray
    kbar_y: np.ndarray
    quad: float

    @functools.cached_property
    def _trend_factor(self) -> np.ndarray:
        """C = L^{-T} B chol_G^{-T}, so that C C' = K^{-1} F (F' K^{-1}
        F)^{-1} F' K^{-1}; the state must have a trend (p > 0)."""
        C = _solve_lower(self.chol_G, self.B.T)
        return _solve_lower(self.L, C.T, trans=1)

    @functools.cached_property
    def kbar(self) -> np.ndarray:
        """Kbar = K^{-1} - C C' (``_trend_factor``).

        Symmetric PSD with a strictly positive diagonal when no e_i lies
        in Im F; a (relatively) non-positive diagonal entry raises
        HypothesisH2Error.
        """
        kbar = _inverse(self.L)
        if self.chol_G is not None:
            C = self._trend_factor
            kbar -= C @ C.T
        _check_h2(np.diag(kbar))
        return kbar

    @functools.cached_property
    def kbar_y_diag(self) -> tuple:
        """(Kbar y, diag Kbar), without forming Kbar: all that the LOO
        residuals read.

        With M = L^{-1} (``dtrtri``), K^{-1} = M' M, so diag K^{-1} holds
        the squared column norms of M, less the squared row norms of C
        (``_trend_factor``) for diag C C'.  dtrtri keeps L's strict upper
        triangle, which np.linalg.cholesky leaves zero.  Raises
        HypothesisH2Error where ``kbar`` does, by the same check.
        """
        M, info = linalg.lapack.dtrtri(self.L, lower=1)
        if info != 0:
            raise IllConditionedError("covariance inverse failed")
        diag = np.einsum("ij,ij->j", M, M)
        if self.chol_G is not None:
            C = self._trend_factor
            diag -= np.einsum("ij,ij->i", C, C)
        _check_h2(diag)
        return self.kbar_y, diag


def _solve_lower(T: np.ndarray, b: np.ndarray, trans: int = 0):
    """T^{-1} b, or T^{-T} b with trans=1, for a lower triangular T, by
    LAPACK ``dtrtrs`` as ``scipy.linalg.solve_triangular`` calls it: a
    C-ordered T (np.linalg.cholesky's factor) is passed as T', its
    column-major view, upper triangular and not copied.  A zero on T's
    diagonal raises IllConditionedError."""
    if T.flags.f_contiguous:
        x, info = linalg.lapack.dtrtrs(T, b, lower=1, trans=trans)
    else:
        x, info = linalg.lapack.dtrtrs(T.T, b, lower=0, trans=1 - trans)
    if info != 0:
        raise IllConditionedError("triangular solve failed: singular factor")
    return x


def solve_gls(F: np.ndarray, L: np.ndarray, y: np.ndarray) -> GlsState:
    """The GLS state of (F, L, y) by triangular solves.

    The only place F' K^{-1} F is factored: a singular one raises
    HypothesisH1Error.  quad is accumulated as |L^{-1} y|^2 - c' beta with
    c = B' L^{-1} y.  Every solve and the factor of G call LAPACK directly
    (``_solve_lower``, ``dpotrf``, ``dpotrs``), bit-identical to the
    scipy.linalg routes; L comes from ``factor_covariance``, which checked
    its K for finite entries, and F and y from a checked design.
    """
    a = _solve_lower(L, y)
    quad = float(a @ a)
    if F.shape[1] == 0:
        B, chol_G, beta, w = F, None, np.zeros(0), a
    else:
        B = _solve_lower(L, F)
        c = B.T @ a
        chol_G, info = linalg.lapack.dpotrf(B.T @ B, lower=1)
        if info != 0:
            raise HypothesisH1Error("F' K^{-1} F is singular")
        beta = linalg.lapack.dpotrs(chol_G, c, lower=1)[0]
        quad -= float(c @ beta)
        w = a - B @ beta
    kbar_y = _solve_lower(L, w, trans=1)
    return GlsState(L=L, B=B, chol_G=chol_G, beta=beta, w=w, kbar_y=kbar_y,
                    quad=quad)


@dataclass(frozen=True)
class FittedGp:
    """A kriging model and its solved state.

    ``fit_gp`` factors K and solves the GLS problem once (``gls``: L,
    L^{-1} F, the factor of F' K^{-1} F, beta, L^{-1} (y - F beta) and
    Kbar y); ``predict``, ``compute_kbar`` and the LOO formulas read that
    state, which keeps Kbar and (Kbar y, diag Kbar) once built.
    """

    dataset: Dataset
    kernel: KernelSpec
    trend: TrendSpec
    F: np.ndarray
    K: np.ndarray
    gls: GlsState
    jitter_used: float = 0.0

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def p(self) -> int:
        return self.F.shape[1]

    @property
    def beta_hat(self) -> np.ndarray:
        return self.gls.beta


def fit_gp(dataset: Dataset, kernel: KernelSpec, trend: TrendSpec) -> FittedGp:
    """Assemble a FittedGp: F, K and its solved GLS state."""
    _check_kernel_dim(dataset, kernel)
    F = build_regression_matrix(dataset.X, trend)
    K, L, jitter = build_covariance(dataset.X, kernel)
    return FittedGp(dataset=dataset, kernel=kernel, trend=trend, F=F, K=K,
                    gls=solve_gls(F, L, dataset.y), jitter_used=jitter)


def predict(model: FittedGp, x_new) -> tuple:
    """Posterior predictive mean and variance at one or many new points.

    mean(x) = f(x)' beta + k(x, X)' K^{-1} (y - F beta)
    var(x)  = k(x, x) + nugget - k' K^{-1} k
              + u' (F' K^{-1} F)^{-1} u,   u = f(x) - F' K^{-1} k

    The trend-uncertainty quadratic form uses the dimensionally consistent
    F' K^{-1} k inner factor.  L^{-1} F, the factor of F' K^{-1} F, beta
    and L^{-1} (y - F beta) come from the model's solved state.  Scalars
    are returned for a single point, arrays for a batch; a non-finite
    point raises InvalidParameterError.
    """
    x_arr = np.asarray(x_new, dtype=float)
    single = x_arr.ndim == 1
    X_new = np.atleast_2d(x_arr)
    if X_new.shape[1] != model.d:
        raise ShapeError(
            f"x_new has {X_new.shape[1]} columns, model expects {model.d}"
        )
    if not np.all(np.isfinite(X_new)):
        raise InvalidParameterError("x_new must be finite")
    gls = model.gls
    Kx = cross_covariance(model.dataset.X, X_new, model.kernel)  # n x m
    A = _solve_lower(gls.L, Kx)                                  # L^{-1} k
    f_new = model.trend.basis(X_new)                             # m x p
    mean = f_new @ gls.beta + A.T @ gls.w
    prior_var = model.kernel.sigma2 + model.kernel.nugget
    var = prior_var - np.einsum("ij,ij->j", A, A)
    if model.p > 0:
        U = f_new.T - gls.B.T @ A                                # p x m
        V = linalg.lapack.dpotrs(gls.chol_G, U, lower=1)[0]
        var = var + np.einsum("ij,ij->j", U, V)
    var = np.maximum(var, 0.0)
    if single:
        return float(mean[0]), float(var[0])
    return mean, var


def prediction_interval(model: FittedGp, x_new, alpha: float) -> tuple:
    """Central (1 - alpha) prediction interval from the Gaussian posterior."""
    check_alpha(alpha)
    return _interval(*predict(model, x_new), alpha)


def _interval(mean, var, alpha: float) -> tuple:
    """Central (1 - alpha) interval of a ``predict`` output."""
    q = normal_quantile(1.0 - alpha / 2.0)
    sd = np.sqrt(var)
    return mean - q * sd, mean + q * sd


def _inverse(L: np.ndarray) -> np.ndarray:
    """K^{-1} from the lower Cholesky factor L of K.

    dpotri fills the lower triangle and keeps L's strict upper triangle,
    which np.linalg.cholesky leaves zero, so one transpose-add completes it.
    """
    inv, info = linalg.lapack.dpotri(L, lower=1)
    if info != 0:
        raise IllConditionedError("covariance inverse failed")
    full = inv + inv.T
    full.flat[::full.shape[0] + 1] *= 0.5
    return full


def _check_h2(diag: np.ndarray) -> None:
    """Raise HypothesisH2Error when diag Kbar has a (relatively)
    non-positive entry: some unit vector then lies in Im F."""
    if diag.min() <= 1e-12 * max(diag.max(), 0.0):
        raise HypothesisH2Error(
            "Kbar has a vanishing diagonal entry; some unit vector lies "
            "in the trend span"
        )


def compute_kbar(model: FittedGp) -> np.ndarray:
    """Explicit Kbar = K^{-1} - K^{-1} F (F' K^{-1} F)^{-1} F' K^{-1} of
    the model, built by its solved state on first read and kept there
    (``GlsState.kbar``)."""
    return model.gls.kbar


class ResidualSpace:
    """The complement of Im F, held as the Householder QR of F (LAPACK
    ``dgeqrf``): F = Q [T; 0] with Q = H_1 ... H_p, so that W = Q[:, p:] is
    an orthonormal basis of the complement.

    W is not formed to be multiplied: ``project`` gives W' R W as the
    trailing block of Q' R Q, and ``lift`` gives W U as Q [0; U], each by
    applying the p reflectors (``dormqr``) in O(p n^2), where products
    with W cost O(n^3).  With p = 0, W = I.  p >= n leaves no residual
    space and raises HypothesisH2Error; a rank-deficient F raises
    HypothesisH1Error.
    """

    def __init__(self, F: np.ndarray):
        F = np.asarray(F, dtype=float)
        n, p = F.shape
        self.n, self.p = n, p
        if p == 0:
            return
        if p >= n:
            raise HypothesisH2Error(
                f"no residual space: p={p} basis functions for n={n} points"
            )
        self._qr, self._tau = linalg.lapack.dgeqrf(F)[:2]
        diag = np.abs(np.diag(self._qr))
        if diag.min() <= max(n, p) * np.finfo(float).eps * diag.max():
            raise HypothesisH1Error("regression matrix is rank deficient")

    def _reflect(self, side: str, trans: str, C: np.ndarray) -> np.ndarray:
        """Q C, Q' C, C Q or C Q' in place of the column-major C."""
        return linalg.lapack.dormqr(side, trans, self._qr, self._tau, C,
                                    max(C.shape), overwrite_c=1)[0]

    def project(self, R: np.ndarray) -> np.ndarray:
        """W' R W of a symmetric n x n R, symmetrized against round-off."""
        if self.p == 0:
            B = R
        else:
            C = self._reflect("L", "T", np.array(R, dtype=float, order="F"))
            B = self._reflect("R", "N", C)[self.p:, self.p:]
        return 0.5 * (B + B.T)

    def lift(self, U: np.ndarray) -> np.ndarray:
        """W U for U with n - p rows."""
        if self.p == 0:
            return U
        C = np.zeros((self.n, U.shape[1]), order="F")
        C[self.p:] = U
        return self._reflect("L", "N", C)


def projection_basis(F: np.ndarray) -> np.ndarray:
    """Orthonormal basis W of the complement of Im F, so that W W' is the
    projector onto it: the identity lifted by ``ResidualSpace``, whose
    checks it keeps."""
    space = ResidualSpace(F)
    return space.lift(np.eye(space.n - space.p))


def check_hypotheses(dataset: Dataset, trend: TrendSpec, kernel: KernelSpec,
                     a: float) -> HypothesisReport:
    """Diagnostic check of the three runtime hypotheses at quantile level a.

    k_eps counts the indices with (Pi y)_i / sqrt(Pi_ii) <= sigma_eps * q_a;
    h3 requires k_eps < n*a for a > 1/2 and k_eps > n*a for a < 1/2.
    Pi itself is not formed: Pi_ii = sum_j W_ij^2 and Pi y = W (W' y).
    """
    check_level(a)
    n = dataset.n
    try:
        F = build_regression_matrix(dataset.X, trend)
    except HypothesisH1Error:
        return HypothesisReport(h1=False, h2=False, h3=False,
                                k_eps=0, n_times_a=n * a)
    try:
        W = projection_basis(F)
        pi_diag = np.einsum("ij,ij->i", W, W)
        h2 = bool(pi_diag.min() > 1e-12)
    except HypothesisH2Error:
        return HypothesisReport(h1=True, h2=False, h3=False,
                                k_eps=0, n_times_a=n * a)
    q_a = normal_quantile(a)
    sigma_eps = np.sqrt(kernel.nugget)
    proj = W @ (W.T @ dataset.y)
    ratios = proj / np.sqrt(np.maximum(pi_diag, 1e-300))
    k_eps = int(np.sum(ratios <= sigma_eps * q_a))
    if a > 0.5:
        h3 = k_eps < n * a
    else:
        h3 = k_eps > n * a
    return HypothesisReport(h1=True, h2=h2, h3=h3, k_eps=k_eps, n_times_a=n * a)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def model_to_dict(model: FittedGp) -> dict:
    """JSON-ready dict; float repr round-trips the doubles exactly."""
    return {
        "kernel": model.kernel.to_dict(),
        "trend": model.trend.kind.value,
        "beta_hat": [float(b) for b in model.beta_hat],
        "X": [[float(v) for v in row] for row in model.dataset.X],
        "y": [float(v) for v in model.dataset.y],
        "jitter_used": model.jitter_used,
    }


def model_from_dict(doc: dict) -> FittedGp:
    dataset = Dataset(X=np.asarray(doc["X"], dtype=float),
                      y=np.asarray(doc["y"], dtype=float))
    kernel = KernelSpec.from_dict(doc["kernel"])
    trend = TrendSpec.from_string(doc["trend"])
    model = fit_gp(dataset, kernel, trend)
    return model

