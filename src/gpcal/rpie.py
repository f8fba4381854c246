"""Coverage calibration of prediction intervals (RPIE).

For a target quantile level ``a`` the calibration keeps the reference
length-scales up to a common factor lambda and rescales the amplitude to
the smallest value at which the smoothed quasi-Gaussian proportion equals
``a``.  Among the admissible lambdas it picks the one whose implied Gaussian
law over the training design is closest, in 2-Wasserstein distance, to the
reference law.  A two-sided interval uses two such one-sided models, one per
bound.

One state serves a whole calibration, both bounds included.  It is built
on the reference fit (a ``FittedGp`` at theta0 and the reference amplitude),
which supplies the design, the trend and its regression matrix F, the
kernel family, the nugget and the reference law; the state adds the
residual space of F (``gp.ResidualSpace``, the Householder QR of F) and
the scaled distances h0 = h(theta0).  Since lambda
scales every length-scale together, the unit Gram matrix at lambda is
R(lambda) = r(h0 / lambda).  Each lambda builds R and one state from it
(``_LambdaState``); the amplitude scan and the W2 law K = sigma2 R +
nugget I of both sides read that state, and ``calibrate`` walks the lambda
grid once for both sides.  Only the state of the latest lambda is kept.
Each state supplies the law's GLS mean and trace root Tr (L0' K L0)^{1/2}
to one W2 formula that factors nothing.  L0 is the reference fit's own
Cholesky factor of K0 = L0 L0'; L0' K L0 has the eigenvalues of
K0^{1/2} K K0^{1/2}, so K0 is factored once, by the reference fit.  L0' R
L0 takes two triangular products (BLAS ``dtrmm``) on L0', the
column-major view of L0, half the work of two general products.

The nugget chooses the state's form.  With zero nugget sigma2 is a pure
scale of K = sigma2 R: the standardized LOO residuals are
z(1) / sqrt(sigma2), the GLS mean does not depend on sigma2 and the trace
root is sqrt(sigma2) Tr (L0' R L0)^{1/2}, so one Cholesky factor serves
every amplitude and both sides (the scale-free form).  It factors the
R + j I of ``gp.factor_covariance(R, 0, 1)``, whose jitter scales with
sigma2: ``fit_gp`` builds sigma2 (R + j I) at every amplitude.  Its
solves (``gp.solve_gls``) call LAPACK directly, bit for bit what the
scipy.linalg front-ends give, without their per-call argument checks.
With a positive nugget each lambda builds the eigenbasis of W' R W
(``SigmaScanBasis``), W the Householder basis of the complement of Im F,
from which a batch of amplitudes costs two matrix products, and the law
reads its mean from that basis.  W' R W and the lifted eigenvectors W U
come from the p reflectors of F in O(p n^2), so the state's cubic work is
its eigendecomposition, and with the objective the eigenvalues of the
law.

The amplitude root is the left end of the first crossing of psi_delta = a
on the ``_SIGMA_SCAN`` range, to adjacent doubles: the smallest amplitude
at which psi_delta - a is zero or has left the strict sign it has at the
bottom of the range.  When n * a is an integer, psi_delta equals a on a
whole interval of amplitudes, and the left end is its smallest point.
Both state forms find it one way: the grid is scanned in batches of
amplitudes for the first crossing, which Illinois regula falsi in log
sigma2 solves inside its grid cell before a short gallop snaps it to
adjacent doubles.  With zero nugget psi_delta is monotone in sigma2, so
the root is the predicate's unique transition double.  Only with a
positive nugget does the scan continue past the top of the grid.  A root
costs about a dozen scalar evaluations, not the ~50 steps of a bisection.
The root is kept exact: stopping at 1e-9 relative moves the W2 objectives
of the lambda grid by up to 4e-5, since W2 is a difference of traces that
cancel.

Each side then refines its best grid lambda in log lambda by Brent's
method on the two grid cells around it.  It fits no parabola until the
bracket is no wider than 1e-2, so it first takes the steps of a golden
section, 12 from a two-cell bracket of the default 15-point grid, and then
4 or 5 more on most sides, parabolic where a parabola fits, which stop
once lambda* is resolved to 1e-6.  lambda* carries no more precision than
that: a last-bit change in the training responses moves it by about 1e-7
relative, and W2 is flat near its minimum, so the stop moves W2 by well
under 1e-6 relative.  Parabolic steps from the start converge faster but
can settle in a higher local minimum of W2 than golden steps do.  The two
sides' searches run in lock-step, one evaluation of each in turn, and
while they share a bracket they ask for the same lambdas in the same
round, which the one kept state serves for both.  So a calibration builds
one per-lambda state per distinct lambda it evaluates, about 44 with the
default grid, of which the grid is a third.  Two searches can also cross,
each asking next for the lambda the other has just evaluated; the later of
the two is then built a second time.  That is rare: on perfbench's calib
inputs a calibration builds 0.4 states more than the distinct lambdas it
evaluates, and on a 30-point grid keeping a second state saved 0.1 of
those.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dtrmm

from .blas import single_threaded_blas
from .estimation import EstimationResult, _data_scales
from .exceptions import (
    CalibrationInfeasibleError,
    InvalidMatrixError,
    InvalidParameterError,
)
from .gp import (
    Dataset,
    FittedGp,
    TrendSpec,
    check_hypotheses,
    factor_covariance,
    ResidualSpace,
    fit_gp,
    predict,
    solve_gls,
)
from .kernels import KernelFamily, KernelSpec, correlation, scaled_distances
from .loo import SigmaScanBasis, SmoothingParams, _ramp_mean, \
    psi_from_residuals, psi_smoothed_from_residuals, virtual_loo
from .stats import check_alpha, normal_quantile

__all__ = [
    "GridSpec",
    "RpieConfig",
    "RpieSolution",
    "LambdaTrace",
    "CalibratedIntervalModel",
    "sigma_opt",
    "wasserstein2_gaussians",
    "relaxation_objective",
    "calibrate_quantile",
    "calibrate",
    "predict_calibrated",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Width in log lambda at which the lambda search stops.  Finer is
# spurious: a 3.5e-15 relative change in the training responses moves
# lambda* by up to 1.3e-7 relative, while W2 is flat to about 1e-7 near
# its minimum (a 1e-6 stop moves W2 by at most 5.7e-7 relative).
_LOG_LAMBDA_TOL = 1e-6

# Bracket width in log lambda below which the lambda search fits
# parabolas; wider, its steps are golden.  On perfbench's calib inputs
# (seeds 141-170, 360 sides, the default grid), against golden steps alone
# down to _LOG_LAMBDA_TOL (71 per-lambda states per calibration),
# parabolas from the start settle in a higher local minimum of W2 on 8
# sides (up to +130 %) and from a 3e-2 bracket on 1 (+3.0 %).  From 1e-2
# one W2 rises, by 1.4e-6 relative, at 43.5 states per calibration; 1e-3
# builds 47.8 and lets another W2 rise by 1.6e-6.
_PARABOLA_BRACKET = 1e-2

# Amplitudes per batched residual evaluation: bounds the (rows x n) work
# arrays, and the scan stops at the first batch holding a crossing.
_SCAN_CHUNK = 64

# Relative bracket width at which the regula falsi of the amplitude root
# hands over to the ulp gallop of ``_Side._snap``: near the root the excess
# is round-off, which gives regula falsi no usable slope.
_ROOT_RTOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing log-spaced grid with finite bounds and an
    integer count (numpy integers included); a single-point grid
    degenerates to its (lo == hi) value."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not isinstance(self.count, numbers.Integral):
            raise InvalidParameterError("grid count must be an integer")
        if self.count < 1:
            raise InvalidParameterError("grid needs at least 1 point")
        if self.count == 1:
            if not (0.0 < self.lo < math.inf and self.lo == self.hi):
                raise InvalidParameterError(
                    "a single-point grid needs lo == hi, finite and > 0")
        elif not (0.0 < self.lo < self.hi < math.inf):
            raise InvalidParameterError(
                "grid must satisfy 0 < lo < hi < inf")

    def points(self, scale: float = 1.0) -> np.ndarray:
        if self.count == 1:
            return np.array([scale * self.lo])
        return scale * np.logspace(np.log10(self.lo), np.log10(self.hi),
                                   self.count)


# Amplitude scan grid, relative to var(y) (1 when y is constant).
_SIGMA_SCAN = GridSpec(1e-8, 1e8, 200)


@dataclass(frozen=True)
class RpieConfig:
    """Calibration controls.

    lambda_grid spans the common length-scale factor.  It only has to hand
    each side's search a bracket around a low local minimum of W2, so the
    default is 15 log-spaced points on [1e-2, 1e2].  On perfbench's calib
    inputs (seeds 141-200, 720 sides) it lands more than 1e-6 relative
    above the best W2 that any of the 15-, 30- and 60-point grids finds on
    2 sides, 1.9 % above in sum, against 2 sides and 6.7 % for 30 points
    and 7 sides and 5.9 % for 60: which of two nearby minima a search
    finds is the grid's luck.  Coarser grids lose sides against 30 points:
    12 points one of 240 calib sides (seeds 151-170) by 1.7e-6, 10 points
    one of 120 (seeds 141-150) by 0.92 %.
    """

    delta: SmoothingParams = field(default_factory=SmoothingParams)
    lambda_grid: GridSpec = field(
        default_factory=lambda: GridSpec(1e-2, 1e2, 15))


@dataclass(frozen=True)
class LambdaTrace:
    """Grid evaluations of the relaxed objective, for plotting."""

    lambdas: np.ndarray
    objectives: np.ndarray     # NaN where sigma_opt was absent
    sigma2_opts: np.ndarray    # NaN where absent


@dataclass(frozen=True)
class RpieSolution:
    """One calibrated quantile-side model.

    psi_achieved is the smoothed proportion at the solution (equal to the
    target up to root-finding tolerance), scored in the orientation the
    root is solved in: 1 - psi_{1-a}(-z) for a lower bound (a < 1/2), as
    ``loo.psi_smoothed_from_residuals`` does; psi_raw is the step-function
    count, which sits within about half an in-band residual of the target.
    Both are recomputed from the final model (``fit_gp``, then
    ``virtual_loo``), independently of the state the root was found on.
    With zero nugget that is the Cholesky and ``GlsState.kbar_y_diag``
    route of the scale-free search state itself; with a positive nugget
    the root was found in the eigenbasis of W' R W, and the recomputation
    is an independent check of it (perfbench's coverage check relies on
    it).
    wasserstein2 is the search state's objective, not recomputed.
    """

    lambda_star: float
    sigma2_opt: float
    theta_ref: np.ndarray
    beta_opt: np.ndarray
    wasserstein2: float
    a: float
    psi_achieved: float
    psi_raw: float
    kernel: KernelSpec
    trace: LambdaTrace

    def to_dict(self) -> dict:
        return {
            "lambda_star": self.lambda_star,
            "sigma2_opt": self.sigma2_opt,
            "theta_ref": [float(t) for t in self.theta_ref],
            "beta_opt": [float(b) for b in self.beta_opt],
            "wasserstein2": self.wasserstein2,
            "a": self.a,
            "psi_achieved": self.psi_achieved,
            "psi_raw": self.psi_raw,
            "kernel": self.kernel.to_dict(),
        }


def _symmetrized(K, name: str) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidMatrixError(f"{name} must be square")
    scale = max(float(np.abs(K).max()), 1e-300)
    if float(np.abs(K - K.T).max()) > 1e-8 * scale:
        raise InvalidMatrixError(f"{name} is not symmetric")
    return 0.5 * (K + K.T)


def _check_psd(w: np.ndarray, name: str) -> None:
    if w.min() < -1e-8 * max(float(w.max()), 1e-300):
        raise InvalidMatrixError(f"{name} is not positive semi-definite")


def _trace_root(M: np.ndarray) -> float:
    """Tr M^{1/2} from the eigenvalues of M (its lower triangle read as
    symmetric), with round-off negatives clipped at zero."""
    w = np.linalg.eigvalsh(M)
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def wasserstein2_gaussians(m1, K1, m2, K2) -> float:
    """Squared 2-Wasserstein distance between two Gaussian laws.

    ||m1 - m2||^2 + Tr(K1 + K2 - 2 (K1^{1/2} K2 K1^{1/2})^{1/2}),
    clipped at zero against round-off.  One eigendecomposition of K1 both
    checks it for positive semi-definiteness and gives K1^{1/2}.
    """
    m1 = np.asarray(m1, dtype=float).ravel()
    m2 = np.asarray(m2, dtype=float).ravel()
    K1 = _symmetrized(K1, "K1")
    w1, U1 = np.linalg.eigh(K1)
    _check_psd(w1, "K1")
    K2 = _symmetrized(K2, "K2")
    _check_psd(np.linalg.eigvalsh(K2), "K2")
    if m1.size != m2.size or K1.shape[0] != m1.size or \
            K2.shape[0] != m2.size:
        raise InvalidMatrixError("mean/covariance dimensions disagree")
    # K1^{1/2}, with round-off negatives of w1 clipped at zero.
    S1 = (U1 * np.sqrt(np.maximum(w1, 0.0))) @ U1.T
    dm = m1 - m2
    val = float(dm @ dm + np.trace(K1) + np.trace(K2)
                - 2.0 * _trace_root(S1 @ K2 @ S1))
    return max(val, 0.0)


def _scan_extension(grid: np.ndarray) -> np.ndarray:
    """Amplitudes past the top of the scan grid at the same log spacing, up
    to a hard ceiling of 1e18 times its top.

    With a positive nugget a solution provably exists for every
    length-scale vector, but the required amplitude grows without bound as
    the length-scales blow up, so a fixed box can top out below the
    crossing.
    """
    step = np.log(grid[-1] / grid[0]) / (grid.size - 1)
    ceiling = float(grid[-1]) * 1e18
    extension = np.exp(np.arange(1, int(np.log(1e18) / step) + 2)
                       * step) * float(grid[-1])
    return extension[extension <= ceiling]


class _Calibration:
    """State shared by every lambda and both sides of one calibration.

    ``at(lam)`` returns the per-lambda state, rebuilt only when lam
    changes.  The reference fit ``ref`` supplies the design, the trend, F,
    the kernel family, the nugget and theta0, all its shape and design
    checks done by ``fit_gp``.  The calibration adds the residual space of
    F (``space``, the Householder QR of ``gp.ResidualSpace``, factored once
    here and read by every eigenbasis state) and the scaled distances h0.
    Its law is the reference law: K0 = ref.K and m0 = F beta, with Tr K0
    and the Cholesky factor L0 = ref.gls.L of K0.  ``objective`` is one
    formula for both state forms, each supplying the mean m and root =
    Tr (L0' K L0)^{1/2}:

        W2 = max(||m - m0||^2 + Tr K0 + sigma2 Tr R + n nugget - 2 root, 0)

    The law is formed only for an ``objective`` call: L0' R L0 per lambda
    and, with a nugget, L0' L0 once, so an amplitude search alone
    (``sigma_opt``) never builds it.
    """

    def __init__(self, ref: FittedGp, config: RpieConfig):
        self.ref = ref
        self.config = config
        self.nugget = ref.kernel.nugget
        self.F = ref.F
        self.space = ResidualSpace(self.F)
        X = ref.dataset.X
        self.h0 = scaled_distances(X, X, ref.kernel.theta)
        grid = _SIGMA_SCAN.points(scale=_data_scales(ref.dataset)[1])
        # The root scans ascending batches: the grid and, with a positive
        # nugget, its extension past the top.
        parts = [grid, _scan_extension(grid)] if self.nugget > 0.0 \
            else [grid]
        self.batches = [part[i:i + _SCAN_CHUNK] for part in parts
                        for i in range(0, part.size, _SCAN_CHUNK)]
        self._state = None
        self.m0 = self.F @ ref.beta_hat
        self.tr_K0 = float(np.trace(ref.K))

    @functools.cached_property
    def L0tL0(self) -> np.ndarray:
        """L0' L0, the nugget's term of L0' K L0."""
        return self.ref.gls.L.T @ self.ref.gls.L

    def gram(self, lam: float) -> np.ndarray:
        """Unit-amplitude Gram matrix R(lam) = r(h0 / lam)."""
        return correlation(self.ref.kernel.family, self.h0 / lam)

    def at(self, lam: float) -> "_LambdaState":
        if self._state is None or self._state.lam != lam:
            self._state = None
            self._state = _LambdaState(self, lam)
        return self._state

    def objective(self, lam: float, sigma2: float) -> float:
        """Squared W2 distance from the reference law to the law at
        (lam, sigma2)."""
        state = self.at(lam)
        dm = state.mean(sigma2) - self.m0
        val = float(dm @ dm + self.tr_K0 + sigma2 * state.tr_R
                    + self.ref.n * self.nugget
                    - 2.0 * state.root(sigma2, self))
        return max(val, 0.0)


class _LambdaState:
    """What the amplitude search and the W2 law read at one lambda, in the
    form the nugget selects.  Both give the GLS mean ``mean(sigma2)`` and
    ``root(sigma2, cal)`` = Tr (L0' K L0)^{1/2} from A = L0' R L0, L0 the
    reference fit's Cholesky factor; A is formed on first use, by two
    triangular products (``dtrmm``).  Both also give the standardized
    residuals at one amplitude or a vector of them (``std_residuals``),
    and build those of the amplitude scan one batch at a time as the sides
    ask for them.

    Scale-free form, with zero nugget: K = sigma2 R, so the standardized
    LOO residuals are z(1) / sqrt(sigma2), the GLS mean m1 = F beta does
    not depend on sigma2, and root = sqrt(sigma2) Tr A^{1/2}.  R is the
    R + j I of ``factor_covariance(R, 0, 1)`` (j = 0 unless R needs
    jitter), whose Cholesky factor gives z(1) (``gp.solve_gls``, then
    ``GlsState.kbar_y_diag``, the route ``virtual_loo`` takes, each solve
    a direct LAPACK call) and m1.  The solved state itself is dropped once
    z(1) and m1 are read.

    Eigenbasis form, with a positive nugget: the eigenbasis of W' R W
    (``SigmaScanBasis.from_gram`` on the calibration's residual space,
    which gives W' R W and V = W U by F's reflectors), from which each
    batch of amplitudes costs two matrix products.  The mean is
    y - K Kbar y with Kbar y from the basis, and root = Tr (sigma2 A +
    nugget L0' L0)^{1/2}, with the calibration's L0' L0.
    """

    def __init__(self, cal: _Calibration, lam: float):
        self.lam = lam
        self.R = cal.gram(lam)
        self._batches = cal.batches
        self._residuals = {}
        self._y, self._nugget, self._L0 = cal.ref.dataset.y, cal.nugget, \
            cal.ref.gls.L
        if cal.nugget > 0.0:
            self.basis = SigmaScanBasis.from_gram(self.R, cal.space, self._y,
                                                  cal.nugget)
        else:
            self.basis = None
            self.R, L, _ = factor_covariance(self.R, 0.0, 1.0)
            gls = solve_gls(cal.F, L, self._y)
            ky, diag = gls.kbar_y_diag
            self.z1 = ky / np.sqrt(diag)
            self.m1 = cal.F @ gls.beta
        self.tr_R = float(np.trace(self.R))

    def mean(self, sigma2: float) -> np.ndarray:
        """GLS mean F beta of the law at amplitude sigma2."""
        if self.basis is None:
            return self.m1
        ky = self.basis.kbar_y(sigma2)
        return self._y - (sigma2 * (self.R @ ky) + self._nugget * ky)

    @functools.cached_property
    def A(self) -> np.ndarray:
        """L0' R L0, formed on first use by two triangular products
        (``dtrmm``) on L0', the column-major view of the C-ordered L0."""
        L0t = self._L0.T
        RL0 = dtrmm(1.0, L0t, self.R, side=1, lower=0, trans_a=1)
        return dtrmm(1.0, L0t, RL0, lower=0, overwrite_b=1)

    @functools.cached_property
    def _t1(self) -> float:
        """Scale-free form: Tr A^{1/2}, the root at unit amplitude."""
        return _trace_root(self.A)

    def root(self, sigma2: float, cal: _Calibration) -> float:
        """Tr (L0' K L0)^{1/2} at amplitude sigma2."""
        if self.basis is None:
            return math.sqrt(sigma2) * self._t1
        return _trace_root(sigma2 * self.A + self._nugget * cal.L0tL0)

    def std_residuals(self, sigma2s) -> np.ndarray:
        """Standardized residuals at amplitude sigma2s: shape (n,) for a
        scalar, and (G, n) with row g at sigma2s[g] for G amplitudes."""
        if self.basis is None:
            return self.z1 / np.sqrt(sigma2s)[..., None]
        return self.basis.std_residuals(sigma2s)

    def residuals(self, k: int) -> np.ndarray:
        """Standardized residuals at the amplitudes of scan batch k, one
        row per amplitude."""
        if k not in self._residuals:
            self._residuals[k] = self.std_residuals(self._batches[k])
        return self._residuals[k]


class _Side:
    """The amplitude equation psi_delta(sigma2) = a of one interval bound
    and its lambda trace.

    A lower bound (a < 1/2) is evaluated in the upper orientation,
    psi_a(z) = 1 - psi_{1-a}(-z), so that negating y swaps the two sides
    bit for bit.  The level, the smoothing width and q are checked and
    computed once here.  ``sigma_opt_at`` solves the equation by a scan
    and regula falsi (``_scan_root``), in either state form, and ends in
    ``_snap``, which rounds the root to adjacent doubles.  The root
    predicate is written once, as f >= 0 with f = +-(psi_delta - a)
    (``_signed``).
    """

    def __init__(self, cal: _Calibration, a: float):
        cal.config.delta.validate_for(a)
        self.cal = cal
        self.a = a
        self.sign = 1.0 if a > 0.5 else -1.0
        self.level = a if a > 0.5 else 1.0 - a
        self.q = normal_quantile(self.level)
        self.delta = cal.config.delta.delta
        self.lambdas = cal.config.lambda_grid.points()
        self.objs = np.full(self.lambdas.size, np.nan)
        self.s2s = np.full(self.lambdas.size, np.nan)

    def excess(self, z: np.ndarray):
        """psi_delta - a along the last axis of z, in the upper
        orientation (so of opposite sign for a lower bound): the ramp mean
        of ``loo.psi_smoothed_from_residuals`` minus its level."""
        return _ramp_mean(z, self.q, self.sign, self.delta) - self.level

    def sigma_opt_at(self, lam: float) -> float | None:
        """Left end of the first crossing of psi_delta = a on the scan
        range at lam; None when the range has no crossing."""
        return self._scan_root(self.cal.at(lam))

    def _hit(self, state: _LambdaState, negative: bool, s2: float) -> bool:
        """Whether psi_delta - a is zero at s2 or has lost the strict sign
        it has at the bottom of the scan (negative: below zero there)."""
        return self._signed(state.std_residuals(s2), negative) >= 0.0

    def _snap(self, state: _LambdaState, negative: bool, guess: float,
              lo: float, hi: float) -> float:
        """Adjacent-double left end in (lo, hi], the predicate failing at
        lo and holding at hi: gallop from guess by 1, 2, 4 ... ulps
        towards the transition until it is bracketed, then bisect.  The
        gallop never leaves (lo, hi), so it takes at most about twice the
        log2 of that bracket's width in ulps."""
        step = math.ulp(guess)
        if guess == hi or (guess > lo and self._hit(state, negative, guess)):
            hi = guess
            while hi - step > lo:
                if not self._hit(state, negative, hi - step):
                    lo = hi - step
                    break
                hi -= step
                step *= 2.0
        else:
            lo = guess
            while lo + step < hi:
                if self._hit(state, negative, lo + step):
                    hi = lo + step
                    break
                lo += step
                step *= 2.0
        return self._left_end(state, negative, lo, hi)

    def _scan_root(self, state: _LambdaState) -> float | None:
        """The root: scan the amplitude batches for the first crossing,
        then solve it in its grid cell by Illinois regula falsi
        (``_illinois``)."""
        g = self.excess(state.residuals(0)[0])
        if g == 0.0:
            return float(self.cal.batches[0][0])
        negative = bool(g < 0.0)
        prev = None
        for k, amps in enumerate(self.cal.batches):
            rows = state.residuals(k)
            hit = self._signed(rows, negative) >= 0.0
            if hit.any():
                j = int(np.argmax(hit))
                lo, z_lo = (amps[j - 1], rows[j - 1]) if j > 0 else prev
                return self._illinois(state, negative, float(lo), z_lo,
                                      float(amps[j]), rows[j])
            prev = amps[-1], rows[-1]
        return None

    def _signed(self, z: np.ndarray, negative: bool):
        """f = +-(psi_delta - a) along the last axis of z, oriented below
        zero at the bottom of the scan (negative: psi_delta - a is below
        zero there), so that the root predicate is f >= 0."""
        g = self.excess(z)
        return g if negative else -g

    def _past_band(self, z: np.ndarray, z_lo: np.ndarray) -> float:
        """On a plateau psi_delta = a, where f is zero: how far the ramp
        terms that moved between z_lo and z are past the band's edges at
        z, as a share of n.  Just below the plateau f is the term that
        saturates last, so this continues f across the plateau's left end
        and gives regula falsi a slope there; it is zero when f is zero
        off a plateau, where the root is at hand."""
        t_lo = (self.q - self.sign * z_lo) / self.delta
        t = (self.q - self.sign * z) / self.delta
        past = np.maximum(t - 1.0, 0.0) + np.maximum(-t, 0.0)
        moved = np.clip(t_lo, 0.0, 1.0) != np.clip(t, 0.0, 1.0)
        return float(past[moved].sum()) / z.size

    def _illinois(self, state: _LambdaState, negative: bool, lo: float,
                  z_lo: np.ndarray, hi: float, z_hi: np.ndarray) -> float:
        """Illinois regula falsi in log sigma2 between lo and hi, with
        residuals z_lo and z_hi there, f below zero at lo and at or above
        it at hi.  Once the bracket is ``_ROOT_RTOL`` relative, or the next
        estimate falls on an end, ``_snap`` finishes from that estimate.

        When n * a is an integer, f is exactly zero on a plateau whose
        left end is the root, which gives regula falsi no slope; there
        ``_past_band`` stands in for f at the hit end.  When that is zero
        too, the estimate falls on the hit end, and ``_snap`` gallops down
        from it.
        """
        f_lo = self._signed(z_lo, negative)
        f_hi = self._signed(z_hi, negative) or self._past_band(z_hi, z_lo)
        x_lo, x_hi = math.log(lo), math.log(hi)
        kept = 0            # +1 after the low end moved, -1 the high end
        while True:
            x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
            s2 = min(max(math.exp(x), lo), hi)
            if hi - lo <= _ROOT_RTOL * hi or not lo < s2 < hi:
                return self._snap(state, negative, s2, lo, hi)
            z = state.std_residuals(s2)
            f = self._signed(z, negative)
            if f >= 0.0:
                x_hi, hi = math.log(s2), s2
                f_hi = f or self._past_band(z, z_lo)
                if kept == -1:
                    f_lo *= 0.5
                kept = -1
            else:
                x_lo, lo, f_lo, z_lo = math.log(s2), s2, f, z
                if kept == 1:
                    f_hi *= 0.5
                kept = 1

    def _left_end(self, state: _LambdaState, negative: bool, lo: float,
                  hi: float) -> float:
        """Bisect in log sigma2 until lo and hi are adjacent doubles; g
        keeps its initial sign at lo and is zero or has lost it at hi."""
        while True:
            mid = math.sqrt(lo) * math.sqrt(hi)
            if not lo < mid < hi:
                mid = lo + 0.5 * (hi - lo)
                if not lo < mid < hi:
                    return hi
            if self._hit(state, negative, mid):
                hi = mid
            else:
                lo = mid

    def evaluate(self, lam: float) -> tuple:
        """(objective, sigma2_opt) at lam; (None, None) when absent."""
        s2 = self.sigma_opt_at(lam)
        if s2 is None:
            return None, None
        return self.cal.objective(lam, s2), s2

    def refine(self):
        """Generator of (lambda*, sigma2_opt, W2): it walks the lambda
        grid, recording each answer in the trace, then refines the best
        grid lambda in log lambda over its two neighbouring cells by
        Brent's method (``_brent``), golden steps only until the bracket
        is no wider than ``_PARABOLA_BRACKET`` = 1e-2.  It yields each
        lambda it evaluates and is sent ``evaluate`` there, so that
        ``_lockstep`` can interleave the sides; the result is its return
        value.  Raises CalibrationInfeasibleError when no grid lambda is
        admissible.

        The search stops once lambda* is resolved to ``_LOG_LAMBDA_TOL`` =
        1e-6 in log lambda: lambda* already moves by about 1e-7 with the
        last bits of the data, so finer steps resolve nothing.  From a
        two-cell bracket of the default grid it takes 12 golden steps and
        then 4 or 5 more on most sides, up to about 20 where W2 has a kink
        at its minimum and no parabola fits, against 31 golden steps
        alone.  lambda* is the lowest W2 evaluated and a local minimum of
        W2 inside the final bracket.  With zero nugget W2 can have two
        local minima closer together than one grid cell, at kinks of
        sigma2_opt(lambda) where a residual enters or leaves the smoothing
        ramp; the bracket the grid hands the search then decides which one
        it finds, so lambda* can depend on the grid.
        """
        lambdas, objs = self.lambdas, self.objs
        for i, lam in enumerate(lambdas):
            obj, s2 = yield float(lam)
            if obj is not None:
                objs[i], self.s2s[i] = obj, s2
        if not np.any(np.isfinite(objs)):
            ref = self.cal.ref
            report = check_hypotheses(ref.dataset, ref.trend, ref.kernel,
                                      self.a)
            raise CalibrationInfeasibleError(
                f"no lambda on the grid admits psi_delta = {self.a}: "
                f"k_eps={report.k_eps}, n*a={report.n_times_a:.2f}",
                k_eps=report.k_eps, n_times_a=report.n_times_a,
                side="upper" if self.a > 0.5 else "lower")

        finite = np.where(np.isfinite(objs))[0]
        i_best = int(finite[np.argmin(objs[finite])])
        best = (float(lambdas[i_best]), float(self.s2s[i_best]),
                float(objs[i_best]))

        lo_i = max(i_best - 1, 0)
        hi_i = min(i_best + 1, lambdas.size - 1)
        if hi_i > lo_i:
            cache: dict = {}

            def f(t):
                if t not in cache:
                    obj, s2 = yield float(np.exp(t))
                    cache[t] = (np.inf, None) if obj is None else (obj, s2)
                return cache[t][0]

            t_best, f_best = yield from _brent(f, np.log(lambdas[lo_i]),
                                               np.log(lambdas[hi_i]))
            if f_best < best[2]:
                obj, s2 = cache[t_best]
                best = (float(np.exp(t_best)), float(s2), float(obj))
        return best

    def trace(self) -> LambdaTrace:
        return LambdaTrace(lambdas=self.lambdas, objectives=self.objs,
                           sigma2_opts=self.s2s)


def _parabola(x: float, fx: float, w: float, fw: float, v: float,
              fv: float) -> tuple:
    """(p, q) with q >= 0 and p / q the step from x to the vertex of the
    parabola through (x, fx), (w, fw) and (v, fv); q is zero when the
    three points give no parabola."""
    r = (x - w) * (fx - fv)
    q = (x - v) * (fx - fw)
    p = (x - v) * q - (x - w) * r
    q = 2.0 * (q - r)
    return (-p, q) if q > 0.0 else (p, -q)


def _brent(f, a: float, b: float):
    """Brent's minimization without derivatives (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 5) of f on [a, b]; f
    is a generator function, driven with ``yield from``, whose value is
    inf where the objective is absent.  Returns (x, fx), x the lowest
    value evaluated.

    It starts at the golden point a + (1 - phi)(b - a), phi = ``_GOLDEN``.
    Each step goes to the vertex of the parabola through x, w and v (w the
    point of the next lowest value, v the previous w) when that lies
    inside the bracket and is shorter than half the step before last;
    otherwise it takes a golden step into the larger side.  No parabola is
    fitted while the bracket is wider than ``_PARABOLA_BRACKET``: until
    then every step is golden, and in exact arithmetic the steps visit the
    points of a golden section on [a, b].  A tie fu == fx moves x to u,
    Brent's own rule, so the bracket keeps u's side of x.  A parabola is
    fitted only to finite values: an absent objective (inf) among the
    three points makes the step golden.  A step is never shorter than a
    third of ``_LOG_LAMBDA_TOL``.

    It takes scipy ``fminbound``'s stop with an absolute tolerance only,
    ``_LOG_LAMBDA_TOL`` with no term relative to x: it returns once both
    ends of the bracket are within 2/3 ``_LOG_LAMBDA_TOL`` of x, which
    puts x at least as close to every point of the final bracket as a
    golden section stopped at a bracket ``_LOG_LAMBDA_TOL`` wide.
    """
    tol = _LOG_LAMBDA_TOL / 3.0
    x = w = v = a + (1.0 - _GOLDEN) * (b - a)
    fx = fw = fv = yield from f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if b - a <= _PARABOLA_BRACKET and abs(e) > tol and math.isfinite(fx) \
                and math.isfinite(fw) and math.isfinite(fv):
            p, q = _parabola(x, fx, w, fw, v, fv)
            last, e = e, d
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x < mid else -tol
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = (1.0 - _GOLDEN) * e
        if abs(d) < tol:
            d = -tol if d < 0.0 else tol
        u = x + d
        fu = yield from f(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _solution(ref: FittedGp, delta: SmoothingParams, a: float, best: tuple,
              trace: LambdaTrace) -> tuple:
    """The RpieSolution at best = (lambda*, sigma2_opt, W2) on the
    reference fit ref, and the FittedGp it was read from."""
    lam, s2, obj = best
    theta0 = ref.kernel.theta
    kernel = ref.kernel.with_(sigma2=s2, theta=lam * theta0)
    model = fit_gp(ref.dataset, kernel, ref.trend)
    z = virtual_loo(model).std_resid
    return RpieSolution(
        lambda_star=lam,
        sigma2_opt=s2,
        theta_ref=theta0,
        beta_opt=model.beta_hat.copy(),
        wasserstein2=obj,
        a=a,
        psi_achieved=psi_smoothed_from_residuals(z, a, delta),
        psi_raw=psi_from_residuals(z, a),
        kernel=kernel,
        trace=trace,
    ), model


def _lockstep(sides: list) -> list:
    """Each side's (lambda*, sigma2_opt, W2) from its ``refine``, the
    searches run in lock-step: one evaluation of each side in turn.  So
    each grid lambda is evaluated by every side in turn, and searches that
    share a bracket ask for the same lambda in the same round; the
    calibration's one kept state serves them all."""
    runs = [side.refine() for side in sides]
    results = [None] * len(sides)
    sent = dict.fromkeys(range(len(sides)))     # side -> value to send
    while sent:
        for i, value in list(sent.items()):
            try:
                lam = runs[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
                del sent[i]
            else:
                sent[i] = sides[i].evaluate(lam)
    return results


def _search(ref: FittedGp, levels: tuple, config: RpieConfig) -> list:
    """(a, (lambda*, sigma2_opt, W2), trace) for each quantile level a,
    calibrated on the reference fit ref.

    One calibration state serves every level: the levels' searches run
    in lock-step (``_lockstep``), so the lambda grid is walked once, each
    grid lambda's Gram matrix and per-lambda state serving all levels, and
    the calibration's one kept state serves every level of a search that
    evaluates its lambda.  The state is released on return, before any
    final fit; ref itself is the caller's.
    """
    cal = _Calibration(ref, config)
    sides = [_Side(cal, a) for a in levels]
    return [(side.a, best, side.trace())
            for side, best in zip(sides, _lockstep(sides))]


def sigma_opt(dataset: Dataset, trend: TrendSpec, family: KernelFamily,
              theta: np.ndarray, nugget: float, a: float,
              config: RpieConfig) -> float | None:
    """Smallest amplitude at which psi_delta(sigma2, theta) equals a.

    The search runs on a reference fit at theta and unit amplitude, whose
    law it never forms.  The left end of the first crossing on the scan
    range is returned, to adjacent doubles, so a plateau psi_delta = a
    (n * a an integer) yields its smallest point.  It is solved by regula
    falsi in the grid cell of the crossing; with a positive nugget the scan
    continues past the top of the grid when the grid itself has no
    crossing.  Absence (no crossing anywhere) is a value, not an error; it
    arises in the no-nugget case for extreme length-scales.
    """
    ref = fit_gp(dataset, KernelSpec(family, 1.0, theta, nugget), trend)
    return _Side(_Calibration(ref, config), a).sigma_opt_at(1.0)


def relaxation_objective(dataset: Dataset, trend: TrendSpec,
                         family: KernelFamily, nugget: float,
                         theta0, sigma2_0: float, lam: float, a: float,
                         config: RpieConfig) -> float | None:
    """Relaxed Wasserstein objective L(lambda) at a finite lambda > 0; None
    when no amplitude achieves the target proportion at this lambda."""
    if not 0.0 < lam < math.inf:
        raise InvalidParameterError("lambda must be finite and positive")
    ref = fit_gp(dataset, KernelSpec(family, sigma2_0, theta0, nugget), trend)
    obj, _ = _Side(_Calibration(ref, config), a).evaluate(lam)
    return obj


@single_threaded_blas()
def calibrate_quantile(dataset: Dataset, trend: TrendSpec,
                       family: KernelFamily, nugget: float,
                       theta0, sigma2_0: float, a: float,
                       config: RpieConfig | None = None) -> RpieSolution:
    """Calibrate one quantile side: grid-search L(lambda), refine the best
    cells by Brent's method, and assemble the solution at the minimizer.
    BLAS runs on one thread for the duration of the call, as in
    :func:`calibrate`, so each side of a two-sided calibration is
    bit-identical to this."""
    config = config or RpieConfig()
    ref = fit_gp(dataset, KernelSpec(family, sigma2_0, theta0, nugget), trend)
    (found,) = _search(ref, (a,), config)
    return _solution(ref, config.delta, *found)[0]


@dataclass(frozen=True)
class CalibratedIntervalModel:
    """Two one-sided calibrated models plus the reference they started from."""

    upper: RpieSolution
    lower: RpieSolution
    reference: EstimationResult
    dataset: Dataset
    trend: TrendSpec
    alpha: float
    upper_model: FittedGp = field(repr=False)
    lower_model: FittedGp = field(repr=False)

    def loo_coverage(self) -> float:
        """Step-count LOO coverage: psi_{1-alpha/2}(upper model) minus
        psi_{alpha/2}(lower model), read from the counts each side recorded
        (``psi_raw``), as ``loo_coverage_smoothed`` reads ``psi_achieved``.

        Quantized to 1/n steps; with fractional n*a it sits at least half a
        count above the nominal level, and an extra count appears whenever
        two residuals share a smoothing band.
        """
        return self.upper.psi_raw - self.lower.psi_raw

    def loo_coverage_smoothed(self) -> float:
        """By-construction coverage from the smoothed proportions each side
        was calibrated to; equals 1 - alpha up to root-finding tolerance."""
        return self.upper.psi_achieved - self.lower.psi_achieved

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "upper": self.upper.to_dict(),
            "lower": self.lower.to_dict(),
            "reference": self.reference.to_dict(),
            "trend": self.trend.kind.value,
            "X": [[float(v) for v in row] for row in self.dataset.X],
            "y": [float(v) for v in self.dataset.y],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CalibratedIntervalModel":
        dataset = Dataset(X=np.asarray(doc["X"], dtype=float),
                          y=np.asarray(doc["y"], dtype=float))
        trend = TrendSpec.from_string(doc["trend"])
        reference = EstimationResult.from_dict(doc["reference"])
        alpha = float(doc["alpha"])
        check_alpha(alpha)

        def solution(d):
            kernel = KernelSpec.from_dict(d["kernel"])
            return RpieSolution(
                lambda_star=float(d["lambda_star"]),
                sigma2_opt=float(d["sigma2_opt"]),
                theta_ref=np.asarray(d["theta_ref"], dtype=float),
                beta_opt=np.asarray(d["beta_opt"], dtype=float),
                wasserstein2=float(d["wasserstein2"]),
                a=float(d["a"]),
                psi_achieved=float(d["psi_achieved"]),
                psi_raw=float(d["psi_raw"]),
                kernel=kernel,
                trace=LambdaTrace(np.array([]), np.array([]), np.array([])),
            )

        upper = solution(doc["upper"])
        lower = solution(doc["lower"])
        if (upper.a, lower.a) != (1.0 - alpha / 2.0, alpha / 2.0):
            raise InvalidParameterError("levels must be 1 - alpha/2, alpha/2")
        return cls(
            upper=upper, lower=lower, reference=reference,
            dataset=dataset, trend=trend, alpha=alpha,
            upper_model=fit_gp(dataset, upper.kernel, trend),
            lower_model=fit_gp(dataset, lower.kernel, trend),
        )


@single_threaded_blas()
def calibrate(dataset: Dataset, trend: TrendSpec, family: KernelFamily,
              nugget: float, reference: EstimationResult,
              alpha: float, config: RpieConfig | None = None
              ) -> CalibratedIntervalModel:
    """Calibrate both interval bounds at nominal level 1 - alpha.

    The reference kernel, with this family and this fixed nugget in place
    of its own, is fitted once, and both sides share one calibration state
    built on that fit: the lambda grid is walked once and each grid
    lambda's Gram matrix and per-lambda state serve both, then each side is
    refined by Brent's method.  Each side equals
    ``calibrate_quantile`` at 1 - alpha/2 and alpha/2.  BLAS runs on one
    thread for the duration of the call.
    """
    check_alpha(alpha)
    config = config or RpieConfig()
    ref = fit_gp(dataset, reference.kernel.with_(family=family,
                                                 nugget=nugget), trend)
    found = _search(ref, (1.0 - alpha / 2.0, alpha / 2.0), config)
    (upper, upper_model), (lower, lower_model) = (
        _solution(ref, config.delta, *side) for side in found)
    return CalibratedIntervalModel(
        upper=upper, lower=lower, reference=reference,
        dataset=dataset, trend=trend, alpha=alpha,
        upper_model=upper_model, lower_model=lower_model,
    )


def predict_calibrated(model: CalibratedIntervalModel, x_new):
    """Per-point calibrated bounds; crossings are flagged, never reordered.

    Returns (lower, upper, crossed) where crossed marks points whose upper
    bound fell below the lower one (the two sides are independent models,
    so ordering is not guaranteed).
    """
    mean_up, var_up = predict(model.upper_model, x_new)
    mean_lo, var_lo = predict(model.lower_model, x_new)
    q_up = normal_quantile(model.upper.a)
    q_lo = normal_quantile(model.lower.a)
    upper = mean_up + q_up * np.sqrt(var_up)
    lower = mean_lo + q_lo * np.sqrt(var_lo)
    crossed = upper < lower
    return lower, upper, crossed
