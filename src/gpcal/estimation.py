"""Hyperparameter estimation: profile-likelihood MLE, leave-one-out
MSE cross-validation, and a full-Bayesian predictive baseline.

Both deterministic criteria are minimized by multi-start bounded L-BFGS-B
over log hyperparameters inside scale-aware boxes (length-scales relative
to the per-column input range, amplitude relative to var(y)).  ``n_starts``
is the most starts a fit runs: the starts run in index order, and from the
third on the fit stops once two of them have reached the best value so
far (``_multistart_minimize``).  Each evaluation fits the kernel on the
design prepared once (``_Design``): it builds the scaled distances h and
correlations r(h) once, factors K and solves the GLS state once
(``gp.solve_gls``).  The criterion reads that state and returns its value
with S = d criterion / dK, and ``kernels.covariance_gradient`` maps S, h
and r(h) to the analytic gradient in the optimizer's log coordinates;
``n_evals`` counts value+gradient evaluations.  The Bayesian baseline runs
a random-walk Metropolis chain over the same log coordinates and the same
``_Design`` and propagates the sampled hyperparameters into the
predictive law.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .blas import single_threaded_blas
from .exceptions import (
    EstimationFailureError,
    GpcalError,
    InvalidParameterError,
)
from .gp import Dataset, FittedGp, GlsState, TrendSpec, \
    _check_distinct_rows, _check_kernel_dim, _has_duplicate_rows, \
    _inverse, build_regression_matrix, factor_covariance, fit_gp, \
    predict, solve_gls
from .kernels import KernelFamily, KernelSpec, correlation, \
    covariance_gradient, pairwise_sq_diffs, scaled_distance_matrix
from .loo import loo_mse
from .stats import check_alpha

__all__ = [
    "EstimationResult",
    "McmcConfig",
    "BayesPredictive",
    "mle_objective",
    "msecv_objective",
    "fit_mle",
    "fit_msecv",
    "bayes_predictive",
    "random_walk_metropolis",
]

# Search boxes, as factors of the data scales (each column's input range
# for a length-scale, var(y) for the amplitude and the nugget).
_THETA_BOUNDS = (1e-2, 1e2)
_SIGMA2_BOUNDS = (1e-6, 1e4)
_NUGGET_BOUNDS = (1e-8, 1e4)
# Random starts are drawn log-uniformly from these factors of the same
# scales: the central two decades of the length-scale box, whose corners,
# where R is near I or near 11', are flat.  Over 200 desk fit_mle fits
# (seeds 101-200) a start drawn here takes a median 35 evaluations against
# 78.5 from the whole box, so the fits take 49 % fewer, and against
# whole-box starts they end lower on 4 fits and higher on 1 (morokoff seed
# 105, by 0.91).  In 40-start runs on 30 morokoff and wingweight fits, 541
# of 600 starts from here reached the best optimum against 496 of 600.
_START_BOX = (1e-1, 1e1)
_NUGGET_START_BOX = (1e-4, 1.0)
# Two starts agree when their final values differ by at most this,
# relative to max(1, |f|).  On the desk and acceptance fits, starts that
# end at the same point differ by at most 3.7e-8, and starts that end at
# distinct optima by 5.9e-6 or more, save near-ties along a direction
# the criterion barely resolves (the MSE-CV amplitude with a nugget).
_AGREE_RTOL = 1e-7


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of a hyperparameter fit."""

    kernel: KernelSpec
    objective_value: float
    n_evals: int
    method: str              # "MLE" or "MSE_CV"
    converged: bool

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "objective_value": self.objective_value,
            "n_evals": self.n_evals,
            "method": self.method,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimationResult":
        return cls(kernel=KernelSpec.from_dict(d["kernel"]),
                   objective_value=float(d["objective_value"]),
                   n_evals=int(d["n_evals"]),
                   method=str(d["method"]),
                   converged=bool(d["converged"]))


@dataclass(frozen=True)
class McmcConfig:
    """Random-walk Metropolis settings for the Bayesian baseline.

    The prior is independent standard normal on each log hyperparameter in
    data-standardized coordinates, i.e. log-normal(0, 1) per hyperparameter.
    """

    n_samples: int = 2000
    burn_in: int = 500
    proposal_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_samples:
            raise InvalidParameterError("burn_in must lie in [0, n_samples)")
        if not 0.0 < self.proposal_scale < math.inf:
            raise InvalidParameterError("proposal_scale must lie in (0, inf)")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    """Reject a random seed that is not an integer >= 0."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InvalidParameterError("seed must be an integer >= 0")


def _data_scales(dataset: Dataset) -> tuple:
    """Per-column input ranges and response variance, each replaced by 1
    where it is zero."""
    spans = dataset.X.max(axis=0) - dataset.X.min(axis=0)
    spans = np.where(spans > 0.0, spans, 1.0)
    v = float(np.var(dataset.y))
    if v <= 0.0:
        v = 1.0
    return spans, v


def _profile_nll(gls: GlsState) -> float:
    """Profile NLL y' Kbar y + log det K of a solved state."""
    return gls.quad + 2.0 * float(np.sum(np.log(np.diag(gls.L))))


class _Design:
    """A design and trend prepared for many kernels: F, the squared
    differences (the cache handed in, if any) and, on the first
    zero-nugget fit, the duplicated-row verdict, each built once."""

    def __init__(self, dataset: Dataset, trend: TrendSpec, sq_diffs=None):
        self.dataset = dataset
        self.trend = trend
        self.F = build_regression_matrix(dataset.X, trend)
        self.sq_diffs = pairwise_sq_diffs(dataset.X) if sq_diffs is None \
            else sq_diffs

    @functools.cached_property
    def duplicates(self) -> bool:
        return _has_duplicate_rows(self.dataset.X)

    def fit(self, kernel: KernelSpec) -> tuple:
        """(FittedGp, h, r): the model at kernel, with the scaled distances
        and unit correlations its K was built from; raises what
        ``fit_gp`` raises, by the same checks."""
        _check_kernel_dim(self.dataset, kernel)
        _check_distinct_rows(kernel, lambda: self.duplicates)
        h = scaled_distance_matrix(self.sq_diffs, kernel.theta)
        r = correlation(kernel.family, h)
        K, L, jitter = factor_covariance(kernel.sigma2 * r, kernel.nugget,
                                         kernel.sigma2)
        model = FittedGp(dataset=self.dataset, kernel=kernel,
                         trend=self.trend, F=self.F, K=K,
                         gls=solve_gls(self.F, L, self.dataset.y),
                         jitter_used=jitter)
        return model, h, r


def mle_objective(dataset: Dataset, trend: TrendSpec,
                  kernel: KernelSpec, sq_diffs=None) -> float:
    """Profile negative log-likelihood y' Kbar y + log det K.

    The regression coefficients are profiled out, so the quadratic form uses
    the GLS residuals; log det K comes from the Cholesky diagonal.  Given
    ``sq_diffs``, the design's cached squared differences build K.
    """
    if sq_diffs is None:
        return _profile_nll(fit_gp(dataset, kernel, trend).gls)
    return _profile_nll(_Design(dataset, trend, sq_diffs).fit(kernel)[0].gls)


def msecv_objective(dataset: Dataset, trend: TrendSpec,
                    kernel: KernelSpec) -> float:
    """LOO-MSE quadratic form y' Kbar Diag(Kbar)^{-2} Kbar y (= n * loo_mse)."""
    return dataset.n * loo_mse(fit_gp(dataset, kernel, trend))


def _mle_with_dk(gls: GlsState) -> tuple:
    """Profile NLL and S = dNLL/dK = K^{-1} - (Kbar y)(Kbar y)'."""
    S = _inverse(gls.L)
    S -= np.outer(gls.kbar_y, gls.kbar_y)
    return _profile_nll(gls), S


def _msecv_with_dk(gls: GlsState) -> tuple:
    """LOO-MSE criterion sum e_i^2 and S = d criterion / dK.

    With kb = diag Kbar, e = Kbar y / kb and c = e / kb, dKbar = -Kbar dK
    Kbar gives S = -2 sym(Kbar y (Kbar c)' - Kbar Diag(e^2 / kb) Kbar).
    """
    kbar, ky = gls.kbar, gls.kbar_y
    kb = np.diag(kbar)
    e = ky / kb
    kc = kbar @ (e / kb)
    S = 2.0 * (kbar * (e * e / kb)) @ kbar
    S -= np.outer(ky, kc)
    S -= np.outer(kc, ky)
    return float(e @ e), S


def _multistart_minimize(objective, x0_list, bounds):
    """Bounded L-BFGS-B from the starts in index order until two starts
    agree on the best value; best by (objective, |u| norm).

    ``objective`` returns (value, gradient), or None where the criterion
    cannot be evaluated (a covariance that stays singular after jitter,
    overflow).  The optimizer then sees a finite penalty above every value
    met so far with a zero gradient, so its line search backs away instead
    of stalling on inf.  Each start's end value is read back from the
    values kept per evaluated point (None where it failed, and the start is
    skipped), not from ``res.fun``: after an abnormal line search that is
    the last trial's value, while ``res.x`` is the iterate before it.

    After the third start and after each later one, the search stops when
    some other start already run ended within ``_AGREE_RTOL *
    max(1, |best|)`` of the best value so far.  Two agreeing starts alone
    do not stop it: the first two can agree on a local optimum that a
    later start undercuts.  When no two starts agree, every start runs.
    Starts are run and reduced in index order, so the outcome does not
    depend on any execution interleaving.

    Returns (value, u, n_evals, converged): n_evals counts value+gradient
    evaluations over the starts that ran, and converged is the optimizer's
    own verdict on the start that produced the best point.
    """
    worst = 0.0
    values_at = {}     # point bytes -> value, None where it failed

    def penalized(u):
        nonlocal worst
        out = objective(u)
        values_at[u.tobytes()] = None if out is None else out[0]
        if out is None:
            return 1e6 * max(1.0, worst), np.zeros_like(u)
        worst = max(worst, out[0])
        return out

    # Imported here, its only use, so that a process that never fits does
    # not load scipy.optimize.
    from scipy import optimize

    best = None
    values = []
    total_evals = 0
    for k, x0 in enumerate(x0_list):
        res = optimize.minimize(penalized, x0, jac=True, method="L-BFGS-B",
                                bounds=bounds)
        total_evals += res.nfev
        # L-BFGS-B ends on a point it evaluated: the last one or, after an
        # abnormal line search, the iterate before it.
        value = values_at[res.x.tobytes()]
        if value is not None:
            values.append(value)
            norm = float(np.linalg.norm(res.x))
            if best is None or value < best[0] or \
                    (value == best[0] and norm < best[2]):
                best = (value, np.asarray(res.x, dtype=float), norm,
                        bool(res.success))
        if k >= 2 and best is not None:
            tol = _AGREE_RTOL * max(1.0, abs(best[0]))
            if sum(v - best[0] <= tol for v in values) >= 2:
                break
    if best is None:
        raise EstimationFailureError(
            "all optimizer starts failed to produce a finite objective"
        )
    return best[0], best[1], total_evals, best[3]


def _make_starts(n_params, n_starts, rng, nugget_slot=False):
    """Start points in log coordinates relative to the data scales.

    Start 0 sits at the data scales themselves (u = 0); the rest are drawn
    by ``rng`` log-uniformly from ``_START_BOX`` times those scales
    (uniformly in natural-log coordinates).  A joint-nugget slot draws from
    ``_NUGGET_START_BOX`` instead, since noise variances usually sit well
    below var(y).
    """
    lo, hi = np.log(_START_BOX[0]), np.log(_START_BOX[1])
    starts = [np.zeros(n_params)]
    for _ in range(max(n_starts - 1, 0)):
        u = rng.uniform(lo, hi, size=n_params)
        if nugget_slot:
            u[-1] = rng.uniform(np.log(_NUGGET_START_BOX[0]),
                                np.log(_NUGGET_START_BOX[1]))
        starts.append(u)
    return starts


def _log_objective(criterion, design: _Design, unpack):
    """u -> (value, gradient) of a criterion at the kernel ``unpack(u)``,
    fitted on ``design``.

    ``criterion(gls)`` returns the value and S = d criterion / dK of the
    solved state; the gradient keeps the first len(u) of the (log theta,
    log sigma2, log nugget) partials.  The fit's h and r(h) serve both K
    and the gradient.  Returns None where the criterion cannot be
    evaluated.
    """

    def objective(u):
        try:
            kernel = unpack(u)
            model, h, r = design.fit(kernel)
            value, S = criterion(model.gls)
            grad = covariance_gradient(kernel, design.sq_diffs, h, r,
                                       S)[:u.size]
        except (GpcalError, linalg.LinAlgError, ValueError):
            return None
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            return None
        return value, grad

    return objective


def _fit_kernel(dataset, trend, family, nugget, estimate_nugget,
                criterion, n_starts, seed, sigma2=None):
    """Multi-start fit of the criterion over log theta, log sigma2 (unless
    the amplitude is fixed at ``sigma2``) and, when estimated, the log
    nugget.  Returns (kernel, value, n_evals, converged).  The arguments
    are checked before any start runs, and so is a zero nugget on a design
    with duplicated rows (IllConditionedError)."""
    if not (isinstance(n_starts, numbers.Integral) and n_starts >= 1):
        raise InvalidParameterError("n_starts must be an integer >= 1")
    _check_seed(seed)
    if not 0.0 <= nugget < math.inf:
        raise InvalidParameterError("nugget must be finite and >= 0")
    if dataset.n < 2:
        raise EstimationFailureError("insufficient data: need n >= 2")
    spans, v = _data_scales(dataset)
    d = dataset.d
    boxes = [_THETA_BOUNDS] * d
    if sigma2 is None:
        boxes.append(_SIGMA2_BOUNDS)
    if estimate_nugget:
        boxes.append(_NUGGET_BOUNDS)

    def unpack(u):
        return KernelSpec(
            family=family, theta=spans * np.exp(u[:d]),
            sigma2=v * np.exp(u[d]) if sigma2 is None else sigma2,
            nugget=v * np.exp(u[-1]) if estimate_nugget else nugget)

    design = _Design(dataset, trend)
    # Every start shares the nugget, so a singular design fails them all.
    _check_distinct_rows(unpack(np.zeros(len(boxes))),
                         lambda: design.duplicates)
    rng = np.random.default_rng(seed)
    starts = _make_starts(len(boxes), n_starts, rng,
                          nugget_slot=estimate_nugget)
    value, u_best, n_evals, converged = _multistart_minimize(
        _log_objective(criterion, design, unpack), starts,
        [(np.log(lo), np.log(hi)) for lo, hi in boxes])
    return unpack(u_best), value, n_evals, converged


@single_threaded_blas()
def fit_mle(dataset: Dataset, trend: TrendSpec, family: KernelFamily,
            nugget: float = 0.0, estimate_nugget: bool = False,
            n_starts: int = 5, seed: int = 0) -> EstimationResult:
    """Maximum-likelihood fit of (sigma2, theta) [and optionally the nugget].

    Minimizes the profile objective y' Kbar y + log det K by multi-start
    bounded L-BFGS-B over log hyperparameters, with the analytic gradient
    -(Kbar y)' dK (Kbar y) + tr(K^{-1} dK).  Start 0 sits at the data
    scales (column ranges, var(y)); the others are drawn from ``seed``,
    log-uniformly over [0.1, 10] times those scales (``_START_BOX``, the
    central two decades of the length-scale search box).  ``n_starts`` is
    the most starts run: from the third start on, the fit stops once
    another start has matched the best value so far within 1e-7 relative.
    ``n_evals`` counts value+gradient evaluations of the starts that ran;
    ``converged`` reports whether the start that gave the returned optimum
    met the optimizer's gradient or relative-decrease test.  BLAS runs on
    one thread for the duration of the call.
    """
    kernel, value, n_evals, converged = _fit_kernel(
        dataset, trend, family, nugget, estimate_nugget,
        _mle_with_dk, n_starts, seed)
    return EstimationResult(kernel=kernel, objective_value=value,
                            n_evals=n_evals, method="MLE",
                            converged=converged)


@single_threaded_blas()
def fit_msecv(dataset: Dataset, trend: TrendSpec, family: KernelFamily,
              nugget: float = 0.0, estimate_nugget: bool = False,
              n_starts: int = 5, seed: int = 0) -> EstimationResult:
    """Leave-one-out MSE cross-validation fit.

    Uses the same multi-start bounded L-BFGS-B as :func:`fit_mle`, with
    its starts (start 0 at the data scales, the rest drawn from ``seed``
    over [0.1, 10] times them), its stopping rule (``n_starts`` is the
    most starts run), one BLAS thread, and the analytic gradient that
    follows from dKbar = -Kbar dK Kbar; ``n_evals`` counts value+gradient
    evaluations of the starts that ran.  With a positive (or jointly
    estimated) nugget the criterion is minimized over all
    hyperparameters.  Without a nugget the criterion does not identify
    the amplitude, so the length-scales are fitted first at unit amplitude
    and sigma2 is then set by the closed form

        sigma2 = (1/n) y' Rbar Diag(Rbar)^{-1} Rbar y

    which normalizes the mean squared standardized LOO residual to one.
    """
    if nugget == 0.0 and not estimate_nugget:
        unit, value, n_evals, converged = _fit_kernel(
            dataset, trend, family, 0.0, False, _msecv_with_dk, n_starts,
            seed, sigma2=1.0)
        # Closed-form amplitude at the fitted length-scales.
        ry, rdiag = fit_gp(dataset, unit, trend).gls.kbar_y_diag
        kernel = unit.with_(sigma2=float(np.mean(ry * ry / rdiag)))
    else:
        kernel, value, n_evals, converged = _fit_kernel(
            dataset, trend, family, nugget, estimate_nugget,
            _msecv_with_dk, n_starts, seed)
    return EstimationResult(kernel=kernel, objective_value=value,
                            n_evals=n_evals, method="MSE_CV",
                            converged=converged)


# ---------------------------------------------------------------------------
# Full-Bayesian baseline
# ---------------------------------------------------------------------------

def random_walk_metropolis(log_target, x0: np.ndarray, n_steps: int,
                           step_scale: float, rng: np.random.Generator):
    """Symmetric Gaussian random-walk Metropolis sampler.

    Returns the chain (n_steps x dim, including the start state) and the
    acceptance rate.
    """
    if n_steps < 1:
        raise InvalidParameterError("n_steps must be at least 1")
    x = np.asarray(x0, dtype=float).copy()
    dim = x.size
    chain = np.empty((n_steps, dim))
    lp = log_target(x)
    n_accept = 0
    for i in range(n_steps):
        prop = x + step_scale * rng.standard_normal(dim)
        lp_prop = log_target(prop)
        if np.log(rng.uniform()) < lp_prop - lp:
            x, lp = prop, lp_prop
            n_accept += 1
        chain[i] = x
    return chain, n_accept / n_steps


def _chain(dataset: Dataset, trend: TrendSpec, family: KernelFamily,
           nugget: float, config: McmcConfig, rng: np.random.Generator):
    """Metropolis chain over (log theta, log sigma2) in data-standardized
    coordinates, on the profile likelihood times the lognormal(0,1) prior.

    Returns (unpack: state -> kernel, the states after burn-in, the
    acceptance rate, the ``_Design`` the log-target fitted on).
    """
    spans, v = _data_scales(dataset)
    d = dataset.d
    design = _Design(dataset, trend)

    def unpack(u):
        return KernelSpec(family=family, sigma2=v * np.exp(u[d]),
                          theta=spans * np.exp(u[:d]), nugget=nugget)

    # Every state shares the nugget, so a singular design fails them all.
    _check_distinct_rows(unpack(np.zeros(d + 1)), lambda: design.duplicates)

    def log_target(u):
        try:
            nll = _profile_nll(design.fit(unpack(u))[0].gls)
        except (GpcalError, linalg.LinAlgError, ValueError):
            return -np.inf
        return -0.5 * nll - 0.5 * float(u @ u)

    chain, acc = random_walk_metropolis(
        log_target, np.zeros(d + 1), config.n_samples,
        config.proposal_scale, rng)
    return unpack, chain[config.burn_in:], acc, design


def posterior_mean_kernel(dataset: Dataset, trend: TrendSpec,
                          family: KernelFamily, nugget: float,
                          config: McmcConfig) -> tuple:
    """Plug-in kernel at the posterior mean of the log hyperparameters.

    Runs the same chain as the full predictive and averages the retained
    log-hyperparameter states; used by the CLI to persist a single model
    from a Bayesian fit.  Returns (kernel, acceptance_rate).
    """
    unpack, retained, acc, _ = _chain(dataset, trend, family, nugget, config,
                                      np.random.default_rng(config.seed))
    return unpack(retained.mean(axis=0)), acc


@dataclass(frozen=True)
class BayesPredictive:
    """Posterior-predictive interval summary at the query points."""

    lower: np.ndarray
    upper: np.ndarray
    mean: np.ndarray
    acceptance_rate: float
    warning: str | None = None


def bayes_predictive(dataset: Dataset, trend: TrendSpec,
                     family: KernelFamily, nugget: float,
                     config: McmcConfig, x_new, alpha: float
                     ) -> BayesPredictive:
    """Full-Bayesian prediction intervals by hyperparameter MCMC.

    A random-walk Metropolis chain explores the profile Gaussian likelihood
    times the log-normal prior over log hyperparameters.  Each retained
    sample contributes one posterior draw of the response at every query
    point; the interval is the empirical alpha/2 .. 1-alpha/2 band of those
    draws and the point prediction is their mean.
    """
    check_alpha(alpha)
    rng = np.random.default_rng(config.seed)
    unpack, retained, acc, design = _chain(dataset, trend, family, nugget,
                                           config, rng)

    x_arr = np.asarray(x_new, dtype=float)
    single = x_arr.ndim == 1
    X_new = np.atleast_2d(x_arr)
    m = X_new.shape[0]
    draws = np.empty((retained.shape[0], m))
    prev_u = None
    mean_var = None
    for i, u in enumerate(retained):
        if prev_u is None or not np.array_equal(u, prev_u):
            mean_var = predict(design.fit(unpack(u))[0], X_new)
            prev_u = u
        mu, var = mean_var
        draws[i] = mu + np.sqrt(var) * rng.standard_normal(m)
    lower = np.quantile(draws, alpha / 2.0, axis=0)
    upper = np.quantile(draws, 1.0 - alpha / 2.0, axis=0)
    mean = draws.mean(axis=0)
    warning = None
    if not 0.05 <= acc <= 0.7:
        warning = f"acceptance rate {acc:.3f} outside [0.05, 0.70]"
    if single:
        lower, upper, mean = float(lower[0]), float(upper[0]), float(mean[0])
    return BayesPredictive(lower=lower, upper=upper, mean=mean,
                           acceptance_rate=acc, warning=warning)
