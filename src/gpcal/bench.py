"""Analytical test functions, design generators, interval metrics, and the
desk-scale experiment runner.

Four canned experiments are provided:

* ``wingweight``     well-specified response with Gaussian noise (variance
                     25) on the aircraft wing-weight function, Matern 3/2.
* ``morokoff``       misspecified noisy response (noise variance 1e-4) on
                     the Morokoff-Caflisch product function over a Gaussian
                     copula design, Matern 5/2.
* ``zhou_nonugget``  misspecified noiseless response on the log-scaled Zhou
                     spike function, exponential kernel, no nugget.
* ``zhou_nugget``    same response fitted with a Matern 3/2 kernel and a
                     small fixed nugget (1.71e-2).

Each seed generates a design, splits 75/25, fits the requested reference
methods, calibrates the interval bounds, and reports coverage/width metrics.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .blas import single_threaded_blas
from .estimation import McmcConfig, bayes_predictive, fit_mle, fit_msecv
from .exceptions import DataError, DomainError, InvalidMatrixError, \
    InvalidParameterError
from .gp import Dataset, TrendSpec, _interval, build_covariance, fit_gp, \
    predict
from .kernels import KernelFamily, KernelSpec
from .loo import loo_coverage
from .rpie import calibrate, predict_calibrated
from .stats import check_alpha, normal_cdf

__all__ = [
    "WING_WEIGHT_BOUNDS",
    "MOROKOFF_CORRELATION",
    "wing_weight",
    "morokoff_caflisch",
    "zhou_log",
    "DesignSpec",
    "sample_design",
    "sample_gp_response",
    "IntervalMetrics",
    "compute_metrics",
    "ExperimentScale",
    "BenchRow",
    "BenchReport",
    "run_experiment",
    "experiment_split",
    "experiment_holdout",
    "EXPERIMENT_NAMES",
    "write_report_csv",
    "write_summary_json",
    "write_lambda_trace_csv",
]

# Input ranges [a_j, b_j] for the wing-weight function; the sweep angle
# x_4 is given in degrees.
WING_WEIGHT_BOUNDS = np.array([
    [150.0, 200.0],
    [220.0, 300.0],
    [6.0, 10.0],
    [-10.0, 10.0],
    [16.0, 45.0],
    [0.5, 1.0],
    [0.08, 0.18],
    [2.5, 6.0],
    [1700.0, 2500.0],
    [0.025, 0.08],
])

# Correlation of the Gaussian copula for the Morokoff experiment.  The
# printed source is symmetric except for the (1,6) pair, where only the
# 0.05 choice yields a positive semi-definite matrix, so that one is used.
MOROKOFF_CORRELATION = np.array([
    [1.00, 0.90, 0.00, 0.00, 0.00, 0.05, -0.30, 0.00, 0.00, 0.00],
    [0.90, 1.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.10, 0.00, 0.00],
    [0.00, 0.00, 1.00, 0.00, -0.30, 0.10, 0.40, 0.00, 0.05, 0.00],
    [0.00, 0.00, 0.00, 1.00, 0.40, 0.00, 0.00, -0.35, 0.00, 0.00],
    [0.00, 0.00, -0.30, 0.40, 1.00, 0.00, 0.00, 0.00, 0.10, 0.00],
    [0.05, 0.00, 0.10, 0.00, 0.00, 1.00, 0.00, 0.00, 0.00, 0.00],
    [-0.30, 0.00, 0.40, 0.00, 0.00, 0.00, 1.00, 0.00, 0.00, -0.30],
    [0.00, 0.10, 0.00, -0.35, 0.00, 0.00, 0.00, 1.00, 0.00, 0.00],
    [0.00, 0.00, 0.05, 0.00, 0.10, 0.00, 0.00, 0.00, 1.00, 0.00],
    [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, -0.30, 0.00, 0.00, 1.00],
])


def _as_batch(x, d_expected=None):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if d_expected is not None and X.shape[1] != d_expected:
        raise DomainError(f"expected {d_expected}-dimensional input")
    return X, single


def wing_weight(x):
    """Aircraft wing-weight response on the 10-dimensional box.

    The sweep angle x_4 is interpreted in degrees and converted to radians
    inside the cosines.  Inputs outside the component ranges raise
    DomainError.
    """
    X, single = _as_batch(x, 10)
    lo, hi = WING_WEIGHT_BOUNDS[:, 0], WING_WEIGHT_BOUNDS[:, 1]
    if np.any(X < lo) or np.any(X > hi):
        raise DomainError("wing-weight input outside its component ranges")
    Sw, Wfw, A = X[:, 0], X[:, 1], X[:, 2]
    Lam = np.deg2rad(X[:, 3])
    q, lam, tc = X[:, 4], X[:, 5], X[:, 6]
    Nz, Wdg, Wp = X[:, 7], X[:, 8], X[:, 9]
    f = (0.036 * Sw ** 0.758 * Wfw ** 0.0035
         * (A / np.cos(Lam) ** 2) ** 0.6
         * q ** 0.006 * lam ** 0.04
         * (100.0 * tc / np.cos(Lam)) ** (-0.3)
         * (Nz * Wdg) ** 0.49
         + Sw * Wp)
    return float(f[0]) if single else f


def morokoff_caflisch(x):
    """Morokoff-Caflisch product function on the unit cube:
    0.5 * (1 + 1/d)^d * prod_i x_i^(1/d)."""
    X, single = _as_batch(x)
    if np.any(X < 0.0) or np.any(X > 1.0):
        raise DomainError("input outside the unit cube")
    d = X.shape[1]
    f = 0.5 * (1.0 + 1.0 / d) ** d * np.prod(X ** (1.0 / d), axis=1)
    return float(f[0]) if single else f


def zhou_log(x):
    """Log-scaled Zhou spike function, evaluated entirely in log space.

    f(x) = (10^d / 2) [phi(10(x - 1/3)) + phi(10(x - 2/3))] with phi the
    standard normal density kernel; the response is log(f) / (d log 10).
    The log-sum-exp evaluation keeps d = 10 corners finite.
    """
    X, single = _as_batch(x)
    if np.any(X < 0.0) or np.any(X > 1.0):
        raise DomainError("input outside the unit cube")
    d = X.shape[1]
    const = -0.5 * d * math.log(2.0 * math.pi)
    lp1 = const - 0.5 * np.sum((10.0 * (X - 1.0 / 3.0)) ** 2, axis=1)
    lp2 = const - 0.5 * np.sum((10.0 * (X - 2.0 / 3.0)) ** 2, axis=1)
    log_f = d * math.log(10.0) - math.log(2.0) + np.logaddexp(lp1, lp2)
    out = log_f / (d * math.log(10.0))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DesignSpec:
    """Design generator: uniform box or Gaussian copula with correlation C."""

    n: int
    d: int
    sampling: str = "uniform"        # "uniform" or "copula"
    bounds: np.ndarray | None = None  # (d, 2); defaults to the unit cube
    correlation: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise DataError("design needs n >= 1 and d >= 1")
        if self.sampling not in ("uniform", "copula"):
            raise DataError(f"unknown sampling: {self.sampling!r}")


def _validate_correlation(C: np.ndarray) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidMatrixError("correlation matrix must be square")
    if not np.allclose(np.diag(C), 1.0, atol=1e-12):
        raise InvalidMatrixError("correlation matrix needs a unit diagonal")
    if float(np.abs(C - C.T).max()) > 1e-12:
        raise InvalidMatrixError("correlation matrix must be symmetric")
    w = np.linalg.eigvalsh(C)
    if w.min() < -1e-10:
        raise InvalidMatrixError(
            f"correlation matrix is not PSD (min eigenvalue {w.min():.3e})"
        )
    return C


def sample_design(spec: DesignSpec) -> np.ndarray:
    """Draw the design matrix; deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    if spec.sampling == "uniform":
        bounds = spec.bounds
        if bounds is None:
            bounds = np.column_stack([np.zeros(spec.d), np.ones(spec.d)])
        bounds = np.asarray(bounds, dtype=float)
        u = rng.uniform(size=(spec.n, spec.d))
        return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])
    C = spec.correlation if spec.correlation is not None else np.eye(spec.d)
    C = _validate_correlation(C)
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        # PSD but singular: factor through the clipped eigendecomposition.
        w, U = np.linalg.eigh(C)
        L = U * np.sqrt(np.maximum(w, 0.0))
    Z = rng.standard_normal((spec.n, spec.d)) @ L.T
    return normal_cdf(Z)


def sample_gp_response(X: np.ndarray, kernel: KernelSpec,
                       rng: np.random.Generator) -> np.ndarray:
    """One zero-mean draw of the Gaussian law implied by the kernel
    (nugget included), for well-specified simulation studies."""
    _, L, _ = build_covariance(np.atleast_2d(X), kernel)
    return L @ rng.standard_normal(L.shape[0])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalMetrics:
    q2: float
    cp: float
    mpiw: float
    sdpiw: float


def compute_metrics(y_test, means, lowers, uppers) -> IntervalMetrics:
    """Out-of-sample accuracy and interval-quality metrics.

    q2 compares squared errors against the spread around the test-set mean,
    so a constant predictor at that mean scores 0; it is NaN when means is
    None.  Widths of crossed bounds count as empty (zero length).
    """
    y_test = np.asarray(y_test, dtype=float).ravel()
    if y_test.size == 0:
        raise DataError("empty test set")
    lowers = np.asarray(lowers, dtype=float).ravel()
    uppers = np.asarray(uppers, dtype=float).ravel()
    if lowers.size != y_test.size or uppers.size != y_test.size:
        raise DataError("metric inputs must have equal lengths")
    if means is None:
        q2 = math.nan
    else:
        means = np.asarray(means, dtype=float).ravel()
        if means.size != y_test.size:
            raise DataError("metric inputs must have equal lengths")
        sse = float(np.sum((y_test - means) ** 2))
        sst = float(np.sum((y_test - float(np.mean(y_test))) ** 2))
        q2 = 1.0 - sse / sst if sst > 0.0 else math.nan
    cp = float(np.mean((y_test >= lowers) & (y_test <= uppers)))
    widths = np.maximum(uppers - lowers, 0.0)
    mpiw = float(np.mean(widths))
    sdpiw = float(np.std(widths))
    return IntervalMetrics(q2=q2, cp=cp, mpiw=mpiw, sdpiw=sdpiw)


# ---------------------------------------------------------------------------
# Experiment runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentScale:
    """n >= 3 points per seed (the 75/25 split keeps two to train and one
    to test), d >= 1 inputs and seeds >= 1 seeds."""

    n: int = 200
    d: int = 10
    seeds: int = 5

    def __post_init__(self):
        for name, least in (("n", 3), ("d", 1), ("seeds", 1)):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < least:
                raise InvalidParameterError(
                    f"{name} must be an integer >= {least}, got {v!r}")


@dataclass(frozen=True)
class _ExperimentConfig:
    fn: object
    family: KernelFamily
    nugget: float
    noise_var: float
    design: str                  # "wingweight-box", "copula", "unitcube"
    fixed_d: int | None = None


_EXPERIMENTS = {
    "wingweight": _ExperimentConfig(
        fn=wing_weight, family=KernelFamily.MATERN32, nugget=25.0,
        noise_var=25.0, design="wingweight-box", fixed_d=10),
    "morokoff": _ExperimentConfig(
        fn=morokoff_caflisch, family=KernelFamily.MATERN52, nugget=1e-4,
        noise_var=1e-4, design="copula"),
    "zhou_nonugget": _ExperimentConfig(
        fn=zhou_log, family=KernelFamily.EXPONENTIAL, nugget=0.0,
        noise_var=0.0, design="unitcube"),
    "zhou_nugget": _ExperimentConfig(
        fn=zhou_log, family=KernelFamily.MATERN32, nugget=1.71e-2,
        noise_var=0.0, design="unitcube"),
}

EXPERIMENT_NAMES = tuple(sorted(_EXPERIMENTS))


@dataclass(frozen=True)
class BenchRow:
    experiment: str
    seed: int
    method: str
    q2: float
    loo_cp: float
    cp: float
    mpiw: float
    sdpiw: float
    fit_seconds: float
    calibrate_seconds: float
    converged: bool      # the reference fit's verdict; True for bayes
    n_evals: int         # optimizer evaluations; MCMC samples for bayes


@dataclass(frozen=True)
class BenchReport:
    rows: list
    summary: dict
    calibrations: dict   # (seed, method) -> CalibratedIntervalModel


def _experiment_design(cfg: _ExperimentConfig, scale: ExperimentScale,
                       n: int, seed) -> np.ndarray:
    d = cfg.fixed_d or scale.d
    if cfg.design == "wingweight-box":
        spec = DesignSpec(n=n, d=10, sampling="uniform",
                          bounds=WING_WEIGHT_BOUNDS, seed=seed)
    elif cfg.design == "copula":
        C = MOROKOFF_CORRELATION if d == 10 else np.eye(d)
        spec = DesignSpec(n=n, d=d, sampling="copula",
                          correlation=C, seed=seed)
    else:
        spec = DesignSpec(n=n, d=d, sampling="uniform", seed=seed)
    return sample_design(spec)


def _experiment_sample(cfg: _ExperimentConfig, scale: ExperimentScale,
                       n: int, design_seed, noise_seed) -> tuple:
    """n inputs from the experiment's design law and their noisy responses.

    The one place that draws (X, y), so the training sample and any
    held-out sample follow the same law.
    """
    X = _experiment_design(cfg, scale, n, design_seed)
    y = np.asarray(cfg.fn(X), dtype=float)
    if cfg.noise_var > 0.0:
        noise_rng = np.random.default_rng(noise_seed)
        y = y + math.sqrt(cfg.noise_var) * noise_rng.standard_normal(y.size)
    return X, y


def _config(name: str) -> _ExperimentConfig:
    if name not in _EXPERIMENTS:
        raise DataError(
            f"unknown experiment {name!r}; valid names: "
            + ", ".join(EXPERIMENT_NAMES))
    return _EXPERIMENTS[name]


def experiment_split(name: str, scale: ExperimentScale, seed: int) -> tuple:
    """The 75/25 split one seed of an experiment trains and tests on.

    Returns (train Dataset, X_test, y_test).  The design is seeded by
    ``seed``, the noise by SeedSequence((seed, 7001)) and the split by
    SeedSequence((seed, 7002)).
    """
    X, y = _experiment_sample(_config(name), scale, scale.n, seed,
                              np.random.SeedSequence((seed, 7001)))
    split_rng = np.random.default_rng(np.random.SeedSequence((seed, 7002)))
    idx = split_rng.permutation(scale.n)
    n_train = int(round(0.75 * scale.n))
    tr, te = idx[:n_train], idx[n_train:]
    return Dataset(X=X[tr], y=y[tr]), X[te], y[te]


def experiment_holdout(name: str, scale: ExperimentScale, seed: int,
                       n: int) -> tuple:
    """A fresh (X, y) sample of size n from one seed's experiment law.

    Inputs follow the experiment's design law seeded by
    SeedSequence((seed, 7003)), noise is seeded by SeedSequence((seed,
    7004)); the sample is independent of the seed's training split.  Large
    n estimates coverage probabilities far more finely than the test split.
    """
    return _experiment_sample(_config(name), scale, n,
                              np.random.SeedSequence((seed, 7003)),
                              np.random.SeedSequence((seed, 7004)))


def _run_seed(name, cfg, scale, methods, alpha, seed):
    train, X_test, y_test = experiment_split(name, scale, seed)
    trend = TrendSpec.from_string("ordinary")

    rows = []
    calibrations = {}
    for method in sorted(methods):
        if method == "bayes":
            t0 = time.perf_counter()
            config = McmcConfig(seed=seed)
            pred = bayes_predictive(train, trend, cfg.family, cfg.nugget,
                                    config, X_test, alpha)
            fit_s = time.perf_counter() - t0
            metrics = compute_metrics(y_test, pred.mean, pred.lower,
                                      pred.upper)
            rows.append(BenchRow(
                experiment=name, seed=seed, method="bayes",
                q2=metrics.q2, loo_cp=math.nan, cp=metrics.cp,
                mpiw=metrics.mpiw, sdpiw=metrics.sdpiw,
                fit_seconds=fit_s, calibrate_seconds=0.0,
                converged=True, n_evals=config.n_samples))
            continue
        fitter = fit_mle if method == "mle" else fit_msecv
        t0 = time.perf_counter()
        reference = fitter(train, trend, cfg.family, nugget=cfg.nugget,
                           seed=seed)
        fit_s = time.perf_counter() - t0
        model = fit_gp(train, reference.kernel, trend)
        means, var = predict(model, X_test)
        lo, up = _interval(means, var, alpha)
        metrics = compute_metrics(y_test, means, lo, up)
        rows.append(BenchRow(
            experiment=name, seed=seed, method=method,
            q2=metrics.q2, loo_cp=loo_coverage(model, alpha),
            cp=metrics.cp, mpiw=metrics.mpiw, sdpiw=metrics.sdpiw,
            fit_seconds=fit_s, calibrate_seconds=0.0,
            converged=reference.converged, n_evals=reference.n_evals))

        t0 = time.perf_counter()
        calibrated = calibrate(train, trend, cfg.family, cfg.nugget,
                               reference, alpha)
        cal_s = time.perf_counter() - t0
        lo_c, up_c, _ = predict_calibrated(calibrated, X_test)
        metrics_c = compute_metrics(y_test, None, lo_c, up_c)
        rows.append(BenchRow(
            experiment=name, seed=seed, method=method + "_rpie",
            q2=math.nan, loo_cp=calibrated.loo_coverage(),
            cp=metrics_c.cp, mpiw=metrics_c.mpiw, sdpiw=metrics_c.sdpiw,
            fit_seconds=fit_s, calibrate_seconds=cal_s,
            converged=reference.converged, n_evals=reference.n_evals))
        calibrations[(seed, method)] = calibrated
    return rows, calibrations


def run_experiment(name: str, scale: ExperimentScale | None = None,
                   methods=("mle",), alpha: float = 0.1) -> BenchReport:
    """Run one canned experiment across seeds and collect the report.

    Seeds run in order on the caller's thread with BLAS on one thread, and
    each seed appends its rows in method order, so rows are ordered by
    (seed, method).  ``calibrations`` maps (seed, method) to the
    CalibratedIntervalModel of each non-Bayesian reference fit.  ``methods``
    is a list or tuple of one or more of "mle", "msecv" and "bayes", each
    run once whatever its count; any other value is rejected before a seed
    runs.
    """
    check_alpha(alpha)
    methods = set(methods) if isinstance(methods, (list, tuple)) else set()
    if not methods or not methods <= {"mle", "msecv", "bayes"}:
        raise InvalidParameterError("methods must list mle, msecv or bayes")
    scale = scale or ExperimentScale()
    cfg = _config(name)
    rows, calibrations = [], {}
    with single_threaded_blas():
        for seed in range(scale.seeds):
            seed_rows, seed_cals = _run_seed(name, cfg, scale, methods,
                                             alpha, seed)
            rows += seed_rows
            calibrations.update(seed_cals)

    summary = {}
    for method in sorted({r.method for r in rows}):
        sub = [r for r in rows if r.method == method]
        summary[method] = {}
        for col in ("q2", "loo_cp", "cp", "mpiw", "sdpiw"):
            vals = np.array([getattr(r, col) for r in sub])
            vals = vals[np.isfinite(vals)]
            summary[method][col] = {
                "mean": float(vals.mean()) if vals.size else None,
                "sd": float(vals.std()) if vals.size else None,
            }
    return BenchReport(rows=rows, summary=summary,
                       calibrations=calibrations)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("experiment", "seed", "method", "q2", "loo_cp", "cp",
                "mpiw", "sdpiw", "fit_seconds", "calibrate_seconds",
                "converged", "n_evals")


def _fmt(v) -> str:
    # repr(float(...)) is the shortest exact decimal; the cast also strips
    # numpy scalar types whose repr is not parseable.
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_report_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in _CSV_COLUMNS)
                     + "\n")


def write_summary_json(report: BenchReport, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump(report.summary, fh, indent=1, sort_keys=True)


def write_lambda_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("lambda,objective,sigma2_opt\n")
        for lam, obj, s2 in zip(trace.lambdas, trace.objectives,
                                trace.sigma2_opts):
            fh.write(f"{float(lam)!r},{float(obj)!r},{float(s2)!r}\n")
