"""The two benchmark workloads and the per-layer probes.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  Inputs come only from the seed.

* ``desk``   the paper's pipeline at desk scale, one operation per canned
             experiment: fit_mle -> fit_gp -> calibrate -> predict on the
             held-out quarter.  The only workload where estimation does most
             of the work.
* ``calib``  two-sided calibrate only, from a known reference kernel, over
             nugget in {1e-2, 0} and alpha in {0.05, 0.1, 0.2}.  RPIE and
             LOO do all the work and estimation none.  The GP draw is on a
             200-point design split 75/25, so each calibration sees 150
             training points.

Each operation's outputs are checked; a failed check or a GpcalError
counts the operation as failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from gpcal import bench as gbench
from gpcal import cli as gcli
from gpcal.estimation import EstimationResult, fit_mle, mle_objective
from gpcal.exceptions import GpcalError
from gpcal.gp import Dataset, TrendSpec, build_regression_matrix, \
    check_hypotheses, compute_kbar, fit_gp, predict
from gpcal.kernels import KernelFamily, KernelSpec, cross_covariance, \
    gram_matrix, pairwise_sq_diffs
from gpcal.loo import SigmaScanBasis, virtual_loo
from gpcal.rpie import RpieConfig, calibrate, calibrate_quantile, \
    predict_calibrated, relaxation_objective, sigma_opt, \
    wasserstein2_gaussians

TREND = TrendSpec.from_string("ordinary")
LAYERS = ("kernels", "gp", "loo", "estimation", "rpie", "bench", "cli")
DESK_ALPHA = 0.1
CALIB_NUGGETS = (1e-2, 0.0)
CALIB_ALPHAS = (0.05, 0.1, 0.2)
CALIB_THETA = 0.8
N_QUERY = 4096            # probe query set: cross-covariance at m=4096
# Set-up is rebuilt in windows of SETUP_WINDOW_S (at least SETUP_MIN_REPS
# builds each): one before the first operation and, in untraced runs, one
# after every operation, and setup_s is the median over all builds.  A
# set-up takes milliseconds, and on a shared host the speed of such short
# calls swings by tens of percent from one tenth of a second to the next
# and drifts over minutes; long windows spread over the run see the same
# host as the operations do.
SETUP_MIN_REPS = 3
SETUP_WINDOW_S = 2.0
CHECK_TOL = 1e-6          # coverage and psi against their targets
MATCH_TOL = 1e-10         # single-point against batch predictions


@dataclass(frozen=True)
class Scale:
    n: int     # design size; 75% trains, 25% is held out
    d: int


FULL = Scale(n=200, d=10)
TINY = Scale(n=40, d=3)


@dataclass(frozen=True)
class DeskCase:
    name: str
    family: KernelFamily
    nugget: float
    noise_var: float
    response: object
    copula: bool


# The two nugget regimes of the amplitude search, configured as the
# acceptance desk fixture configures these experiments.
DESK_CASES = (
    DeskCase("morokoff", KernelFamily.MATERN52, 1e-4, 1e-4,
             gbench.morokoff_caflisch, True),
    DeskCase("zhou_nonugget", KernelFamily.EXPONENTIAL, 0.0, 0.0,
             gbench.zhou_log, False),
)


@dataclass
class Problem:
    """Inputs of one calibration: training data, held-out data, kernel
    family and nugget, and (for known-kernel workloads) the reference."""

    key: str
    seed: int
    family: KernelFamily
    nugget: float
    train: Dataset
    X_test: np.ndarray
    y_test: np.ndarray
    reference: EstimationResult | None = None


# ---------------------------------------------------------------------------
# Run state and checks
# ---------------------------------------------------------------------------

class Run:
    """Counters, timings, outputs and the determinism digest of one run."""

    def __init__(self, workload, scale, seed, seconds, tracer):
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._digest = hashlib.sha256()
        self._first = {}
        self.setup_s = []
        self.setup_build = None   # rebuilds the set-up between operations
        self.op_s = []            # latency of the workload's operation
        self.work_done = 0        # desk seeds or calibrations
        self.work_s = 0.0
        self.fits = []            # EstimationResult of every fit_mle
        self.references = {}      # problem key -> EstimationResult
        self.calibrations = {}    # operation key -> CalibratedIntervalModel
        self.holdout = {}         # operation key -> (cp, mpiw)

    def failure(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def output(self, key: str, fingerprint: bytes) -> bool:
        """Feed an operation's outputs to the digest on first sight; on a
        rerun of the same inputs, require bit-identical outputs."""
        first = self._first.get(key)
        if first is None:
            self._first[key] = fingerprint
            self._digest.update(key.encode())
            self._digest.update(fingerprint)
            return True
        return first == fingerprint

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _fingerprint(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
    return h.digest()


def _calibration_parts(cal):
    return [(s.lambda_star, s.sigma2_opt, s.wasserstein2)
            for s in (cal.upper, cal.lower)]


def _close(a, b) -> bool:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= MATCH_TOL * np.maximum(1.0, np.abs(b))))


def calibration_problems(cal, alpha) -> list:
    out = []
    cov = cal.loo_coverage_smoothed()
    if not abs(cov - (1.0 - alpha)) <= CHECK_TOL:
        out.append(f"smoothed LOO coverage {cov!r} != {1.0 - alpha!r}")
    for side in (cal.upper, cal.lower):
        if not abs(side.psi_achieved - side.a) <= CHECK_TOL:
            out.append(f"psi_achieved {side.psi_achieved!r} != a={side.a!r}")
    return out


def bounds_problems(lo, up) -> list:
    if np.all(np.isfinite(lo)) and np.all(np.isfinite(up)):
        return []
    return ["non-finite predicted bound"]


def _holdout_checks(run, key, cal, prob, lo, up) -> list:
    """Finite bounds, single-point calls equal to the batch on sampled
    points, and the held-out coverage and width."""
    tr = run.tracer
    problems = bounds_problems(lo, up)
    m = prob.X_test.shape[0]
    for i in sorted({0, m // 2, m - 1}):
        with tr.span("rpie.predict_calibrated"):
            lo_i, up_i, _ = predict_calibrated(cal, prob.X_test[i])
        if not (_close(lo_i, lo[i]) and _close(up_i, up[i])):
            problems.append(f"single-point prediction {i} differs from batch")
    with tr.span("bench.compute_metrics"):
        met = gbench.compute_metrics(prob.y_test, None, lo, up)
    run.holdout[key] = (met.cp, met.mpiw)
    return problems


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _split(X, y, seed):
    """The desk fixture's 75/25 split."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7002)))
    idx = rng.permutation(X.shape[0])
    n_train = int(round(0.75 * X.shape[0]))
    tr, te = idx[:n_train], idx[n_train:]
    return Dataset(X=X[tr], y=y[tr]), X[te], y[te]


def desk_problems(run) -> list:
    tr, scale, seed = run.tracer, run.scale, run.seed
    out = []
    for case in DESK_CASES:
        if case.copula:
            C = gbench.MOROKOFF_CORRELATION if scale.d == 10 \
                else np.eye(scale.d)
            spec = gbench.DesignSpec(n=scale.n, d=scale.d, sampling="copula",
                                     correlation=C, seed=seed)
        else:
            spec = gbench.DesignSpec(n=scale.n, d=scale.d, seed=seed)
        with tr.span("bench.sample_design"):
            X = gbench.sample_design(spec)
        with tr.span(f"bench.{case.response.__name__}"):
            y = np.asarray(case.response(X), dtype=float)
        if case.noise_var > 0.0:
            noise = np.random.default_rng(np.random.SeedSequence((seed, 7001)))
            y = y + math.sqrt(case.noise_var) * noise.standard_normal(y.size)
        train, X_test, y_test = _split(X, y, seed)
        out.append(Problem(case.name, seed, case.family, case.nugget,
                           train, X_test, y_test))
    return out


def hypothesis_checks(run, problems) -> tuple:
    """The runtime hypotheses H1-H3 of the amplitude search
    (gp.check_hypotheses) for every problem at both quantile levels of
    alpha = 0.1.  Returns the k_eps counts and the failed checks."""
    counts, failed = [], []
    for prob in problems:
        kernel = KernelSpec(family=prob.family, sigma2=1.0,
                            theta=np.ones(run.scale.d), nugget=prob.nugget)
        for a in (1.0 - DESK_ALPHA / 2.0, DESK_ALPHA / 2.0):
            with run.tracer.span("gp.check_hypotheses"):
                report = check_hypotheses(prob.train, TREND, kernel, a)
            counts.append(report.k_eps)
            if not (report.h1 and report.h2 and report.h3):
                failed.append(f"{prob.key}: hypotheses at a={a!r}: {report}")
    return counts, failed


def known_kernel_problems(run) -> list:
    """GP draws on a uniform design from the known Matern 5/2 kernel
    (theta = 0.8, sigma2 = 1) of each nugget case, with that kernel as the
    reference."""
    tr, scale, seed = run.tracer, run.scale, run.seed
    with tr.span("bench.sample_design"):
        X = gbench.sample_design(gbench.DesignSpec(n=scale.n, d=scale.d,
                                                   seed=seed))
    out = []
    for nugget in CALIB_NUGGETS:
        kernel = KernelSpec(family=KernelFamily.MATERN52, sigma2=1.0,
                            theta=np.full(scale.d, CALIB_THETA),
                            nugget=nugget)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7003)))
        with tr.span("bench.sample_gp_response"):
            y = gbench.sample_gp_response(X, kernel, rng)
        train, X_test, y_test = _split(X, y, seed)
        with tr.span("estimation.mle_objective"):
            nll = mle_objective(train, TREND, kernel)
        reference = EstimationResult(kernel=kernel, objective_value=nll,
                                     n_evals=0, method="KNOWN",
                                     converged=True)
        out.append(Problem(f"nugget={nugget!r}", seed, kernel.family, nugget,
                           train, X_test, y_test, reference))
    return out


def query_set(run) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((run.seed, 7004)))
    return rng.uniform(size=(N_QUERY, run.scale.d))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def desk_op(run, prob) -> None:
    """fit_mle -> fit_gp -> calibrate -> predict_calibrated on one seed of
    one experiment."""
    tr = run.tracer
    run.attempted += 1
    try:
        t0 = time.perf_counter()
        with tr.span("workload.desk_seed"):
            with tr.span("estimation.fit_mle"):
                ref = fit_mle(prob.train, TREND, prob.family,
                              nugget=prob.nugget, seed=prob.seed)
            with tr.span("gp.fit_gp"):
                fit_gp(prob.train, ref.kernel, TREND)
            with tr.span("rpie.calibrate"):
                cal = calibrate(prob.train, TREND, prob.family, prob.nugget,
                                ref, DESK_ALPHA)
            with tr.span("rpie.predict_calibrated"):
                lo, up, _ = predict_calibrated(cal, prob.X_test)
        dt = time.perf_counter() - t0
        problems = calibration_problems(cal, DESK_ALPHA)
        problems += _holdout_checks(run, prob.key, cal, prob, lo, up)
    except GpcalError as exc:
        run.failure(f"{prob.key}: {type(exc).__name__}: {exc}")
        return
    run.fits.append(ref)
    _finish_op(run, prob.key, dt, problems, ref, cal, lo, up)
    run.references[prob.key] = ref


def calibrate_op(run, prob, alpha) -> None:
    """One two-sided calibration from the problem's known reference."""
    tr = run.tracer
    key = f"{prob.key},alpha={alpha!r}"
    run.attempted += 1
    try:
        t0 = time.perf_counter()
        with tr.span("rpie.calibrate"):
            cal = calibrate(prob.train, TREND, prob.family, prob.nugget,
                            prob.reference, alpha)
        dt = time.perf_counter() - t0
        problems = calibration_problems(cal, alpha)
        with tr.span("rpie.predict_calibrated"):
            lo, up, _ = predict_calibrated(cal, prob.X_test)
        problems += _holdout_checks(run, key, cal, prob, lo, up)
    except GpcalError as exc:
        run.failure(f"{key}: {type(exc).__name__}: {exc}")
        return
    _finish_op(run, key, dt, problems, prob.reference, cal, lo, up)
    run.references[prob.key] = prob.reference


def _finish_op(run, key, dt, problems, ref, cal, lo, up) -> None:
    """Digest the outputs (reference kernel and NLL, lambda*, sigma2_opt
    and W2 per side, held-out bounds), count a failed check, keep the
    timing."""
    k = ref.kernel
    fp = _fingerprint(k.theta, k.sigma2, k.nugget, ref.objective_value,
                      _calibration_parts(cal), lo, up)
    if not run.output(key, fp):
        problems.append("rerun outputs differ")
    if problems:
        run.failure(f"{key}: {problems[0]}")
    run.op_s.append(dt)
    run.work_done += 1
    run.work_s += dt
    run.calibrations[key] = cal


def _passes(run, one_pass) -> None:
    """At least one whole pass, then more while the run has time left."""
    start = time.perf_counter()
    one_pass()
    while time.perf_counter() - start < run.seconds:
        one_pass()


def _setup_window(run, build):
    """Build the set-up at least SETUP_MIN_REPS times and for at least
    SETUP_WINDOW_S, timing each build.  A build returns (result,
    fingerprint, failed input checks); every build must give the outputs
    of the first.  Returns the last result; None when a build fails, which
    fails the set-up operation."""
    result = None
    start = time.perf_counter()
    reps = 0
    while (reps < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_WINDOW_S):
        try:
            t0 = time.perf_counter()
            result, fp, problems = build()
            run.setup_s.append(time.perf_counter() - t0)
        except GpcalError as exc:
            run.failure(f"setup: {type(exc).__name__}: {exc}")
            return None
        reps += 1
        if problems:
            run.failure(f"setup: {problems[0]}")
            return None
        if not run.output("setup", fp):
            run.failure("setup: rebuild outputs differ")
            return None
    return result


def _timed_setup(run, build):
    """The set-up, counted as one operation: its first window of builds.
    Untraced runs rebuild it after every operation (see _between_ops)."""
    run.attempted += 1
    run.setup_build = build
    return _setup_window(run, build)


def _between_ops(run) -> None:
    """One more window of set-up builds, outside every operation's timing.
    Traced runs skip it, so their spans hold only the workload's calls."""
    if run.setup_build is not None and not run.tracer.enabled:
        if _setup_window(run, run.setup_build) is None:
            run.setup_build = None


def _problems_fingerprint(problems) -> bytes:
    return _fingerprint(*[a for p in problems
                          for a in (p.train.X, p.train.y, p.X_test, p.y_test)])


# -- desk --------------------------------------------------------------------

def desk_setup(run):
    """Draw the inputs and check that they meet the hypotheses H1-H3 the
    amplitude search needs, so that a failed calibration points at gpcal
    and not at the draw."""
    def build():
        probs = desk_problems(run)
        counts, failed = hypothesis_checks(run, probs)
        return probs, _problems_fingerprint(probs) + _fingerprint(counts), \
            failed
    return _timed_setup(run, build)


def desk_unit(run, problems) -> None:
    if problems is None:
        return
    def one_pass():
        for prob in problems:
            desk_op(run, prob)
            _between_ops(run)
    _passes(run, one_pass)


# -- calib -------------------------------------------------------------------

def calib_setup(run):
    def build():
        probs = known_kernel_problems(run)
        fp = _problems_fingerprint(probs) + _fingerprint(
            [p.reference.objective_value for p in probs])
        return probs, fp, []
    return _timed_setup(run, build)


def calib_unit(run, problems) -> None:
    if problems is None:
        return
    def one_pass():
        for prob in problems:
            for alpha in CALIB_ALPHAS:
                calibrate_op(run, prob, alpha)
                _between_ops(run)
    _passes(run, one_pass)


SETUPS = {"desk": desk_setup, "calib": calib_setup}
UNITS = {"desk": desk_unit, "calib": calib_unit}


# ---------------------------------------------------------------------------
# Per-layer probes (traced run only)
# ---------------------------------------------------------------------------

def probe_contexts(run, data) -> list:
    """(problem, reference, calibrated model, queries) for each problem the
    workload calibrated at alpha = 0.1."""
    if data is None:
        return []
    Q = query_set(run)
    out = []
    for prob in data:
        key = prob.key if run.workload == "desk" \
            else f"{prob.key},alpha={DESK_ALPHA!r}"
        if key in run.calibrations:
            out.append((prob, run.references[prob.key],
                        run.calibrations[key], Q))
    return out


def probe_layers(run, prob, reference, cal, queries, workdir,
                 fit: bool) -> None:
    """Time each layer's public calls on this workload's own inputs.

    Reps per call keep the median of short calls steady.  ``fit`` runs
    fit_mle where the workload itself does not.
    """
    tr = run.tracer
    train, k = prob.train, reference.kernel
    X, y = train.X, train.y
    a = 1.0 - DESK_ALPHA / 2.0
    config = RpieConfig()

    for _ in range(10):
        with tr.span("kernels.gram_matrix"):
            gram_matrix(X, k)
    for _ in range(3):
        with tr.span("kernels.cross_covariance"):
            cross_covariance(X, queries, k)
    for _ in range(10):
        with tr.span("gp.fit_gp"):
            model = fit_gp(train, k, TREND)
    for _ in range(5):
        with tr.span("gp.fit_gp"):
            fresh = fit_gp(train, k, TREND)
        with tr.span("gp.compute_kbar"):
            compute_kbar(fresh)
    for i in range(50):
        with tr.span("gp.predict_b1"):
            predict(model, queries[i])
    for _ in range(3):
        with tr.span("gp.predict_b4096"):
            predict(model, queries)
    for _ in range(5):
        with tr.span("loo.virtual_loo"):
            virtual_loo(model)
    with tr.span("gp.build_regression_matrix"):
        F = build_regression_matrix(X, TREND)
    for _ in range(5):
        with tr.span("loo.SigmaScanBasis"):
            basis = SigmaScanBasis(X, y, F, k.family, k.theta, k.nugget)
    for _ in range(200):
        with tr.span("loo.std_residuals"):
            basis.std_residuals(k.sigma2)
    for _ in range(10):
        with tr.span("estimation.mle_objective"):
            mle_objective(train, TREND, k)
    with tr.span("kernels.pairwise_sq_diffs"):
        sq = pairwise_sq_diffs(X)
    for _ in range(10):
        # As the optimizer evaluates it: squared differences cached.
        with tr.span("estimation.mle_objective_cached"):
            mle_objective(train, TREND, k, sq)
    if fit:
        with tr.span("estimation.fit_mle"):
            run.fits.append(fit_mle(train, TREND, k.family, nugget=k.nugget,
                                    seed=prob.seed))

    lambdas = config.lambda_grid.points()[10::10]
    for lam in lambdas:
        with tr.span("rpie.sigma_opt"):
            sigma_opt(train, TREND, k.family, lam * k.theta, k.nugget, a,
                      config)
    for lam in lambdas:
        with tr.span("rpie.relaxation_objective"):
            relaxation_objective(train, TREND, k.family, k.nugget, k.theta,
                                 k.sigma2, lam, a, config)
    up = cal.upper_model
    for _ in range(5):
        with tr.span("rpie.wasserstein2_gaussians"):
            wasserstein2_gaussians(model.F @ model.beta_hat, model.K,
                                   up.F @ up.beta_hat, up.K)
    with tr.span("rpie.calibrate_quantile"):
        calibrate_quantile(train, TREND, k.family, k.nugget, k.theta,
                           k.sigma2, a, config)
    _probe_cli(run, cal, queries, workdir)


def _probe_cli(run, cal, queries, workdir) -> None:
    """``gpcal predict`` in-process on a stored calibrated model and a
    query CSV; its output must equal predict_calibrated."""
    run.attempted += 1
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        model_path = os.path.join(tmp, "calibrated.json")
        data_path = os.path.join(tmp, "queries.csv")
        out_path = os.path.join(tmp, "pred.csv")
        doc = cal.to_dict()
        doc["standardization"] = None
        doc["columns"] = []
        with open(model_path, "w") as fh:
            json.dump(doc, fh)
        with open(data_path, "w") as fh:
            fh.write(",".join(f"x{j}" for j in range(queries.shape[1]))
                     + "\n")
            for row in queries:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        with run.tracer.span("cli.main"):
            code = gcli.main(["predict", "--model", model_path,
                              "--data", data_path, "--out", out_path])
        if code != 0:
            run.failure(f"cli predict exited {code}")
            return
        got = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=2)
    lo, up, _ = predict_calibrated(cal, queries)
    if not (_close(got[:, 1], lo) and _close(got[:, 2], up)):
        run.failure("cli predict output differs from predict_calibrated")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def machine_ref_ms(reps: int = 20) -> float:
    """Median wall ms of a fixed kernel outside gpcal (Cholesky and
    eigendecomposition of one 150 x 150 SPD matrix).  It tracks how fast
    the machine ran during the run, so runs on a busy host can be told
    apart from changes in gpcal."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((150, 150))
    K = A @ A.T + 150.0 * np.eye(150)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.cholesky(K)
        np.linalg.eigh(K)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    return statistics.median(values) if values else math.nan


def end_to_end(run) -> dict:
    return {
        "setup_s": _median(run.setup_s),
        "op_p50_ms": 1e3 * _median(run.op_s),
        "throughput_per_s": (run.work_done / run.work_s
                             if run.work_s > 0 else math.nan),
        "peak_rss_mb": peak_rss_mb(),
    }


def quality(run) -> dict:
    """Non-timing outputs of the run: reference NLL, W2 at the chosen
    lambda, admissible lambda share, held-out coverage and width."""
    refs = list(run.references.values())
    cals = list(run.calibrations.values())
    w2 = [s.wasserstein2 for c in cals for s in (c.upper, c.lower)]
    objs = np.concatenate([s.trace.objectives for c in cals
                           for s in (c.upper, c.lower)]) if cals else []
    hold = list(run.holdout.values())
    return {
        "ref_nll": float(np.mean([r.objective_value for r in refs]))
        if refs else math.nan,
        "w2_star": float(np.mean(w2)) if w2 else math.nan,
        "lambda_admissible_frac": float(np.mean(np.isfinite(objs)))
        if len(objs) else math.nan,
        "lambda_evals": float(len(objs) / len(cals)) if cals else math.nan,
        "holdout_cp": float(np.mean([h[0] for h in hold]))
        if hold else math.nan,
        "mpiw": float(np.mean([h[1] for h in hold])) if hold else math.nan,
    }


def per_layer(run, unit_spans: tuple, overhead_pct: float) -> dict:
    """Per-layer metrics: call timings from the probes, and each layer's
    self time from the spans of the measured workload, unit_spans =
    (first, stop), alone."""
    tr = run.tracer

    def med(name, scale=1.0):
        return scale * _median(tr.durations(name))

    qual = quality(run)
    fits = run.fits
    n_evals = float(np.mean([f.n_evals for f in fits])) if fits else math.nan
    ms_per_eval = med("estimation.mle_objective_cached", 1e3)
    relax_ms = med("rpie.relaxation_objective", 1e3)
    out = {
        "kernels.gram_ms": med("kernels.gram_matrix", 1e3),
        "kernels.cross_cov_ms": med("kernels.cross_covariance", 1e3),
        "gp.fit_gp_ms": med("gp.fit_gp", 1e3),
        "gp.compute_kbar_ms": med("gp.compute_kbar", 1e3),
        "gp.predict_b1_ms": med("gp.predict_b1", 1e3),
        "gp.predict_b4096_ms": med("gp.predict_b4096", 1e3),
        "loo.virtual_loo_ms": med("loo.virtual_loo", 1e3),
        "loo.scan_basis_ms": med("loo.SigmaScanBasis", 1e3),
        "loo.std_resid_us": med("loo.std_residuals", 1e6),
        "estimation.nll_ms": med("estimation.mle_objective", 1e3),
        "estimation.ms_per_eval": ms_per_eval,
        "estimation.fit_mle_s": med("estimation.fit_mle"),
        "estimation.n_evals": n_evals,
        "estimation.attributed_s": n_evals * ms_per_eval / 1e3,
        "estimation.converged_frac": float(np.mean([f.converged
                                                    for f in fits]))
        if fits else math.nan,
        "estimation.ref_nll": qual["ref_nll"],
        "rpie.sigma_opt_ms": med("rpie.sigma_opt", 1e3),
        "rpie.relax_obj_ms": relax_ms,
        "rpie.w2_ms": med("rpie.wasserstein2_gaussians", 1e3),
        "rpie.calibrate_quantile_s": med("rpie.calibrate_quantile"),
        "rpie.calibrate_s": med("rpie.calibrate"),
        "rpie.lambda_evals": qual["lambda_evals"],
        "rpie.attributed_s": qual["lambda_evals"] * relax_ms / 1e3,
        "rpie.lambda_admissible_frac": qual["lambda_admissible_frac"],
        "rpie.w2_star": qual["w2_star"],
        "bench.design_ms": med("bench.sample_design", 1e3),
        "bench.holdout_cp": qual["holdout_cp"],
        "bench.mpiw": qual["mpiw"],
        "cli.predict_s": med("cli.main"),
        "workload.trace_overhead_pct": overhead_pct,
    }
    self_s = tr.self_seconds(*unit_spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
