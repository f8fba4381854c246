"""Command-line surface: fit, calibrate, predict, diagnose, benchmark.

Exit codes form a stable scripting contract:

    0  success
    2  usage error (bad flags, unknown experiment name, bad RPIE_THREADS)
    3  data error (malformed CSV, schema mismatch)
    4  numerical or hypothesis failure

An input file that cannot be opened (missing, a directory, unreadable)
is a data error; an output that cannot be written (its directory missing
or not a directory) is a usage error.

Every run writes a ``*.manifest.json`` next to its outputs recording the
inputs (with hashes), flags, seed, and library versions.  Per-column
z-score standardization is on by default; the transform is stored with the
model and inverted at prediction time, so predictions come back in the
original units.  Every command runs with BLAS set to one thread (see
``gpcal.blas``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np
import scipy

from . import __version__
from .bench import EXPERIMENT_NAMES, ExperimentScale, run_experiment, \
    write_lambda_trace_csv, write_report_csv, write_summary_json
from .blas import single_threaded_blas
from .estimation import EstimationResult, McmcConfig, fit_mle, fit_msecv, \
    mle_objective, posterior_mean_kernel
from .exceptions import DataError, DomainError, GpcalError, \
    InvalidParameterError, UsageError
from .gp import Dataset, TrendSpec, _interval, fit_gp, model_from_dict, \
    model_to_dict, predict
from .kernels import KernelFamily
from .loo import SmoothingParams, virtual_loo
from .rpie import CalibratedIntervalModel, GridSpec, RpieConfig, calibrate, \
    predict_calibrated
from .stats import check_alpha

__all__ = ["main", "ingest_csv"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _open_input(path, **kwargs):
    """The input file at path opened for reading; a DataError when it
    cannot be opened."""
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}")


def _parse_numeric_csv(path):
    """Header + float matrix; non-numeric and non-finite cells name their
    data row."""
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}")
        header = [h.strip() for h in header]
        rows = []
        for i, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {i} has {len(row)} cells, expected "
                    f"{len(header)}")
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value at row {i}")
            if not all(map(math.isfinite, values)):
                raise DataError(f"{path}: non-finite value at row {i}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def ingest_csv(path, target_column: str) -> Dataset:
    """Load a numeric CSV with a header row into a Dataset."""
    header, data = _parse_numeric_csv(path)
    if target_column not in header:
        raise DataError(
            f"{path}: missing target column {target_column!r}; columns "
            f"are {header}")
    t = header.index(target_column)
    y = data[:, t]
    X = np.delete(data, t, axis=1)
    names = tuple(h for i, h in enumerate(header) if i != t)
    return Dataset(X=X, y=y, column_names=names)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

def _standardize(dataset: Dataset):
    x_mean = dataset.X.mean(axis=0)
    x_scale = dataset.X.std(axis=0)
    x_scale = np.where(x_scale > 0.0, x_scale, 1.0)
    y_mean = float(dataset.y.mean())
    y_scale = float(dataset.y.std())
    if y_scale <= 0.0:
        y_scale = 1.0
    transform = {
        "x_mean": [float(v) for v in x_mean],
        "x_scale": [float(v) for v in x_scale],
        "y_mean": y_mean,
        "y_scale": y_scale,
    }
    std = Dataset(X=(dataset.X - x_mean) / x_scale,
                  y=(dataset.y - y_mean) / y_scale,
                  column_names=dataset.column_names)
    return std, transform


def _apply_x_transform(X, transform):
    if transform is None:
        return X
    mean = np.asarray(transform["x_mean"], dtype=float)
    scale = np.asarray(transform["x_scale"], dtype=float)
    return (X - mean) / scale


def _y_back(values, transform):
    if transform is None:
        return values
    return transform["y_mean"] + transform["y_scale"] * np.asarray(values)


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_path, args, input_paths):
    manifest = {
        "tool": "gpcal",
        "version": __version__,
        "subcommand": args.subcommand,
        "flags": {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func",)},
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in input_paths
                   if p and os.path.exists(p)},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

# Interval level of ``predict`` on a plain model.
_PREDICT_ALPHA = 0.1


def _alpha_type(text):
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    try:
        check_alpha(v)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if 1.0 - v / 2.0 == 1.0:
        raise argparse.ArgumentTypeError(
            f"alpha {text} is too small: 1 - alpha/2 rounds to 1")
    return v


def _nugget_type(text):
    if text == "joint":
        return ("joint", None)
    if text.startswith("fixed:"):
        try:
            v = float(text[len("fixed:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad nugget value: {text!r}")
        if not 0.0 <= v < math.inf:
            raise argparse.ArgumentTypeError(
                "nugget must be finite and >= 0")
        return ("fixed", v)
    raise argparse.ArgumentTypeError(
        "nugget must be 'fixed:<value>' or 'joint'")


def _seed_type(text):
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return v


def _lambda_grid_type(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "lambda grid must be 'lo,hi,count'")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda grid: {text!r}")
    try:
        return dataclasses.astuple(GridSpec(lo, hi, count))
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_model_doc(path):
    """The JSON document at path, the model it holds and its reference
    fit: a CalibratedIntervalModel when it has both bounds, else a
    FittedGp.  A missing or mistyped field is a DataError."""
    with _open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON ({exc})")
    try:
        if "upper" in doc and "lower" in doc:
            model = CalibratedIntervalModel.from_dict(doc)
            reference = model.reference
        else:
            model = model_from_dict(doc)
            reference = EstimationResult(
                kernel=model.kernel, objective_value=math.nan, n_evals=0,
                method="LOADED", converged=True)
            if doc.get("estimation"):
                reference = EstimationResult.from_dict(doc["estimation"])
        # The stored transform must apply to the stored design.
        transform = doc.get("standardization")
        _y_back(_apply_x_transform(model.dataset.X, transform), transform)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a model document, missing or "
                        f"mistyped field ({type(exc).__name__}: {exc})")
    return doc, model, reference


def cmd_fit(args) -> int:
    if args.method == "bayes" and args.nugget[0] == "joint":
        raise UsageError("--method bayes needs a fixed --nugget")
    dataset = ingest_csv(args.data, args.target)
    transform = None
    work = dataset
    if args.standardize:
        work, transform = _standardize(dataset)
    mode, value = args.nugget
    if mode == "fixed":
        nugget = value
        if transform is not None:
            nugget = value / transform["y_scale"] ** 2
        estimate_nugget = False
    else:
        nugget = 0.0
        estimate_nugget = True
    trend = TrendSpec.from_string(args.trend)
    family = KernelFamily.from_string(args.kernel)

    if args.method == "bayes":
        config = McmcConfig(seed=args.seed)
        kernel, acc = posterior_mean_kernel(work, trend, family, nugget,
                                            config)
        result = EstimationResult(
            kernel=kernel,
            objective_value=mle_objective(work, trend, kernel),
            n_evals=config.n_samples, method="BAYES", converged=True)
    elif args.method == "mle":
        result = fit_mle(work, trend, family, nugget=nugget,
                         estimate_nugget=estimate_nugget, seed=args.seed)
    else:
        result = fit_msecv(work, trend, family, nugget=nugget,
                           estimate_nugget=estimate_nugget, seed=args.seed)

    model = fit_gp(work, result.kernel, trend)
    doc = model_to_dict(model)
    doc["standardization"] = transform
    doc["columns"] = list(dataset.column_names or [])
    doc["estimation"] = result.to_dict()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    _write_manifest(args.out, args, [args.data])
    print(json.dumps(result.to_dict(), indent=1))
    return 0


def cmd_calibrate(args) -> int:
    try:
        delta = SmoothingParams(args.delta)
        delta.validate_for(1.0 - args.alpha / 2.0)
    except InvalidParameterError as exc:
        raise UsageError(f"--delta: {exc}")
    doc, model, reference = _load_model_doc(args.reference)
    if isinstance(model, CalibratedIntervalModel):
        raise DataError(f"{args.reference}: calibrate expects a fitted "
                        "model, not a calibrated interval model")
    config = RpieConfig(delta=delta, lambda_grid=GridSpec(*args.lambda_grid))
    calibrated = calibrate(model.dataset, model.trend, model.kernel.family,
                           model.kernel.nugget, reference, args.alpha,
                           config)
    out_doc = calibrated.to_dict()
    out_doc["standardization"] = doc.get("standardization")
    out_doc["columns"] = doc.get("columns", [])
    with open(args.out, "w") as fh:
        json.dump(out_doc, fh, indent=1)
    stem = os.path.splitext(args.out)[0]
    write_lambda_trace_csv(calibrated.upper.trace,
                           stem + "_lambda_trace_upper.csv")
    write_lambda_trace_csv(calibrated.lower.trace,
                           stem + "_lambda_trace_lower.csv")
    _write_manifest(args.out, args, [args.reference])
    print(json.dumps({
        "lambda_star_upper": calibrated.upper.lambda_star,
        "lambda_star_lower": calibrated.lower.lambda_star,
        "psi_upper": calibrated.upper.psi_achieved,
        "psi_lower": calibrated.lower.psi_achieved,
        "loo_coverage": calibrated.loo_coverage(),
    }, indent=1))
    return 0


def _read_features(path, doc, d_model):
    """The feature matrix of the CSV at path: its columns picked by the
    names the model document stores, every one required, or taken by
    position when the document stores none."""
    header, data = _parse_numeric_csv(path)
    columns = doc.get("columns") or []
    if columns:
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataError(f"{path}: missing feature columns {missing}; "
                            f"columns are {header}")
        data = data[:, [header.index(c) for c in columns]]
    if data.shape[1] != d_model:
        raise DataError(
            f"{path}: model expects {d_model} feature columns, got "
            f"{data.shape[1]}")
    return data


def cmd_predict(args) -> int:
    doc, model, _ = _load_model_doc(args.model)
    calibrated = isinstance(model, CalibratedIntervalModel)
    if calibrated and args.alpha is not None:
        raise UsageError(f"--alpha: a calibrated model has its own level "
                         f"(alpha={model.alpha!r})")
    if args.alpha is None and not calibrated:
        args.alpha = _PREDICT_ALPHA
    transform = doc.get("standardization")
    X_raw = _read_features(args.data, doc, model.dataset.d)
    X = _apply_x_transform(X_raw, transform)
    if calibrated:
        lower, upper, crossed = predict_calibrated(model, X)
        mean = 0.5 * (lower + upper)   # interval barycenter
    else:
        mean, var = predict(model, X)
        lower, upper = _interval(mean, var, args.alpha)
        crossed = np.zeros(mean.shape, dtype=bool)
    mean = _y_back(mean, transform)
    lower = _y_back(lower, transform)
    upper = _y_back(upper, transform)
    with open(args.out, "w") as fh:
        fh.write("mean,lower,upper,crossed_flag\n")
        for m, lo, up, c in zip(np.atleast_1d(mean), np.atleast_1d(lower),
                                np.atleast_1d(upper), np.atleast_1d(crossed)):
            fh.write(f"{float(m)!r},{float(lo)!r},{float(up)!r},{int(c)}\n")
    if calibrated and np.array_equal(model.dataset.X, X):
        y_train = _y_back(model.dataset.y, transform)
        covered = float(np.mean((y_train >= np.atleast_1d(lower))
                                & (y_train <= np.atleast_1d(upper))))
        print(f"training-input coverage sanity: {covered:.4f} "
              f"(nominal {1 - model.alpha:.4f})")
    _write_manifest(args.out, args, [args.model, args.data])
    return 0


def cmd_diagnose(args) -> int:
    doc, model, _ = _load_model_doc(args.model)
    if isinstance(model, CalibratedIntervalModel):
        raise DataError("diagnose expects a plain model, not a calibrated "
                        "interval model")
    transform = doc.get("standardization")
    diag = virtual_loo(model)
    y = _y_back(model.dataset.y, transform)
    loo_mean = _y_back(diag.loo_mean, transform)
    scale = transform["y_scale"] if transform else 1.0
    loo_sd = np.sqrt(diag.loo_var) * scale
    with open(args.out, "w") as fh:
        fh.write("index,y,loo_mean,loo_sd,std_resid\n")
        for i in range(model.n):
            fh.write(f"{i},{float(y[i])!r},{float(loo_mean[i])!r},"
                     f"{float(loo_sd[i])!r},{float(diag.std_resid[i])!r}\n")
    _write_manifest(args.out, args, [args.model])
    return 0


def cmd_benchmark(args) -> int:
    try:
        scale = ExperimentScale(n=args.n, d=args.d, seeds=args.seeds)
    except InvalidParameterError as exc:
        raise UsageError(f"--{exc}")
    os.makedirs(args.out_dir, exist_ok=True)
    report = run_experiment(args.name, scale=scale,
                            methods=tuple(args.methods), alpha=args.alpha)
    report_path = os.path.join(args.out_dir, f"{args.name}_report.csv")
    write_report_csv(report.rows, report_path)
    write_summary_json(report, os.path.join(args.out_dir,
                                            f"{args.name}_summary.json"))
    for (seed, method), cal in sorted(report.calibrations.items()):
        for side, solution in (("upper", cal.upper), ("lower", cal.lower)):
            name = f"{args.name}_seed{seed}_{method}_{side}_lambda_trace.csv"
            write_lambda_trace_csv(solution.trace,
                                   os.path.join(args.out_dir, name))
    _write_manifest(report_path, args, [])
    print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcal",
        description="Gaussian-process regression with coverage-calibrated "
                    "prediction intervals.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit kernel hyperparameters")
    p_fit.add_argument("--data", required=True, help="training CSV")
    p_fit.add_argument("--target", required=True, help="response column")
    p_fit.add_argument("--method", choices=("mle", "msecv", "bayes"),
                       default="mle")
    p_fit.add_argument("--kernel", choices=("exp", "m32", "m52", "sqexp"),
                       default="m52")
    p_fit.add_argument("--trend", choices=("ordinary", "universal"),
                       default="ordinary")
    p_fit.add_argument("--nugget", type=_nugget_type,
                       default=("fixed", 0.0),
                       help="'fixed:<value>' (original units) or 'joint'")
    p_fit.add_argument("--seed", type=_seed_type, default=0)
    p_fit.add_argument("--no-standardize", dest="standardize",
                       action="store_false",
                       help="fit on raw columns instead of z-scores")
    p_fit.add_argument("--out", default="model.json")
    p_fit.set_defaults(func=cmd_fit)

    p_cal = sub.add_parser("calibrate",
                           help="calibrate interval bounds to a coverage "
                                "level")
    p_cal.add_argument("--reference", required=True,
                       help="fitted model JSON")
    p_cal.add_argument("--alpha", type=_alpha_type, default=0.1)
    p_cal.add_argument("--delta", type=float, default=0.01)
    grid = RpieConfig().lambda_grid
    p_cal.add_argument("--lambda-grid", type=_lambda_grid_type,
                       default=dataclasses.astuple(grid),
                       dest="lambda_grid",
                       help="'lo,hi,count' for the length-scale factor grid "
                            f"(default {grid.lo:g},{grid.hi:g},{grid.count})")
    p_cal.add_argument("--out", default="calibrated.json")
    p_cal.set_defaults(func=cmd_calibrate)

    p_pre = sub.add_parser("predict", help="predict with interval bounds")
    p_pre.add_argument("--model", required=True,
                       help="model JSON (plain or calibrated)")
    p_pre.add_argument("--data", required=True, help="feature CSV")
    p_pre.add_argument("--alpha", type=_alpha_type,
                       help=f"plain models only (default {_PREDICT_ALPHA}); "
                       "a calibrated model has its own")
    p_pre.add_argument("--out", default="predictions.csv")
    p_pre.set_defaults(func=cmd_predict)

    p_dia = sub.add_parser("diagnose",
                           help="export leave-one-out diagnostics")
    p_dia.add_argument("--model", required=True)
    p_dia.add_argument("--out", default="diagnostics.csv")
    p_dia.set_defaults(func=cmd_diagnose)

    p_ben = sub.add_parser("benchmark", help="run a canned experiment")
    p_ben.add_argument("name", choices=EXPERIMENT_NAMES,
                       help="experiment name")
    p_ben.add_argument("--n", type=int, default=200)
    p_ben.add_argument("--d", type=int, default=10)
    p_ben.add_argument("--seeds", type=int, default=5)
    p_ben.add_argument("--alpha", type=_alpha_type, default=0.1)
    p_ben.add_argument("--methods", nargs="+", default=["mle"],
                       choices=("mle", "msecv", "bayes"))
    p_ben.add_argument("--out-dir", default="bench_out", dest="out_dir")
    p_ben.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with single_threaded_blas():
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except GpcalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # Inputs are opened by _open_input, so this is an output.
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
