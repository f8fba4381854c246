"""gpcal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {desk,calib} --seed N \
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the root of a source checkout: gpcal is imported from ./src and
nowhere else.  BLAS and RPIE_THREADS are pinned to one thread before numpy
loads.  The run builds its inputs from the seed, measures for at least
``--seconds`` (always whole operations, so one run of a workload whose
operation outlasts the budget measures exactly one pass), checks every
output, and prints:

* ``# record {...}``   environment, the workload's figures under
                       descriptive names (seed_s or calibrate_s, ref_nll,
                       w2_star, error_rate, ...), the machine reference
                       time at start and end, the determinism digest and
                       any failures;
* with ``--trace 1``, the layer self-time tables, the attribution table and
  the tracing overhead, and the spans in ``.bench_work/``;
* last, one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
  the end-to-end metrics untraced, the per-layer metrics traced.

A traced run measures the workload once with spans on, reports the tracer's
share of that time (spans recorded times the measured cost of one span),
and then probes every layer's public calls on the workload's own inputs.
``<layer>.self_s`` comes from the workload's spans alone; the probes' self
time is printed in a table of its own.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "RPIE_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("desk", "calib")


def _import_gpcal():
    """Import gpcal from this checkout's src/ only; None when absent."""
    if not (SRC / "gpcal" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import gpcal
    if Path(gpcal.__file__).resolve().parent != SRC / "gpcal":
        return None
    return gpcal


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is not a stable API
        return "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gpcal").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


FIGURE_NAMES = {"desk": "seed_s", "calib": "calibrate_s"}


def span_cost_s(reps: int = 20000) -> float:
    """Wall seconds one span costs, timed on a scratch tracer."""
    from tracing import Tracer
    tracer = Tracer(True, 0)
    t0 = time.perf_counter()
    for _ in range(reps):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - t0) / reps


def _print_tables(wl, layer_metrics, tracer, unit_spans):
    first, stop = unit_spans
    for title, self_s in (("workload", tracer.self_seconds(first, stop)),
                          ("probes", tracer.self_seconds(stop))):
        total = sum(self_s.values()) or math.nan
        print(f"# layer self time ({title})")
        for layer in wl.LAYERS + ("workload",):
            s = self_s.get(layer, 0.0)
            print(f"#   {layer:<11} {s:10.4f} s  {100 * s / total:5.1f} %")
    m = layer_metrics
    rows = [
        ("estimation", "n_evals x ms_per_eval", m["estimation.attributed_s"],
         "fit_mle_s", m["estimation.fit_mle_s"]),
        ("rpie", "lambda_evals x relax_obj_ms", m["rpie.attributed_s"],
         "calibrate_s", m["rpie.calibrate_s"]),
    ]
    print("# attribution        predicted_s  measured_s  predicted/measured")
    for layer, what, pred, name, meas in rows:
        ratio = pred / meas if meas else math.nan
        print(f"#   {layer:<10} {pred:12.4f} {meas:11.4f}  {ratio:8.3f}"
              f"   ({what} vs {name})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny (n=40, d=3) is for the self-test")
    args = parser.parse_args(argv)

    if _import_gpcal() is None:
        print(f"error: gpcal sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads as wl
    from tracing import Tracer

    scale = wl.FULL if args.scale == "full" else wl.TINY
    traced = args.trace == 1
    run = wl.Run(args.workload, scale, args.seed, args.seconds,
                 Tracer(traced, args.seed))
    machine_ref = [wl.machine_ref_ms()]
    data = wl.SETUPS[args.workload](run)
    t0 = time.perf_counter()
    spans_before = len(run.tracer.spans)
    wl.UNITS[args.workload](run, data)
    unit_s = time.perf_counter() - t0
    unit_spans = (spans_before, len(run.tracer.spans))
    if traced:
        # Tracer time inside the unit: spans it recorded times the measured
        # cost of one span, as a share of the unit's untraced wall time.
        tracer_s = (unit_spans[1] - unit_spans[0]) * span_cost_s()
        overhead = 100.0 * tracer_s / (unit_s - tracer_s)
        WORK.mkdir(exist_ok=True)
        for prob, ref, cal, Q in wl.probe_contexts(run, data):
            wl.probe_layers(run, prob, ref, cal, Q, WORK,
                            fit=args.workload != "desk")
        metrics = wl.per_layer(run, unit_spans, overhead)
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        span_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        run.tracer.write_jsonl(span_path)
    else:
        metrics = wl.end_to_end(run)
        units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}

    machine_ref.append(wl.machine_ref_ms())
    attempted, failed = run.attempted, run.failed
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": {"n": scale.n, "d": scale.d},
        "environment": environment(),
        "figures": {
            FIGURE_NAMES[args.workload]: wl._median(run.op_s),
            "setup_s": wl._median(run.setup_s),
            **{k: v for k, v in wl.quality(run).items()
               if k in ("ref_nll", "w2_star", "holdout_cp", "mpiw")},
            "error_rate": failed / attempted if attempted else None,
            "peak_rss_mb": wl.peak_rss_mb(),
            "ops": len(run.op_s),
            "machine_ref_ms": machine_ref,
        },
        "digest": run.digest,
        "failures": run.failures,
    }
    if traced:
        record["trace_overhead_pct"] = overhead
        record["spans"] = str(span_path.relative_to(ROOT))
        _print_tables(wl, metrics, run.tracer, unit_spans)
    print("# record " + json.dumps(_clean(record)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _clean(float(metrics[name])),
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _clean(obj):
    """JSON-safe copy: non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
