"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads desk,calib]
        [--trace 0|1] [--out FILE] [--compare FILE]

Runs one process at a time, each exactly as BENCHMARK.json's command with
its run_seconds.  For every workload and metric it prints the median, the
quartiles from statistics.quantiles(n=4), and the spread (q3 - q1) /
median against the metric's bound.  --out writes every run (metrics,
record, digest) plus the summary as JSON; --compare checks this sweep
against such a file: the medians may not be worse by more than the bound,
and the determinism digest of every (workload, seed) must be identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 900


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("# record "):]) for line in lines
                  if line.startswith("# record "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": result, "record": record}


def summarize(runs, trace) -> dict:
    spec = SPEC["per_layer" if trace else "end_to_end"]
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == wl]
        out[wl] = {"correct": all(r["result"]["correct"] for r in rows),
                   "failed": sum(r["result"]["failed"] for r in rows),
                   "attempted": sum(r["result"]["attempted"] for r in rows),
                   "metrics": {}}
        for m in spec:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(vals)
            entry = {"unit": m["unit"], "median": med, "values": vals}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / abs(med) if med else None)
            if "bound" in m:
                entry["bound"] = m["bound"]
            out[wl]["metrics"][m["name"]] = entry
    return out


def print_summary(summary) -> None:
    for wl, s in summary.items():
        print(f"{wl}: correct={s['correct']} failed={s['failed']}"
              f"/{s['attempted']}")
        for name, e in s["metrics"].items():
            spread = e.get("spread")
            flag = ""
            if "bound" in e and spread is not None:
                flag = ("ok" if spread <= e["bound"] / 3 else
                        "within bound" if spread <= e["bound"] else "WIDE")
            print(f"  {name:<30} {e['median']:>14.6g} {e['unit']:<6}"
                  + (f" spread {spread:7.4f}" if spread is not None else "")
                  + (f" bound {e['bound']:<5} {flag}" if flag else ""))


def compare(summary, runs, other) -> list:
    problems = []
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    for wl, s in summary.items():
        for name, e in s["metrics"].items():
            base = other["summary"].get(wl, {}).get("metrics", {}).get(name)
            if base is None or "bound" not in e:
                continue
            change = (e["median"] - base["median"]) / abs(base["median"])
            worse = change if better[name] == "lower" else -change
            status = "WORSE" if worse > e["bound"] else "ok"
            print(f"  {wl:<8} {name:<20} {base['median']:>12.6g} -> "
                  f"{e['median']:<12.6g} {100 * change:+7.2f} %  {status}")
            if status != "ok":
                problems.append(f"{wl} {name} worse by {100 * worse:.1f} %")
    digests = {(r["workload"], r["seed"]): r["record"]["digest"]
               for r in other["runs"]}
    for r in runs:
        key = (r["workload"], r["seed"])
        if key in digests and digests[key] != r["record"]["digest"]:
            problems.append(f"{key}: determinism digest differs")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    runs = []
    for wl in args.workloads.split(","):
        for seed in args.seeds:
            runs.append(run_once(wl, seed, args.trace))
            m = runs[-1]["result"]["metrics"]
            ref = runs[-1]["record"]["figures"]["machine_ref_ms"]
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in m.items())
                + f"  [machine_ref_ms {ref[0]:.3f}..{ref[1]:.3f}]",
                flush=True)
    summary = summarize(runs, args.trace)
    print_summary(summary)
    problems = []
    if args.compare:
        problems = compare(summary, runs,
                           json.loads(Path(args.compare).read_text()))
        for p in problems:
            print("problem:", p)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"spec": SPEC, "environment": runs[0]["record"]["environment"],
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
