"""Self-test of the benchmark: every workload once at the tiny size
(n=40, d=3), untraced and traced, plus the no-sources refusal.

    python3 perfbench/selftest.py

Checks that the last output line is the result object, that it names every
metric of BENCHMARK.json with its unit and a finite value, that every
output check passed, and that a directory holding only BENCHMARK.json and
perfbench/ makes the benchmark exit non-zero without a result.  Exits 0
when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 600


def _run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT)


def check_result(workload, trace) -> list:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: outputs failed their checks: "
                      f"{proc.stdout.splitlines()[-2][:500]}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result.get('attempted')!r}")
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        errors.append(f"{where}: metric names differ: missing "
                      f"{sorted(set(wanted) - set(got))}, extra "
                      f"{sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        m = got.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r} "
                          f"!= {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {name} value {value!r}")
    return errors


def check_refusal_without_sources() -> list:
    """The benchmark must not run against anything but the checkout."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, "desk", 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without src/ the benchmark did not refuse to run"]
    return []


def main() -> int:
    errors = check_refusal_without_sources()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(workload, trace)
            print(f"{workload} trace={trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    for e in errors:
        print("error:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
