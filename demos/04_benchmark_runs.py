"""Run a reduced-scale canned experiment and inspect the report.

The full desk-scale configuration (n=200, d=10, 5 seeds) lives behind the
command line (`gpcal benchmark morokoff --out-dir out/`); this script runs
a miniature version in-process so it finishes in seconds.
"""

from gpcal import ExperimentScale, run_experiment

report = run_experiment(
    "morokoff",
    scale=ExperimentScale(n=60, d=3, seeds=2),
    methods=("mle",),
    alpha=0.1,
)

print(f"{'seed':>4} {'method':>10} {'q2':>7} {'loo_cp':>7} {'cp':>6} "
      f"{'mpiw':>8} {'sdpiw':>8}")
for row in report.rows:
    q2 = "  n.c" if row.q2 != row.q2 else f"{row.q2:7.3f}"
    print(f"{row.seed:>4} {row.method:>10} {q2:>7} {row.loo_cp:7.3f} "
          f"{row.cp:6.2f} {row.mpiw:8.4f} {row.sdpiw:8.4f}")

print("\nper-method means across seeds:")
for method, cols in report.summary.items():
    cp = cols["cp"]["mean"]
    mpiw = cols["mpiw"]["mean"]
    print(f"  {method:>10}: cp {cp:.3f}, mpiw {mpiw:.4f}")

# Each calibrated model keeps its lambda traces for plotting.
(seed, method), calibrated = sorted(report.calibrations.items())[0]
trace = calibrated.upper.trace
print(f"\nlambda trace for seed {seed}, {method}, upper bound: "
      f"{len(trace.lambdas)} grid points")
