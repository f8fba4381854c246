"""The gpcal calls the benchmark in perfbench/ makes, with its argument
shapes, on a 20-point problem.

perfbench/workloads.py traces these calls; a change to a name or a
signature it relies on fails here instead of in a benchmark run.  The
benchmark's own self-test (perfbench/selftest.py) runs here too, as a slow
test.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpcal import bench as gbench
from gpcal import cli as gcli
from gpcal.estimation import EstimationResult, fit_mle, mle_objective
from gpcal.gp import Dataset, TrendSpec, build_regression_matrix, \
    check_hypotheses, compute_kbar, fit_gp, predict
from gpcal.kernels import KernelFamily, KernelSpec, cross_covariance, \
    gram_matrix, pairwise_sq_diffs
from gpcal.loo import SigmaScanBasis, virtual_loo
from gpcal.rpie import RpieConfig, calibrate, calibrate_quantile, \
    predict_calibrated, relaxation_objective, sigma_opt, \
    wasserstein2_gaussians

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
TREND = TrendSpec.from_string("ordinary")


def test_every_name_perfbench_uses_exists():
    tree = ast.parse(WORKLOADS.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gpcal":
            for alias in node.names:
                aliases[alias.asname or alias.name] = importlib.import_module(
                    f"gpcal.{alias.name}")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("gpcal."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
    assert set(aliases) == {"gbench", "gcli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            assert hasattr(aliases[node.value.id], node.attr), node.attr


def test_probe_calls_with_perfbench_shapes(tmp_path):
    n, d, a = 20, 2, 0.95
    design = gbench.DesignSpec(n=n, d=d, sampling="copula",
                               correlation=np.eye(d), seed=1)
    X = gbench.sample_design(design)
    assert np.all(np.isfinite(gbench.morokoff_caflisch(X)))
    assert np.all(np.isfinite(gbench.zhou_log(X)))
    k = KernelSpec(family=KernelFamily.MATERN52, sigma2=1.0,
                   theta=np.full(d, 0.8), nugget=1e-2)
    y = gbench.sample_gp_response(X, k, np.random.default_rng(2))
    train = Dataset(X=X, y=y)
    queries = np.random.default_rng(3).uniform(size=(8, d))

    assert gram_matrix(X, k).shape == (n, n)
    assert cross_covariance(X, queries, k).shape == (n, 8)
    model = fit_gp(train, k, TREND)
    assert compute_kbar(fit_gp(train, k, TREND)).shape == (n, n)
    mean, var = predict(model, queries[0])
    batch_mean, batch_var = predict(model, queries)
    assert batch_mean[0] == pytest.approx(mean, rel=1e-10)
    assert virtual_loo(model).std_resid.shape == (n,)
    F = build_regression_matrix(X, TREND)
    basis = SigmaScanBasis(X, y, F, k.family, k.theta, k.nugget)
    assert basis.std_residuals(k.sigma2).shape == (n,)
    nll = mle_objective(train, TREND, k)
    assert mle_objective(train, TREND, k, pairwise_sq_diffs(X)) == \
        pytest.approx(nll, rel=1e-12)
    assert check_hypotheses(train, TREND, k, a).h1

    fit = fit_mle(train, TREND, k.family, nugget=k.nugget, seed=4)
    assert fit.kernel.dim == d
    config = RpieConfig()
    lam = config.lambda_grid.points()[config.lambda_grid.count // 2]
    assert sigma_opt(train, TREND, k.family, lam * k.theta, k.nugget, a,
                     config) > 0.0
    assert relaxation_objective(train, TREND, k.family, k.nugget, k.theta,
                                k.sigma2, lam, a, config) >= 0.0
    reference = EstimationResult(kernel=k, objective_value=nll, n_evals=0,
                                 method="KNOWN", converged=True)
    cal = calibrate(train, TREND, k.family, k.nugget, reference, 0.1)
    up = cal.upper_model
    assert wasserstein2_gaussians(model.F @ model.beta_hat, model.K,
                                  up.F @ up.beta_hat, up.K) >= 0.0
    side = calibrate_quantile(train, TREND, k.family, k.nugget, k.theta,
                              k.sigma2, a, config)
    assert side.lambda_star == cal.upper.lambda_star
    lo, hi, _ = predict_calibrated(cal, queries)
    metrics = gbench.compute_metrics(np.zeros(8), None, lo, hi)
    assert 0.0 <= metrics.cp <= 1.0

    # gpcal predict on a stored calibrated document, as perfbench runs it.
    doc = cal.to_dict()
    doc["standardization"] = None
    doc["columns"] = []
    model_path = tmp_path / "calibrated.json"
    model_path.write_text(json.dumps(doc))
    data_path = tmp_path / "queries.csv"
    data_path.write_text("x0,x1\n" + "".join(
        f"{row[0]!r},{row[1]!r}\n" for row in queries.tolist()))
    out_path = tmp_path / "pred.csv"
    assert gcli.main(["predict", "--model", str(model_path), "--data",
                      str(data_path), "--out", str(out_path)]) == 0
    got = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_allclose(got[:, 1], lo, rtol=1e-10)
    np.testing.assert_allclose(got[:, 2], hi, rtol=1e-10)


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # Every workload once at the tiny size, untraced and traced, and the
    # refusal to run without the sources; exit 0 when all of it holds.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
