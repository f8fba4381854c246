"""End-to-end command-line workflows and the exit-code contract."""

import csv
import json
import math
import os

import numpy as np
import pytest

from gpcal import Dataset, KernelFamily, KernelSpec, TrendSpec
from gpcal.cli import build_parser, ingest_csv, main
from gpcal.estimation import EstimationResult, mle_objective
from gpcal.exceptions import DataError
from gpcal.gp import fit_gp, model_from_dict, model_to_dict, predict
from gpcal.rpie import GridSpec, RpieConfig, calibrate


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def training_csv(tmp_path):
    rng = np.random.default_rng(77)
    n = 40
    X = rng.uniform(0, 1, (n, 2))
    y = np.sin(4 * X[:, 0]) + X[:, 1] + 0.05 * rng.standard_normal(n)
    path = tmp_path / "train.csv"
    rows = [[X[i, 0], X[i, 1], y[i]] for i in range(n)]
    _write_csv(path, ["a", "b", "resp"], rows)
    return path, X, y


class TestIngestCsv:
    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "small.csv"
        _write_csv(path, ["x1", "y"], [[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]])
        ds = ingest_csv(path, "y")
        assert ds.n == 3 and ds.d == 1
        np.testing.assert_array_equal(ds.y, [1.0, 2.0, 3.0])
        assert ds.column_names == ("x1",)

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, ["x1", "y"], [[0.0, 1.0], ["oops", 2.0],
                                       [1.0, 3.0]])
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(path, "y")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        _write_csv(path, ["x1", "x2"], [[0.0, 1.0]])
        with pytest.raises(DataError, match="missing target"):
            ingest_csv(path, "z")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        _write_csv(path, ["x1", "y"], [[0.0, 1.0], [0.5, 2.0], [cell, 3.0]])
        with pytest.raises(DataError, match="non-finite value at row 3"):
            ingest_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            ingest_csv(path, "y")

    def test_round_trip_through_persistence(self, tmp_path):
        path = tmp_path / "rt.csv"
        rng = np.random.default_rng(5)
        rows = rng.uniform(-3, 3, (6, 3)).tolist()
        _write_csv(path, ["u", "v", "t"], rows)
        ds = ingest_csv(path, "t")
        path2 = tmp_path / "rt2.csv"
        _write_csv(path2, ["u", "v", "t"],
                   [[repr(float(ds.X[i, 0])), repr(float(ds.X[i, 1])),
                     repr(float(ds.y[i]))] for i in range(ds.n)])
        ds2 = ingest_csv(path2, "t")
        np.testing.assert_array_equal(ds.X, ds2.X)
        np.testing.assert_array_equal(ds.y, ds2.y)


class TestFitCommand:
    def test_fit_writes_model_and_manifest(self, training_csv, tmp_path,
                                           capsys):
        path, X, y = training_csv
        out = tmp_path / "model.json"
        code = main(["fit", "--data", str(path), "--target", "resp",
                     "--kernel", "m32", "--nugget", "fixed:0.01",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trend"] == "ordinary"
        assert doc["kernel"]["family"] == "matern32"
        assert doc["standardization"] is not None
        assert doc["columns"] == ["a", "b"]
        printed = json.loads(capsys.readouterr().out)
        assert printed["method"] == "MLE"
        manifest = json.loads((tmp_path / "model.json.manifest.json")
                              .read_text())
        assert manifest["seed"] == 3
        assert str(path) in manifest["inputs"]
        assert "numpy" in manifest["versions"]

    def test_fit_without_standardization(self, training_csv, tmp_path):
        path, _, _ = training_csv
        out = tmp_path / "raw_model.json"
        code = main(["fit", "--data", str(path), "--target", "resp",
                     "--no-standardize", "--nugget", "fixed:0.01",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["standardization"] is None

    @pytest.mark.parametrize("method", ["mle", "msecv"])
    def test_joint_nugget(self, training_csv, tmp_path, method):
        path, _, _ = training_csv
        out = tmp_path / "joint.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--method", method, "--nugget", "joint",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kernel"]["nugget"] > 0.0
        assert doc["estimation"]["kernel"] == doc["kernel"]

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--target", "y", "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_bayes_on_duplicated_rows_without_nugget(self, tmp_path):
        # The chain's zero nugget cannot fit a design with a repeated row:
        # a numerical failure (exit 4), raised before the chain runs.
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (11, 2))
        X[7] = X[2]
        path = tmp_path / "dup.csv"
        _write_csv(path, ["a", "b", "resp"],
                   [[X[i, 0], X[i, 1], float(i)] for i in range(11)])
        code = main(["fit", "--data", str(path), "--target", "resp",
                     "--method", "bayes", "--nugget", "fixed:0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 4

    def test_bayes_fit_writes_a_usable_model(self, tmp_path, capsys):
        # The posterior-mean kernel of a Bayesian fit is stored with its
        # profile NLL, and the model it writes predicts.
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (30, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1]
        path = tmp_path / "train.csv"
        _write_csv(path, ["a", "b", "resp"],
                   [[X[i, 0], X[i, 1], y[i]] for i in range(30)])
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--method", "bayes", "--nugget", "fixed:1e-4",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["estimation"]["method"] == "BAYES"
        model = model_from_dict(doc)
        assert doc["estimation"]["objective_value"] == mle_objective(
            model.dataset, model.trend, model.kernel)
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], X[:4].tolist())
        assert main(["predict", "--model", str(out), "--data", str(feat),
                     "--out", str(tmp_path / "p.csv")]) == 0
        assert len(_read_rows(tmp_path / "p.csv")) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["mle", "msecv"])
    def test_duplicated_rows_without_nugget_named(self, tmp_path, capsys,
                                                  method):
        # A zero nugget cannot fit a design with a repeated row at any
        # start: the fit refuses it up front, as a numerical failure
        # (exit 4) that names the duplicated rows.
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, (11, 2))
        X[7] = X[2]
        path = tmp_path / "dup.csv"
        _write_csv(path, ["a", "b", "resp"],
                   [[X[i, 0], X[i, 1], float(i)] for i in range(11)])
        code = main(["fit", "--data", str(path), "--target", "resp",
                     "--method", method, "--nugget", "fixed:0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 4
        assert "duplicated design rows" in capsys.readouterr().err

    def test_bad_nugget_flag_is_usage_error(self, training_csv, tmp_path):
        path, _, _ = training_csv
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(path), "--target", "resp",
                  "--nugget", "banana"])
        assert exc.value.code == 2


class TestPredictAndDiagnose:
    @pytest.fixture
    def fitted_model(self, training_csv, tmp_path):
        path, X, y = training_csv
        out = tmp_path / "model.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--kernel", "m52", "--nugget", "fixed:0.0025",
                     "--out", str(out)]) == 0
        return path, out, X, y

    def test_predict_on_training_inputs(self, fitted_model, tmp_path):
        train_csv, model_path, X, y = fitted_model
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], X.tolist())
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data",
                     str(feat), "--alpha", "0.1", "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert len(rows) == X.shape[0]
        means = np.array([float(r["mean"]) for r in rows])
        lowers = np.array([float(r["lower"]) for r in rows])
        uppers = np.array([float(r["upper"]) for r in rows])
        # near interpolation in original units; bounds bracket the mean
        assert np.abs(means - y).max() <= 0.25 * y.std()
        assert np.all(lowers <= means) and np.all(means <= uppers)
        assert all(r["crossed_flag"] == "0" for r in rows)

    def test_predict_is_deterministic(self, fitted_model, tmp_path):
        _, model_path, X, _ = fitted_model
        feat = tmp_path / "f.csv"
        _write_csv(feat, ["a", "b"], X[:5].tolist())
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["predict", "--model", str(model_path), "--data", str(feat),
              "--out", str(out1)])
        main(["predict", "--model", str(model_path), "--data", str(feat),
              "--out", str(out2)])
        assert out1.read_text() == out2.read_text()

    def test_plain_interval_reads_one_prediction(self, fitted_model,
                                                 tmp_path, monkeypatch):
        # The mean and the interval of a plain model come from one
        # posterior prediction of the query set.
        import gpcal.cli
        import gpcal.gp
        calls = []

        def counting(model, x_new):
            calls.append(len(x_new))
            return predict(model, x_new)

        monkeypatch.setattr(gpcal.cli, "predict", counting)
        monkeypatch.setattr(gpcal.gp, "predict", counting)
        _, model_path, X, _ = fitted_model
        feat = tmp_path / "f.csv"
        _write_csv(feat, ["a", "b"], X[:5].tolist())
        assert main(["predict", "--model", str(model_path), "--data",
                     str(feat), "--out", str(tmp_path / "p.csv")]) == 0
        assert calls == [5]

    def test_dimension_mismatch_is_data_error(self, fitted_model,
                                              tmp_path):
        _, model_path, _, _ = fitted_model
        feat = tmp_path / "wrong.csv"
        _write_csv(feat, ["a"], [[0.1], [0.2]])
        code = main(["predict", "--model", str(model_path), "--data",
                     str(feat), "--out", str(tmp_path / "p.csv")])
        assert code == 3

    def test_feature_columns_matched_by_name(self, fitted_model, tmp_path):
        # A header in another order, or with extra columns, is reordered
        # by the stored names: the same predictions.
        _, model_path, X, y = fitted_model
        outs = []
        for header, rows in ((["a", "b"], X[:6]),
                             (["b", "a"], X[:6, ::-1]),
                             (["resp", "b", "a"],
                              np.column_stack([y[:6], X[:6, ::-1]]))):
            feat = tmp_path / "features.csv"
            _write_csv(feat, header, rows.tolist())
            out = tmp_path / "pred.csv"
            assert main(["predict", "--model", str(model_path), "--data",
                         str(feat), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("header, missing", [
        (["a", "c"], "['b']"), (["p", "q"], "['a', 'b']")])
    def test_missing_feature_column_is_data_error(self, fitted_model,
                                                  tmp_path, capsys, header,
                                                  missing):
        # A model that stores its column names needs every one of them,
        # even when the CSV has as many columns as the model.
        _, model_path, X, _ = fitted_model
        feat = tmp_path / "features.csv"
        _write_csv(feat, header, X[:3].tolist())
        code = main(["predict", "--model", str(model_path), "--data",
                     str(feat), "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert f"missing feature columns {missing}" in capsys.readouterr().err

    def test_unnamed_columns_match_by_position(self, fitted_model,
                                               tmp_path):
        # A document that stores no column names takes the features in
        # the CSV's order, whatever its header.
        _, model_path, X, _ = fitted_model
        doc = json.loads(model_path.read_text())
        doc["columns"] = []
        unnamed = tmp_path / "unnamed.json"
        unnamed.write_text(json.dumps(doc))
        outs = []
        for model, header in ((model_path, ["a", "b"]),
                              (unnamed, ["p", "q"])):
            feat = tmp_path / "features.csv"
            _write_csv(feat, header, X[:5].tolist())
            out = tmp_path / "pred.csv"
            assert main(["predict", "--model", str(model), "--data",
                         str(feat), "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[1] == outs[0]

    def test_diagnose_emits_loo_columns(self, fitted_model, tmp_path):
        _, model_path, X, y = fitted_model
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--model", str(model_path), "--out",
                     str(out)]) == 0
        rows = _read_rows(out)
        assert list(rows[0].keys()) == ["index", "y", "loo_mean",
                                        "loo_sd", "std_resid"]
        assert len(rows) == X.shape[0]
        ys = np.array([float(r["y"]) for r in rows])
        np.testing.assert_allclose(ys, y, rtol=1e-12)
        sds = np.array([float(r["loo_sd"]) for r in rows])
        assert np.all(sds > 0.0)


class TestCalibrateCommand:
    def test_lambda_grid_default_is_the_library_default(self, capsys):
        args = build_parser().parse_args(["calibrate", "--reference", "m"])
        grid = RpieConfig().lambda_grid
        assert GridSpec(*args.lambda_grid) == grid
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate", "--help"])
        assert f"(default {grid.lo:g},{grid.hi:g},{grid.count})" \
            in " ".join(capsys.readouterr().out.split())

    def test_default_lambda_grid_traces(self, training_csv, tmp_path,
                                        capsys):
        # Without --lambda-grid both trace CSVs hold one row per point of
        # the library's default grid, and the manifest records that grid.
        path, _, _ = training_csv
        model_out = tmp_path / "model.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--nugget", "fixed:0.01", "--out",
                     str(model_out)]) == 0
        cal_out = tmp_path / "cal.json"
        assert main(["calibrate", "--reference", str(model_out),
                     "--out", str(cal_out)]) == 0
        capsys.readouterr()
        grid = RpieConfig().lambda_grid
        for side in ("upper", "lower"):
            with open(tmp_path / f"cal_lambda_trace_{side}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == grid.count
            np.testing.assert_array_equal([float(r["lambda"]) for r in rows],
                                          grid.points())
        manifest = json.loads((tmp_path / "cal.json.manifest.json")
                              .read_text())
        assert manifest["flags"]["lambda_grid"] == [grid.lo, grid.hi,
                                                    grid.count]

    def test_calibrate_then_predict(self, training_csv, tmp_path, capsys):
        path, X, y = training_csv
        model_out = tmp_path / "model.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--kernel", "m32", "--nugget", "fixed:0.01",
                     "--out", str(model_out)]) == 0
        cal_out = tmp_path / "cal.json"
        code = main(["calibrate", "--reference", str(model_out),
                     "--alpha", "0.2", "--lambda-grid", "0.1,10,20",
                     "--out", str(cal_out)])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(cal_out.read_text())
        assert doc["upper"]["a"] == pytest.approx(0.9)
        assert doc["lower"]["a"] == pytest.approx(0.1)
        assert abs(doc["upper"]["psi_achieved"] - 0.9) <= 1e-6
        assert os.path.exists(str(tmp_path / "cal_lambda_trace_upper.csv"))
        assert os.path.exists(str(tmp_path / "cal_lambda_trace_lower.csv"))
        with open(tmp_path / "cal_lambda_trace_upper.csv") as fh:
            header = fh.readline().strip()
        assert header == "lambda,objective,sigma2_opt"

        # calibrated model predicts on its own training inputs and prints
        # the coverage sanity line
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], X.tolist())
        pred_out = tmp_path / "calpred.csv"
        assert main(["predict", "--model", str(cal_out), "--data",
                     str(feat), "--out", str(pred_out)]) == 0
        said = capsys.readouterr().out
        assert "coverage sanity" in said
        rows = _read_rows(pred_out)
        lowers = np.array([float(r["lower"]) for r in rows])
        uppers = np.array([float(r["upper"]) for r in rows])
        covered = float(np.mean((y >= lowers) & (y <= uppers)))
        assert abs(covered - 0.8) <= 0.15

    def test_single_point_lambda_grid(self, training_csv, tmp_path,
                                      capsys):
        # --lambda-grid accepts every grid GridSpec accepts: a single
        # point lo == hi keeps lambda there, an amplitude-only
        # calibration, and the manifest records the grid as [lo, hi,
        # count].
        path, _, _ = training_csv
        model_out = tmp_path / "model.json"
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--nugget", "fixed:0.01", "--out",
                     str(model_out)]) == 0
        cal_out = tmp_path / "cal.json"
        assert main(["calibrate", "--reference", str(model_out),
                     "--lambda-grid", "1,1,1", "--out", str(cal_out)]) == 0
        capsys.readouterr()
        doc = json.loads(cal_out.read_text())
        assert doc["upper"]["lambda_star"] == doc["lower"]["lambda_star"] \
            == 1.0
        manifest = json.loads((tmp_path / "cal.json.manifest.json")
                              .read_text())
        assert manifest["flags"]["lambda_grid"] == [1.0, 1.0, 1]

    def test_degenerate_targets_fail_numerically(self, tmp_path):
        # constant responses leave nothing to calibrate: exit code 4
        path = tmp_path / "const.csv"
        rng = np.random.default_rng(9)
        rows = [[float(v), 5.0] for v in rng.uniform(0, 1, 25)]
        _write_csv(path, ["x", "y"], rows)
        model_out = tmp_path / "m.json"
        assert main(["fit", "--data", str(path), "--target", "y",
                     "--nugget", "fixed:0.01", "--out",
                     str(model_out)]) == 0
        code = main(["calibrate", "--reference", str(model_out),
                     "--alpha", "0.1", "--out", str(tmp_path / "c.json")])
        assert code == 4


class TestBenchmarkCommand:
    def test_smoke_run_writes_reports(self, tmp_path):
        out_dir = tmp_path / "bench"
        code = main(["benchmark", "morokoff", "--n", "32", "--d", "2",
                     "--seeds", "1", "--alpha", "0.2",
                     "--out-dir", str(out_dir)])
        assert code == 0
        report = out_dir / "morokoff_report.csv"
        summary = out_dir / "morokoff_summary.json"
        assert report.exists() and summary.exists()
        rows = _read_rows(report)
        assert {r["method"] for r in rows} == {"mle", "mle_rpie"}
        traces = sorted(p.name for p in out_dir.glob("*_lambda_trace.csv"))
        assert traces == ["morokoff_seed0_mle_lower_lambda_trace.csv",
                          "morokoff_seed0_mle_upper_lambda_trace.csv"]
        assert (out_dir / "morokoff_report.csv.manifest.json").exists()

    def test_bad_thread_count_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setenv("RPIE_THREADS", "abc")
        code = main(["benchmark", "morokoff", "--n", "20", "--seeds", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "RPIE_THREADS" in capsys.readouterr().err

    def test_unknown_experiment_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "unknown", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "morokoff" in err   # usage text lists valid experiments


class TestBadFlags:
    """Out-of-range flag values are usage errors (exit 2), caught before
    any work, whose message names the last flag given: --delta must lie
    in (0, q_{1 - alpha/2}), --lambda-grid must be a grid ``GridSpec``
    accepts, --alpha must leave 1 - alpha/2 below 1, a fit needs a seed
    >= 0 and a finite nugget, bayes needs a fixed nugget, and a benchmark
    needs at least one seed, three points and one input dimension."""

    @pytest.mark.parametrize("flags", [
        ["calibrate", "--delta", "-1"],
        ["calibrate", "--delta", "nan"],
        ["calibrate", "--delta", "5"],
        ["calibrate", "--lambda-grid", "0.1,inf,10"],
        ["calibrate", "--lambda-grid", "0.1,10,1"],
        ["calibrate", "--alpha", "1e-300"],
        ["predict", "--alpha", "1e-300"],
        ["fit", "--seed", "-1"],
        ["fit", "--nugget", "fixed:nan"],
        ["fit", "--nugget", "fixed:inf"],
        ["fit", "--method", "bayes", "--nugget", "joint"],
        ["benchmark", "zhou_nugget", "--seeds", "0"],
        ["benchmark", "zhou_nugget", "--n", "0"],
        ["benchmark", "zhou_nugget", "--d", "0"],
        ["benchmark", "zhou_nugget", "--n", "-3"],
        ["benchmark", "morokoff", "--n", "1"],
        ["benchmark", "morokoff", "--n", "2"],
        ["benchmark", "morokoff", "--n", "20", "--d", "2", "--seeds", "1",
         "--alpha", "1e-300"],
    ], ids=["delta_negative", "delta_nan", "delta_above_quantile",
            "lambda_grid_inf", "lambda_grid_one_point_range",
            "calibrate_alpha_tiny", "predict_alpha_tiny",
            "fit_seed_negative", "fit_nugget_nan", "fit_nugget_inf",
            "fit_bayes_joint_nugget", "zero_seeds", "zero_n", "zero_d",
            "negative_n", "one_n", "two_n", "benchmark_alpha_tiny"])
    def test_exits_with_usage_code(self, tmp_path, training_csv, capsys,
                                   flags):
        out = tmp_path / "out"
        if flags[0] in ("calibrate", "predict"):
            rng = np.random.default_rng(5)
            X = rng.uniform(0, 1, (15, 2))
            ds = Dataset(X=X, y=np.sin(4 * X[:, 0]) + X[:, 1])
            kernel = KernelSpec(KernelFamily.MATERN52, 0.5, [0.4, 0.4],
                                nugget=1e-3)
            model = tmp_path / "model.json"
            model.write_text(json.dumps(model_to_dict(
                fit_gp(ds, kernel, TrendSpec.from_string("ordinary")))))
            if flags[0] == "calibrate":
                argv = flags + ["--reference", str(model)]
            else:
                features = tmp_path / "features.csv"
                _write_csv(features, ["a", "b"], X[:3])
                argv = flags + ["--model", str(model), "--data",
                                str(features)]
            argv += ["--out", str(out)]
        elif flags[0] == "fit":
            argv = flags + ["--data", str(training_csv[0]), "--target",
                            "resp", "--out", str(out)]
        else:
            argv = flags + ["--out-dir", str(out)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not list(tmp_path.glob("out*"))
        bad_flag = [f for f in flags if f.startswith("--")][-1]
        assert bad_flag in capsys.readouterr().err

    def test_predict_alpha_with_calibrated_model(self, tmp_path, capsys):
        # A calibrated model has its own level: --alpha is a usage error
        # for it, and predict runs without the flag.
        _, calibrated = TestMalformedInputs._docs()
        model = tmp_path / "calibrated.json"
        model.write_text(json.dumps(calibrated))
        features = tmp_path / "features.csv"
        _write_csv(features, ["a", "b"], calibrated["X"][:3])
        argv = ["predict", "--model", str(model), "--data", str(features)]
        out = tmp_path / "out.csv"
        assert main(argv + ["--alpha", "0.2", "--out", str(out)]) == 2
        assert not list(tmp_path.glob("out*"))
        assert "--alpha" in capsys.readouterr().err
        assert main(argv + ["--out", str(out)]) == 0
        assert out.exists()


class TestPathErrors:
    """An input that cannot be opened is a data error (exit 3) and an
    output that cannot be written a usage error (exit 2), for every
    subcommand: no traceback."""

    @pytest.fixture
    def files(self, training_csv, tmp_path):
        """A training CSV, a plain model fitted on it and a feature CSV."""
        path, X, _ = training_csv
        model = tmp_path / "model.json"
        ds = ingest_csv(path, "resp")
        kernel = KernelSpec(KernelFamily.MATERN52, 0.5, [0.4, 0.4],
                            nugget=1e-3)
        doc = model_to_dict(fit_gp(ds, kernel,
                                   TrendSpec.from_string("ordinary")))
        doc.update(standardization=None, columns=["a", "b"])
        model.write_text(json.dumps(doc))
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], X[:3].tolist())
        return str(path), str(model), str(feat)

    @staticmethod
    def _argv(subcommand, data, model, feat, out):
        return {
            "fit": ["fit", "--data", data, "--target", "resp",
                    "--out", out],
            "calibrate": ["calibrate", "--reference", model,
                          "--lambda-grid", "1,1,1", "--out", out],
            "predict": ["predict", "--model", model, "--data", feat,
                        "--out", out],
            "diagnose": ["diagnose", "--model", model, "--out", out],
        }[subcommand]

    @pytest.mark.parametrize("subcommand, slot", [
        ("fit", "data"), ("calibrate", "model"), ("predict", "model"),
        ("predict", "feat"), ("diagnose", "model")])
    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_input_is_data_error(self, files, tmp_path, capsys,
                                            subcommand, slot, unreadable):
        paths = dict(zip(("data", "model", "feat"), files))
        paths[slot] = str(tmp_path / "nope.csv") if unreadable == "missing" \
            else str(tmp_path)
        argv = self._argv(subcommand, **paths, out=str(tmp_path / "out"))
        assert main(argv) == 3
        assert "data error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand",
                             ["fit", "calibrate", "predict", "diagnose"])
    def test_unwritable_output_is_usage_error(self, files, tmp_path, capsys,
                                              subcommand):
        argv = self._argv(subcommand, *files,
                          out=str(tmp_path / "nodir" / "out.json"))
        assert main(argv) == 2
        assert "usage error: cannot write output" in capsys.readouterr().err

    def test_benchmark_out_dir_under_a_file_is_usage_error(self, tmp_path,
                                                           capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["benchmark", "morokoff", "--n", "20", "--seeds", "1",
                     "--out-dir", str(blocker / "x")]) == 2
        assert "usage error: cannot write output" in capsys.readouterr().err


class TestMalformedInputs:
    """Malformed model documents and non-finite CSV cells are data errors
    (exit 3) for every subcommand that reads them."""

    @staticmethod
    def _docs():
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, (15, 2))
        ds = Dataset(X=X, y=np.sin(4 * X[:, 0]) + X[:, 1])
        trend = TrendSpec.from_string("ordinary")
        kernel = KernelSpec(KernelFamily.MATERN52, 0.5, [0.4, 0.4],
                            nugget=1e-3)
        plain = model_to_dict(fit_gp(ds, kernel, trend))
        plain.update(standardization=None, columns=["a", "b"])
        reference = EstimationResult(kernel=kernel, objective_value=0.0,
                                     n_evals=0, method="KNOWN",
                                     converged=True)
        calibrated = calibrate(ds, trend, kernel.family, kernel.nugget,
                               reference, 0.2, RpieConfig(
                                   lambda_grid=GridSpec(0.1, 10.0, 8)))
        return plain, calibrated.to_dict()

    @staticmethod
    def _bad(name, plain, calibrated):
        if name == "empty":
            return {}
        if name == "not_an_object":
            return [1, 2]
        doc = json.loads(json.dumps(plain))
        if name == "kernel_without_sigma2":
            del doc["kernel"]["sigma2"]
        elif name == "mistyped_theta":
            doc["kernel"]["theta"] = "wide"
        elif name == "ragged_design":
            doc["X"][0] = [0.5]
        elif name == "mistyped_standardization":
            doc["standardization"] = {"x_mean": "zero"}
        elif name == "calibrated_doc":
            return calibrated
        elif name == "calibrated_without_psi_raw":
            doc = json.loads(json.dumps(calibrated))
            del doc["lower"]["psi_raw"]
        elif name == "calibrated_nan_level":
            doc = json.loads(json.dumps(calibrated))
            doc["upper"]["a"] = math.nan
        elif name == "calibrated_swapped_levels":
            doc = json.loads(json.dumps(calibrated))
            doc["upper"]["a"], doc["lower"]["a"] = \
                doc["lower"]["a"], doc["upper"]["a"]
        elif name == "calibrated_mismatched_alpha":
            doc = json.loads(json.dumps(calibrated))
            doc["alpha"] = 0.1
        return doc

    # predict accepts a calibrated document, the other two do not; a
    # calibrated document must carry the step counts (psi_raw) its
    # loo_coverage() reads, and the levels 1 - alpha/2 (upper) and
    # alpha/2 (lower) of its own alpha.
    @pytest.mark.parametrize("subcommand, bad", [
        (sub, bad) for sub in ("calibrate", "predict", "diagnose")
        for bad in ("empty", "not_an_object", "kernel_without_sigma2",
                    "mistyped_theta", "ragged_design",
                    "mistyped_standardization", "calibrated_doc",
                    "calibrated_without_psi_raw", "calibrated_nan_level",
                    "calibrated_swapped_levels",
                    "calibrated_mismatched_alpha")
        if (sub, bad) != ("predict", "calibrated_doc")])
    def test_bad_model_document_is_data_error(self, tmp_path, capsys,
                                              subcommand, bad):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self._bad(bad, *self._docs())))
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], [[0.1, 0.2], [0.3, 0.4]])
        out = str(tmp_path / "out")
        argv = {
            "calibrate": ["calibrate", "--reference", str(model),
                          "--out", out],
            "predict": ["predict", "--model", str(model), "--data",
                        str(feat), "--out", out],
            "diagnose": ["diagnose", "--model", str(model), "--out", out],
        }[subcommand]
        assert main(argv) == 3
        assert "data error" in capsys.readouterr().err

    def test_non_finite_training_cell_is_data_error(self, training_csv,
                                                    tmp_path):
        _, X, y = training_csv
        path = tmp_path / "nan.csv"
        rows = [[X[i, 0], X[i, 1], y[i]] for i in range(len(y))]
        rows[4][1] = "nan"
        _write_csv(path, ["a", "b", "resp"], rows)
        assert main(["fit", "--data", str(path), "--target", "resp",
                     "--out", str(tmp_path / "m.json")]) == 3

    def test_non_finite_feature_cell_is_data_error(self, tmp_path):
        plain, _ = self._docs()
        model = tmp_path / "model.json"
        model.write_text(json.dumps(plain))
        feat = tmp_path / "features.csv"
        _write_csv(feat, ["a", "b"], [[0.1, 0.2], ["nan", 0.4]])
        assert main(["predict", "--model", str(model), "--data", str(feat),
                     "--out", str(tmp_path / "p.csv")]) == 3
