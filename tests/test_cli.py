import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mlshap
from mlshap import cli, load_model
from mlshap.cli import main

from _synth import foodtruck_like, planted_dataset, write_arff


@pytest.fixture(scope="module")
def foodtruck_arff(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "foodtruck.arff"
    write_arff(foodtruck_like(seed=4), path)
    return path


@pytest.fixture(scope="module")
def small_arff(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.arff"
    write_arff(planted_dataset("small", 70, 5, 3, seed=2), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_python(*args, cwd):
    """A fresh interpreter that imports mlshap from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(mlshap.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestTrain:
    def test_paper_br_preset_persists_one_forest_per_label(self, foodtruck_arff,
                                                           tmp_path):
        code = run("train", "--data", foodtruck_arff, "--labels", "12",
                   "--preset", "paper-br", "--n-trees", "2", "--seed", "7",
                   "--out", tmp_path)
        assert code == 0
        model = load_model(tmp_path / "model.json")
        assert model.algorithm == "br"
        assert len(model.per_label_models) == 12
        assert model.per_label_models[0].params.max_depth == 15
        assert model.per_label_models[0].params.min_samples_leaf == 2
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["dataset"]["labels"] == 12

    def test_bad_path_exits_2(self, tmp_path, capsys):
        code = run("train", "--data", tmp_path / "nope.arff", "--labels", "3",
                   "--algo", "br", "--seed", "1", "--out", tmp_path)
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_feature_exits_2(self, tmp_path, capsys, cell):
        data = tmp_path / "bad.arff"
        data.write_text("@relation r\n@attribute a numeric\n@attribute b {0,1}\n"
                        f"@data\n1.0,1\n{cell},0\n2.0,1\n")
        code = run("train", "--data", data, "--labels", "1", "--algo", "br",
                   "--n-trees", "1", "--seed", "1", "--out", tmp_path / "out")
        assert code == 2
        assert "bad.arff:6: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("name, text, labels, message", [
        ("twice.arff", "@relation r\n@attribute a numeric\n@attribute a numeric\n"
         "@attribute l1 {0,1}\n@data\n1,2,0\n", "1", "column 'a' is named twice"),
        ("twice.csv", "a,b,a,l1\n1,2,3,0\n", "l1", "column 'a' is named twice"),
        ("labels.csv", "a,l1,l2\n1,0,1\n", "l1,l1", "label 'l1' is named twice"),
    ], ids=["arff-attribute", "csv-header", "labels-flag"])
    def test_repeated_name_exits_2(self, tmp_path, capsys, name, text, labels, message):
        data = tmp_path / name
        data.write_text(text)
        code = run("train", "--data", data, "--labels", labels, "--algo", "br",
                   "--n-trees", "1", "--seed", "1", "--out", tmp_path / "out")
        assert code == 2
        assert f"{name}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_seed_exits_2(self, small_arff, tmp_path, capsys):
        code = run("train", "--data", small_arff, "--labels", "3", "--algo", "br",
                   "--out", tmp_path)
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_deterministic_model_files(self, small_arff, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run("train", "--data", small_arff, "--labels", "3",
                       "--algo", "cc", "--n-trees", "3", "--max-depth", "3",
                       "--seed", "11", "--out", out) == 0
        assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
        assert (out_a / "train_report.json").read_bytes() == \
            (out_b / "train_report.json").read_bytes()

    def test_config_file_with_override(self, small_arff, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(small_arff), "labels": 3, "algo": "mlknn", "k": 3,
            "seed": 5, "out": str(tmp_path / "cfgout"),
        }))
        assert run("train", "--config", cfg) == 0
        assert run("train", "--config", cfg, "--k", "4") == 0
        model = load_model(tmp_path / "cfgout" / "model.json")
        assert model.k == 4  # CLI flag overrode the config value

    @pytest.mark.parametrize("flags, params", [
        (["--preset", "paper-mlknn", "--n-trees", "5", "--order", "random"], {"k": 5}),
        (["--algo", "br", "--n-trees", "2", "--order", "2,0,1", "--k", "3"],
         {"n_trees": 2, "seed": 5}),
        (["--algo", "cc", "--n-trees", "2", "--order", "2,0,1", "--s", "0.5"],
         {"n_trees": 2, "order": [2, 0, 1], "seed": 5}),
    ], ids=["mlknn", "br", "cc"])
    def test_report_lists_only_what_the_fit_read(self, small_arff, tmp_path, flags,
                                                 params):
        assert run("train", "--data", small_arff, "--labels", "3", *flags,
                   "--seed", "5", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["params"] == params

    def test_config_bootstrap_must_be_bool(self, small_arff, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(small_arff), "labels": 3,
                                   "algo": "br", "seed": 5, "bootstrap": "no",
                                   "out": str(tmp_path)}))
        assert run("train", "--config", cfg) == 1
        assert "bootstrap must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_unknown_config_key_rejected(self, small_arff, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(small_arff), "labels": 3,
                                   "algo": "br", "seed": 5, "typo_key": 1}))
        assert run("train", "--config", cfg) == 2
        assert "typo_key" in capsys.readouterr().err


class TestTune:
    def test_default_mlknn_grid_is_20_points(self, small_arff, tmp_path):
        code = run("tune", "--data", small_arff, "--labels", "3", "--algo", "mlknn",
                   "--seed", "3", "--out", tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "cv_report.json").read_text())
        assert len(report["points"]) == 20
        assert report["total_evaluations"] == 200

    def test_singleton_grid(self, small_arff, tmp_path):
        code = run("tune", "--data", small_arff, "--labels", "3", "--algo", "mlknn",
                   "--grid", '{"k": [4]}', "--reps", "1", "--folds", "3",
                   "--seed", "3", "--out", tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "cv_report.json").read_text())
        assert report["best_index"] == 0
        assert report["total_evaluations"] == 3

    def test_deterministic_report(self, small_arff, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("tune", "--data", small_arff, "--labels", "3",
                       "--algo", "mlknn", "--grid", '{"k": [2, 4]}',
                       "--reps", "1", "--folds", "3", "--seed", "9",
                       "--out", out) == 0
        assert (out_a / "cv_report.json").read_bytes() == \
            (out_b / "cv_report.json").read_bytes()

    def test_grid_required_for_forests(self, small_arff, tmp_path, capsys):
        assert run("tune", "--data", small_arff, "--labels", "3", "--algo", "br",
                   "--seed", "3", "--out", tmp_path) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ("[1]", "must be a JSON object"),
        ('{"k": [3], "bogus": [1]}', "'bogus'"),
        ('{"kk": [3]}', "'kk'"),
        ('{"s": [1.0]}', "'k' is required"),
        ('{"k": 3}', "non-empty list"),
    ])
    def test_bad_grid_exits_2(self, small_arff, tmp_path, capsys, grid, message):
        assert run("tune", "--data", small_arff, "--labels", "3", "--algo", "mlknn",
                   "--grid", grid, "--seed", "3", "--out", tmp_path) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cv_report.json").exists()

    @pytest.mark.parametrize("grid", ['{"k": [2.5]}', '{"k": [true]}'])
    def test_non_integer_k_exits_1(self, small_arff, tmp_path, capsys, grid):
        assert run("tune", "--data", small_arff, "--labels", "3", "--algo", "mlknn",
                   "--grid", grid, "--seed", "3", "--out", tmp_path) == 1
        assert "k must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "cv_report.json").exists()

    @pytest.mark.parametrize("grid, field", [
        ('{"max_depth": ["a"]}', "max_depth"),
        ('{"n_trees": [1.5]}', "n_trees"),
        ('{"max_features": [true]}', "max_features"),
        ('{"seed": [1.5]}', "seed"),
        ('{"bootstrap": ["no"]}', "bootstrap"),
        ('{"min_samples_leaf": [2, null]}', "min_samples_leaf"),
    ])
    def test_bad_forest_value_exits_1(self, small_arff, tmp_path, capsys, grid, field):
        assert run("tune", "--data", small_arff, "--labels", "3", "--algo", "br",
                   "--grid", grid, "--seed", "3", "--out", tmp_path) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "cv_report.json").exists()


@pytest.fixture(scope="module")
def trained(small_arff, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    assert run("train", "--data", small_arff, "--labels", "3", "--algo", "br",
               "--n-trees", "2", "--max-depth", "3", "--seed", "5",
               "--out", out) == 0
    return out / "model.json"


@pytest.fixture(scope="module")
def explanation_files(small_arff, trained, tmp_path_factory):
    out = tmp_path_factory.mktemp("expl")
    files = []
    for inst in (1, 2):
        assert run("explain", "--data", small_arff, "--labels", "3",
                   "--model", trained, "--instance", str(inst),
                   "--budget", "24", "--background", "8", "--seed", "5",
                   "--out", out) == 0
        files += sorted(out.glob(f"explanation_i{inst}_*.json"))
    return files


class TestExplain:
    def test_writes_one_file_per_label(self, small_arff, trained, tmp_path):
        code = run("explain", "--data", small_arff, "--labels", "3",
                   "--model", trained, "--instance", "10", "--label-ids", "0,2",
                   "--estimator", "kernel", "--budget", "24", "--background", "8",
                   "--seed", "5", "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "explanation_i10_l0.json").exists()
        assert (tmp_path / "explanation_i10_l2.json").exists()
        doc = json.loads((tmp_path / "explanation_i10_l0.json").read_text())
        assert doc["instance"] == 10 and doc["label"] == 0
        assert len(doc["phi"]) == 5
        total = doc["base_value"] + sum(p["shap"] for p in doc["phi"])
        assert abs(total - doc["fx"]) <= 1e-6

    def test_exact_refused_beyond_cap(self, tmp_path, tmp_path_factory, capsys):
        wide = planted_dataset("wide", 50, 103, 2, seed=1)
        data = tmp_path_factory.mktemp("wide") / "wide.arff"
        write_arff(wide, data)
        out = tmp_path_factory.mktemp("wideout")
        assert run("train", "--data", data, "--labels", "2", "--algo", "mlknn",
                   "--k", "3", "--seed", "2", "--out", out) == 0
        code = run("explain", "--data", data, "--labels", "2",
                   "--model", out / "model.json", "--instance", "0",
                   "--estimator", "exact", "--seed", "2", "--out", tmp_path)
        assert code == 2
        assert "capped" in capsys.readouterr().err

    def test_kernel_succeeds_on_any_width(self, tmp_path, tmp_path_factory):
        wide = planted_dataset("wide", 40, 30, 2, seed=1)
        data = tmp_path_factory.mktemp("wide2") / "wide.arff"
        write_arff(wide, data)
        out = tmp_path_factory.mktemp("wideout2")
        assert run("train", "--data", data, "--labels", "2", "--algo", "mlknn",
                   "--k", "3", "--seed", "2", "--out", out) == 0
        assert run("explain", "--data", data, "--labels", "2",
                   "--model", out / "model.json", "--instance", "0",
                   "--estimator", "kernel", "--budget", "64", "--seed", "2",
                   "--out", tmp_path) == 0

    @pytest.mark.parametrize("budget, code, message", [
        ("full", 2, 'error: --budget: budget="full" is capped at 16 features'),
        ("1", 2, "error: --budget: budget must be at least 2"),
        ("-5", 2, "error: --budget: budget must be at least 2"),
        ("3", 1, "system has 2 rows for 20 coefficients"),
    ])
    def test_kernel_budget_exit_codes(self, foodtruck_arff, tmp_path_factory, tmp_path,
                                      capsys, budget, code, message):
        """A budget the library refuses is a usage error (exit 2) naming
        --budget; one too small for the 21-feature regression is a runtime
        error (exit 1)."""
        out = tmp_path_factory.mktemp("foodtruck-mlknn")
        assert run("train", "--data", foodtruck_arff, "--labels", "12", "--algo",
                   "mlknn", "--k", "3", "--seed", "2", "--out", out) == 0
        capsys.readouterr()
        assert run("explain", "--data", foodtruck_arff, "--labels", "12",
                   "--model", out / "model.json", "--instance", "0",
                   "--label-ids", "0", "--background", "4", "--budget", budget,
                   "--seed", "2", "--out", tmp_path) == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("explanation_*.json"))

    def test_instance_out_of_range(self, small_arff, trained, tmp_path, capsys):
        assert run("explain", "--data", small_arff, "--labels", "3",
                   "--model", trained, "--instance", "999", "--seed", "1",
                   "--out", tmp_path) == 2
        assert "out of range" in capsys.readouterr().err

    def test_reference_scenario_four_labels_of_instance_550(self, tmp_path,
                                                            tmp_path_factory):
        """Instance 550 of a 2417x103, 14-label corpus explained for labels
        1, 2, 12, 13 produces exactly four files."""
        from _synth import corpus_like
        data = tmp_path_factory.mktemp("yeastlike") / "yeast.arff"
        write_arff(corpus_like("yeast", seed=1), data)
        out = tmp_path_factory.mktemp("yeastmodel")
        assert run("train", "--data", data, "--labels", "14", "--preset",
                   "paper-mlknn", "--seed", "3", "--out", out) == 0
        assert run("explain", "--data", data, "--labels", "14",
                   "--model", out / "model.json", "--instance", "550",
                   "--label-ids", "1,2,12,13", "--budget", "256",
                   "--background", "8", "--seed", "3", "--out", tmp_path) == 0
        written = {p.name for p in tmp_path.glob("explanation_*.json")}
        assert written == {f"explanation_i550_l{l}.json" for l in (1, 2, 12, 13)}


@pytest.fixture(scope="module")
def trained_cc_and_mlknn(small_arff, tmp_path_factory):
    paths = {}
    for algo, flags in (("cc", ["--n-trees", "2", "--max-depth", "3"]),
                        ("mlknn", ["--k", "3"])):
        out = tmp_path_factory.mktemp(algo)
        assert run("train", "--data", small_arff, "--labels", "3", "--algo", algo,
                   *flags, "--seed", "5", "--out", out) == 0
        paths[algo] = out / "model.json"
    return paths


class TestTreeEstimator:
    def test_br_default_is_tree_and_reads_no_budget(self, small_arff, trained, tmp_path):
        common = ["explain", "--data", small_arff, "--labels", "3", "--model", trained,
                  "--instance", "4", "--background", "8", "--seed", "5"]
        assert run(*common, "--out", tmp_path / "default") == 0
        assert run(*common, "--budget", "7", "--out", tmp_path / "budget") == 0
        assert run(*common, "--estimator", "tree", "--out", tmp_path / "tree") == 0
        files = sorted(p.name for p in (tmp_path / "tree").iterdir())
        assert files == [f"explanation_i4_l{l}.json" for l in range(3)]
        for name in files:
            want = (tmp_path / "tree" / name).read_bytes()
            assert (tmp_path / "default" / name).read_bytes() == want
            assert (tmp_path / "budget" / name).read_bytes() == want

    @pytest.mark.parametrize("algo, reason", [("cc", "not a sum of leaf values"),
                                              ("mlknn", "neighbor label counts")])
    def test_tree_on_cc_and_mlknn_exits_2(self, small_arff, trained_cc_and_mlknn,
                                          tmp_path, capsys, algo, reason):
        code = run("explain", "--data", small_arff, "--labels", "3",
                   "--model", trained_cc_and_mlknn[algo], "--instance", "4",
                   "--estimator", "tree", "--seed", "5", "--out", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert 'estimator "tree" explains binary relevance forests only' in err
        assert reason in err
        assert not list(tmp_path.glob("explanation_*.json"))

    def test_unknown_estimator_in_config_exits_2(self, small_arff, trained, tmp_path,
                                                 capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"estimator": "bogus"}))
        code = run("explain", "--config", config, "--data", small_arff, "--labels", "3",
                   "--model", trained, "--instance", "4", "--seed", "5",
                   "--out", tmp_path)
        assert code == 2
        assert "estimator must be one of exact, kernel, tree" in capsys.readouterr().err


class TestNumericInputs:
    """A numeric flag or config value of the wrong type or range exits 2 naming
    its flag, before any output; only an unset (null) value takes the default."""

    @staticmethod
    def _config(command, small_arff, trained, out):
        base = {"data": str(small_arff), "labels": 3, "seed": 5, "out": str(out)}
        return dict(base, **{
            "train": {"algo": "br", "n_trees": 1},
            "tune": {"algo": "mlknn", "grid": {"k": [2]}},
            "explain": {"model": str(trained), "instance": 4},
        }[command])

    @pytest.mark.parametrize("command, flags, bad, flag", [
        ("explain", ["--background", "0"], {}, "--background"),
        ("explain", ["--background", "-5"], {}, "--background"),
        ("tune", ["--reps", "0"], {}, "--reps"),
        ("tune", ["--folds", "0"], {}, "--folds"),
        ("tune", ["--folds", "1"], {}, "--folds"),
        ("explain", ["--label-ids", "0,a"], {}, "--label-ids"),
        ("explain", [], {"background": 2.5}, "--background"),
        ("explain", [], {"instance": "3"}, "--instance"),
        ("explain", [], {"instance": -1}, "--instance"),
        ("explain", [], {"label_ids": ["0"]}, "--label-ids"),
        ("explain", [], {"label_ids": 0}, "--label-ids"),
        ("explain", [], {"label_ids": []}, "--label-ids"),
        ("explain", [], {"label_ids": [True]}, "--label-ids"),
        ("explain", [], {"budget": "7"}, "--budget"),
        ("explain", [], {"budget": 2.5}, "--budget"),
        ("explain", [], {"seed": "x"}, "--seed"),
        ("tune", [], {"reps": 1.5}, "--reps"),
        ("tune", [], {"folds": True}, "--folds"),
        ("train", [], {"labels": 12.5}, "--labels"),
        ("train", [], {"labels": [0, 1]}, "--labels"),
        ("train", [], {"seed": -1}, "--seed"),
        ("train", [], {"out": 5}, "--out"),
        ("train", [], {"data": 5}, "--data"),
        ("train", [], {"preset": 3}, "--preset"),
        ("train", [], {"preset": "bogus"}, "--preset"),
        ("train", [], {"algo": "cc", "order": 5}, "--order"),
        ("explain", ["--label-ids", "1,1"], {}, "--label-ids"),
        ("explain", [], {"label_ids": [0, 2, 0]}, "--label-ids"),
    ])
    def test_exits_2_naming_the_flag(self, small_arff, trained, tmp_path, capsys,
                                     command, flags, bad, flag):
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(
            self._config(command, small_arff, trained, out), **bad)))
        assert run(command, "--config", config, *flags) == 2
        assert f"error: {flag} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_null_takes_the_default(self, small_arff, trained, tmp_path):
        config = tmp_path / "config.json"
        outs = []
        for extra in ({}, {"background": None, "label_ids": None, "budget": None}):
            outs.append(tmp_path / f"out{len(outs)}")
            config.write_text(json.dumps(dict(
                self._config("explain", small_arff, trained, outs[-1]),
                estimator="kernel", **extra)))
            assert run("explain", "--config", config) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 3
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("command, flag", [("explain", "--budget"),
                                               ("train", "--max-features")])
    def test_unparsable_flag_value_usage_error(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, flag, "abc", "--seed", "1", "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert f"argument {flag}: must be an integer or" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_smallest_values_are_taken(self, small_arff, trained, tmp_path):
        assert run("explain", "--data", small_arff, "--labels", "3",
                   "--model", trained, "--instance", "0", "--label-ids", "0",
                   "--background", "1", "--seed", "0", "--out", tmp_path) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["explanation_i0_l0.json"]


class TestMalformedModel:
    """A model.json whose tree arenas the grower could not have written, that
    lacks a field or holds it or one of its entries as null, or whose forest
    params hold an unknown key, fails to load with ValueError naming the
    field, so explain exits 1 and neither loops forever, indexes out of
    range nor raises KeyError or TypeError."""

    # corruption -> the start of the message it raises
    CASES = {
        "left": "tree 0: left",
        "feature": "tree 0: feature",
        "value": "tree 0: value",
        "value-missing": "model: payload.forests[0].trees[0].value is missing",
        "threshold-null": "model: payload.forests[0].trees[0].threshold is null, must be a list",
        "forests-missing": "model: payload.forests is missing",
        "threshold-null-entry": "model: payload.forests[0].trees[0].threshold[0] is null, must be a finite number",
        "value-null-entry": "model: payload.forests[0].trees[0].value[0] is null, must be a finite number",
        "value-above-one": "tree 0: value[0] is 7.5, must be in [0, 1]",
        "feature-null-entry": "model: payload.forests[0].trees[0].feature[0] is null, must be an integer",
        "left-null-entry": "model: payload.forests[0].trees[0].left[0] is null, must be an integer",
        "right-null-entry": "model: payload.forests[0].trees[0].right[0] is null, must be an integer",
        "params-unknown-key": "model: payload.forests[0].params.bogus is not a known key",
    }

    @staticmethod
    def _corrupt(trained, tmp_path, field):
        doc = json.loads(trained.read_text())
        tree = doc["payload"]["forests"][0]["trees"][0]
        assert tree["feature"][0] >= 0  # a split root, so a cycle would loop
        if field == "left":  # the root is its own child
            tree["left"][0] = tree["right"][0] = 0
        elif field == "feature":
            tree["feature"][0] = doc["n_features"]
        elif field == "value":
            tree["value"].pop()
        elif field == "value-missing":
            del tree["value"]
        elif field == "threshold-null":
            tree["threshold"] = None
        elif field.endswith("-null-entry"):
            tree[field.split("-")[0]][0] = None
        elif field == "value-above-one":
            tree["value"][0] = 7.5
        elif field == "params-unknown-key":
            doc["payload"]["forests"][0]["params"]["bogus"] = 1
        else:
            del doc["payload"]["forests"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_load_model_names_the_field(self, trained, tmp_path, field):
        path = self._corrupt(trained, tmp_path, field)
        with pytest.raises(ValueError, match=f"^{re.escape(self.CASES[field])}"):
            load_model(path)

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_explain_exits_1(self, small_arff, trained, tmp_path, capsys, field):
        path = self._corrupt(trained, tmp_path, field)
        out = tmp_path / "out"
        assert run("explain", "--data", small_arff, "--labels", "3", "--model", path,
                   "--instance", "0", "--seed", "1", "--out", out) == 1
        assert f"error: {self.CASES[field]}" in capsys.readouterr().err
        assert not out.exists()


class TestDirectoryForAFile:
    """A directory where a file is expected is a usage error (exit 2) naming
    the flag's file, not an IsADirectoryError traceback."""

    @pytest.mark.parametrize("kind", ["model", "explanation", "data", "config"])
    def test_exits_2(self, small_arff, trained, tmp_path, capsys, kind):
        folder = tmp_path / "folder.arff"
        folder.mkdir()
        common = ["--labels", "3", "--seed", "1", "--out", tmp_path / "out"]
        argv = {
            "model": ["explain", "--data", small_arff, "--model", folder,
                      "--instance", "0", *common],
            "explanation": ["plot", "--kind", "force", "--in", folder,
                            "--out", tmp_path / "out"],
            "data": ["train", "--data", folder, "--algo", "br", *common],
            "config": ["train", "--config", folder, "--data", small_arff, "--algo", "br",
                       *common],
        }[kind]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (f"error: {kind} file not found or not a "
                                           f"regular file: {folder}\n")
        assert not (tmp_path / "out").exists()


class TestOutNamesAFile:
    """An --out that names an existing file is a usage error (exit 2) naming
    --out, not a FileExistsError traceback, and the file is left as it was."""

    @pytest.mark.parametrize("command", ["train", "tune", "explain", "plot"])
    def test_exits_2(self, small_arff, trained, explanation_files, tmp_path, capsys,
                     command):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        common = ["--data", small_arff, "--labels", "3", "--seed", "1", "--out", taken]
        argv = {
            "train": ["train", *common, "--algo", "mlknn", "--k", "3"],
            "tune": ["tune", *common, "--algo", "mlknn", "--grid", '{"k": [1, 2]}',
                     "--reps", "1", "--folds", "2"],
            "explain": ["explain", *common, "--model", trained, "--instance", "0",
                        "--background", "5"],
            "plot": ["plot", "--kind", "force", "--in", explanation_files[0],
                     "--out", taken],
        }[command]
        assert run(*argv) == 2
        assert capsys.readouterr().err == (f"error: --out {taken} cannot be made a "
                                           "directory: File exists\n")
        assert taken.read_text() == "keep"


class TestOutCheckedFirst:
    """An --out that cannot be a directory is refused before the fit, tune or
    explanation runs, and a run that fails after the check makes no
    directory."""

    WORK = {"train": "fit_point", "tune": "grid_search", "explain": "explain_instance"}

    @pytest.mark.parametrize("command", sorted(WORK))
    def test_refused_before_the_work(self, small_arff, trained, tmp_path, capsys,
                                     monkeypatch, command):
        def fail(*args, **kwargs):
            raise ValueError("the work ran")

        monkeypatch.setattr(cli, self.WORK[command], fail)
        taken = tmp_path / "taken"
        taken.write_text("keep")

        def argv(out):
            common = ["--data", small_arff, "--labels", "3", "--seed", "1", "--out", out]
            return {
                "train": ["train", *common, "--algo", "mlknn", "--k", "3"],
                "tune": ["tune", *common, "--algo", "mlknn", "--grid", '{"k": [1, 2]}'],
                "explain": ["explain", *common, "--model", trained, "--instance", "0"],
            }[command]

        for out, reason in ((taken, "File exists"), (taken / "sub" / "dir", "Not a directory")):
            assert run(*argv(out)) == 2
            assert capsys.readouterr().err == (f"error: --out {out} cannot be made a "
                                               f"directory: {reason}\n")
        assert taken.read_text() == "keep"
        fresh = tmp_path / "fresh" / "dir"
        assert run(*argv(fresh)) == 1
        assert capsys.readouterr().err == "error: the work ran\n"
        assert not (tmp_path / "fresh").exists()


class TestNotJson:
    """A --model or --in file that is not JSON exits 1 naming the document
    kind and the file."""

    def test_model(self, small_arff, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("nope")
        assert run("explain", "--data", small_arff, "--labels", "3", "--seed", "1",
                   "--model", bad, "--instance", "0", "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"error: model file {bad} is not valid JSON: "
                                           "Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "out").exists()

    def test_second_of_two_explanations(self, explanation_files, tmp_path, capsys):
        bad = tmp_path / "explanation.json"
        bad.write_text("nope")
        assert run("plot", "--kind", "importance", "--in", explanation_files[0], bad,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: explanation file {bad} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n")
        assert not (tmp_path / "out").exists()


class TestModuleEntry:
    def test_python_m_runs_the_cli(self, tmp_path):
        done = run_python("-m", "mlshap.cli", "--help", cwd=tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage: mlshap")
        done = run_python("-m", "mlshap.cli", "train", cwd=tmp_path)
        assert done.returncode == 2
        assert "error: --seed is required" in done.stderr

    def test_scipy_loads_only_where_called(self, small_arff, tmp_path):
        """Train, BR explain and plot run without scipy; ML-kNN loads it."""
        script = f"""
import sys
import mlshap, mlshap.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert loaded() == [], loaded()
flags = ["--data", {str(small_arff)!r}, "--labels", "3", "--seed", "1"]
main = mlshap.cli.main
assert main(["train", *flags, "--algo", "br", "--n-trees", "2", "--out", "br"]) == 0
assert main(["explain", *flags, "--model", "br/model.json", "--instance", "0",
             "--background", "5", "--out", "ex"]) == 0
assert main(["plot", "--kind", "importance", "--in", "ex/explanation_i0_l0.json",
             "--out", "plot"]) == 0
assert loaded() == [], loaded()
data = mlshap.load_arff({str(small_arff)!r}, 3)
mlshap.fit_mlknn(data, k=3).predict_proba(data.features[:2])
assert "scipy.spatial.distance" in sys.modules, loaded()
"""
        done = run_python("-c", script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr


class TestPlot:
    def test_importance(self, explanation_files, tmp_path):
        assert run("plot", "--kind", "importance", "--in", *explanation_files,
                   "--out", tmp_path) == 0
        assert (tmp_path / "importance.svg").exists()
        assert (tmp_path / "importance.json").exists()

    def test_force_single_file(self, explanation_files, tmp_path):
        assert run("plot", "--kind", "force", "--in", explanation_files[0],
                   "--out", tmp_path) == 0
        assert (tmp_path / "force.svg").read_text().startswith("<?xml")

    def test_force_rejects_multiple_files(self, explanation_files, tmp_path, capsys):
        assert run("plot", "--kind", "force", "--in", *explanation_files[:2],
                   "--out", tmp_path) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_summary_needs_single_label(self, explanation_files, tmp_path, capsys):
        assert run("plot", "--kind", "summary", "--in", *explanation_files,
                   "--out", tmp_path) == 2
        assert "--label" in capsys.readouterr().err
        assert run("plot", "--kind", "summary", "--label", "1",
                   "--in", *explanation_files, "--out", tmp_path) == 0
        assert (tmp_path / "summary.svg").exists()

    def test_unknown_kind_usage_error(self, explanation_files, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("plot", "--kind", "pie", "--in", explanation_files[0],
                "--out", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("drop, message", [
        (lambda doc: doc["phi"][1].pop("shap"), "explanation: phi[1].shap is missing"),
        (lambda doc: doc.update(base_value=None), "explanation: base_value is null"),
        (lambda doc: doc.update(base_value=[]),
         "explanation: base_value is [], must be a finite number"),
        (lambda doc: doc.update(fx="0.5"),
         'explanation: fx is "0.5", must be a finite number'),
        (lambda doc: doc.update(fx=10**400),
         "explanation: fx is 1" + "0" * 36 + "..., must be a finite number"),
        (lambda doc: doc.update(phi=5), "explanation: phi is 5, must be a list"),
        (lambda doc: doc["phi"].__setitem__(0, 5), "explanation: phi[0] is 5, must be an object"),
        (lambda doc: doc["phi"][2].update(value=True),
         "explanation: phi[2].value is true, must be a finite number"),
        (lambda doc: doc["phi"][0].update(feature=3),
         "explanation: phi[0].feature is 3, must be a string"),
        (lambda doc: doc.update(instance="x"),
         'explanation: instance is "x", must be null or an integer'),
        (lambda doc: doc.update(label="x"),
         'explanation: label is "x", must be null or an integer'),
        (lambda doc: doc.update(label=1.0),
         "explanation: label is 1.0, must be null or an integer"),
        (lambda doc: doc.update(instance=True),
         "explanation: instance is true, must be null or an integer"),
    ], ids=["shap-missing", "base-null", "base-list", "fx-string", "fx-huge", "phi-number",
            "phi-item-number", "value-bool", "feature-number", "instance-string",
            "label-string", "label-float", "instance-bool"])
    def test_malformed_explanation_exits_1(self, explanation_files, tmp_path, capsys,
                                           drop, message):
        doc = json.loads(explanation_files[0].read_text())
        drop(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run("plot", "--kind", "force", "--in", path,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mistyped_explanation_fails_without_traceback(self, explanation_files,
                                                          tmp_path):
        """``base_value: []`` once escaped as a raw TypeError traceback."""
        doc = json.loads(explanation_files[0].read_text())
        doc["base_value"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        done = run_python("-m", "mlshap.cli", "plot", "--kind", "force", "--in",
                          str(path), "--out", "out", cwd=tmp_path)
        assert done.returncode == 1
        assert done.stderr == ("error: explanation: base_value is [], must be a "
                               "finite number\n")

    @pytest.mark.parametrize("kind", ["importance", "summary"])
    def test_explanations_of_other_features_exit_1(self, explanation_files, tmp_path,
                                                   capsys, kind):
        """Widths 2 and 3 once gave numpy's "inhomogeneous shape" under
        summary; both views now name the explanation that differs."""
        doc = json.loads(explanation_files[0].read_text())
        names = [item["feature"] for item in doc["phi"]]
        doc["phi"] = doc["phi"][:-1]
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(doc))
        assert run("plot", "--kind", kind, "--in", explanation_files[0], path,
                   "--out", tmp_path / "out") == 1
        assert (f"error: explanation 1 (instance {doc['instance']}, label {doc['label']}) "
                f"has features {names[:-1]}, explanation 0 has {names}"
                ) in capsys.readouterr().err
        assert not (tmp_path / "out" / f"{kind}.svg").exists()

    @pytest.mark.parametrize("kind", ["importance", "summary", "force"])
    def test_zero_feature_explanation_exits_1(self, explanation_files, tmp_path, capsys,
                                              kind):
        """``"phi": []`` once loaded: summary then failed inside numpy, and
        importance and force wrote empty plots."""
        doc = dict(json.loads(explanation_files[0].read_text()), phi=[])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert run("plot", "--kind", kind, "--in", path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phi must be a non-empty vector")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_plot_outputs_byte_stable(self, explanation_files, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("plot", "--kind", "importance", "--in", *explanation_files,
                       "--out", out) == 0
        assert (out_a / "importance.svg").read_bytes() == \
            (out_b / "importance.svg").read_bytes()
        assert (out_a / "importance.json").read_bytes() == \
            (out_b / "importance.json").read_bytes()
