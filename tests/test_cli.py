"""Command-line interface: gen-synthetic, run, compare."""

import json

import pytest

from stablepred import experiment
from stablepred.cli import main
from stablepred.data import load_dataset, load_feature_graph

from conftest import traced_peak


@pytest.fixture()
def spec_file(tmp_path):
    payload = {
        "n_samples": 40,
        "n_groups": 3,
        "group_size": 3,
        "within_group_noise": 0.3,
        "n_informative_groups": 1,
        "true_weight_scale": 1.5,
        "label_noise": 0.0,
        "seed": 21,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_config(tmp_path, cohort_dir):
    return {
        "train_path": str(cohort_dir / "train.csv"),
        "validation_path": str(cohort_dir / "validation.csv"),
        "model": "lasso",
        "hyperparams": {"alpha": 0.02},
        "optimizer": {"max_iters": 100, "learning_rate": 0.05, "rel_tol": 1e-8, "seed": 2},
        "n_bootstraps": 3,
        "k_list": [3],
        "top_for_snr": 4,
        "output_dir": str(tmp_path / "out"),
    }


class TestGenSynthetic:
    def test_writes_cohort_bundle(self, tmp_path, spec_file, capsys):
        code = main(["gen-synthetic", "--spec", str(spec_file), "--out", str(tmp_path / "coh")])
        assert code == 0
        train = load_dataset(tmp_path / "coh" / "train.csv", label_column="label")
        assert train.n_samples == 40 and train.n_features == 9
        augment = load_dataset(tmp_path / "coh" / "augment.csv")
        assert augment.y is None
        graph = load_feature_graph(tmp_path / "coh" / "graph.tsv")
        assert len(graph.edges) == 9  # 3 groups x C(3,2)
        assert "train.csv" in capsys.readouterr().out

    def test_holds_one_cohort_at_a_time(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_samples": 2000, "n_groups": 50}), encoding="utf-8")
        code, peak = traced_peak(
            lambda: main(["gen-synthetic", "--spec", str(spec), "--out", str(tmp_path / "coh")])
        )
        assert code == 0
        assert "(2000 x 500)" in capsys.readouterr().out
        # 4.3 with all three cohorts drawn before the first is written
        assert peak <= 2.6 * 2000 * 500 * 8

    @pytest.mark.parametrize("payload,message", [
        # these used to print SyntheticSpec's own TypeErrors: an unexpected keyword
        # argument, and an argument after ** that must be a mapping
        ({"n_sample": 3}, "unknown spec field 'n_sample'"),
        ([1], "spec must be a JSON object, got [1]"),
    ], ids=["unknown-key", "non-object"])
    def test_bad_spec_named(self, tmp_path, capsys, payload, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["gen-synthetic", "--spec", str(spec), "--out", str(tmp_path / "coh")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "coh").exists()

    def test_missing_spec_file_fails(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--spec", str(tmp_path / "none.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_end_to_end(self, tmp_path, spec_file, capsys):
        cohorts = tmp_path / "coh"
        assert main(["gen-synthetic", "--spec", str(spec_file), "--out", str(cohorts)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(run_config(tmp_path, cohorts)), encoding="utf-8")
        code = main(["run", "--config", str(cfg_path)])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["model"] == "lasso"
        assert (tmp_path / "out" / "ci_curve.csv").exists()

    def test_bad_config_exits_nonzero(self, tmp_path, spec_file, capsys):
        cohorts = tmp_path / "coh"
        main(["gen-synthetic", "--spec", str(spec_file), "--out", str(cohorts)])
        payload = run_config(tmp_path, cohorts)
        payload["hyperparams"]["lambda_ae"] = 5.0  # inapplicable for lasso
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "lambda_ae" in capsys.readouterr().err

    def test_missing_output_dir_refused_before_loading(self, tmp_path, capsys):
        payload = run_config(tmp_path, tmp_path / "absent")
        del payload["output_dir"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "error: no output directory: set output_dir in the config or pass --out\n")

    @pytest.mark.parametrize("command, where, below", [
        ("run", "--out", False), ("run", "--out", True), ("run", "output_dir", False),
        ("compare", "--out", False),
    ], ids=["run-out", "run-out-below-a-file", "run-output-dir", "compare-out"])
    def test_file_as_output_dir_refused_before_loading(self, tmp_path, capsys, monkeypatch,
                                                       command, where, below):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken / "report" if below else taken

        def no_load(*args):
            raise AssertionError("loaded the cohorts before the output path was checked")

        monkeypatch.setattr(experiment, "_load_cohorts", no_load)
        payload = run_config(tmp_path, tmp_path / "absent")
        payload["output_dir"] = str(out if where == "output_dir" else tmp_path / "out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = [command, "--configs" if command == "compare" else "--config", str(cfg_path)]
        if where == "--out":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {where} {out}: {taken} exists and is not a directory\n")


class TestCompare:
    def test_two_model_comparison(self, tmp_path, spec_file, capsys):
        cohorts = tmp_path / "coh"
        main(["gen-synthetic", "--spec", str(spec_file), "--out", str(cohorts)])
        base = run_config(tmp_path, cohorts)
        cfg_a = tmp_path / "a.json"
        cfg_a.write_text(json.dumps(base), encoding="utf-8")
        other = dict(base)
        other["model"] = "elastic-net"
        other["hyperparams"] = {"alpha": 0.02, "lambda_en": 0.5}
        cfg_b = tmp_path / "b.json"
        cfg_b.write_text(json.dumps(other), encoding="utf-8")
        code = main([
            "compare", "--configs", str(cfg_a), str(cfg_b), "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        lines = (tmp_path / "cmp" / "comparison.csv").read_text().strip().splitlines()
        assert lines[0].startswith("model,ci_k3,auc")
        assert len(lines) == 3
