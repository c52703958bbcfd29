"""Experiment orchestration: config validation, determinism, report emission."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stablepred import experiment, stability
from stablepred.data import (
    align_common_features,
    make_dataset,
    standardize,
    standardize_like,
    write_dataset_csv,
    write_feature_graph,
)
from stablepred.experiment import (
    ExperimentConfig,
    compare_models,
    emit_report,
    run_experiment,
)
from stablepred.models import AUGMENTED_MODELS, AUTOENCODER_MODELS, GRAPH_MODELS, MODEL_NAMES
from stablepred.objectives import HyperParams
from stablepred.optimizer import NumericalDivergenceError, OptimizerConfig
from stablepred.synthetic import SyntheticSpec, generate, make_group_graph, write_bundle

from conftest import force_workers, needs_pool, pin_host

SPEC = SyntheticSpec(
    n_samples=50, n_groups=3, group_size=4, within_group_noise=0.3,
    n_informative_groups=1, true_weight_scale=1.5, label_noise=0.0, seed=17,
)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohorts")
    write_bundle(SPEC, out)
    return out


def base_config(cohort_dir, model="lasso", **overrides):
    kwargs = dict(
        train_path=str(cohort_dir / "train.csv"),
        validation_path=str(cohort_dir / "validation.csv"),
        model=model,
        hyperparams=HyperParams(alpha=0.02),
        optimizer=OptimizerConfig(max_iters=120, learning_rate=0.05, rel_tol=1e-8, seed=5),
        n_bootstraps=4,
        k_list=(3, 6),
        top_for_snr=5,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfigValidation:
    def test_lasso_with_ae_penalty_rejected(self, cohort_dir):
        with pytest.raises(ValueError, match="lambda_ae"):
            base_config(cohort_dir, hyperparams=HyperParams(alpha=0.02, lambda_ae=1.0))

    def test_graph_model_requires_graph_path(self, cohort_dir):
        with pytest.raises(ValueError, match="graph_path"):
            base_config(cohort_dir, model="lasso-graph",
                        hyperparams=HyperParams(alpha=0.02, lambda_fg=0.1))

    def test_plain_model_rejects_graph_path(self, cohort_dir):
        with pytest.raises(ValueError, match="graph_path"):
            base_config(cohort_dir, graph_path=str(cohort_dir / "graph.tsv"))

    def test_ag_model_requires_augment_path(self, cohort_dir):
        with pytest.raises(ValueError, match="augment_path"):
            base_config(
                cohort_dir, model="ag-lasso-autoencoder-graph",
                hyperparams=HyperParams(alpha=0.02, lambda_ae=1.0, hidden_units=3),
                graph_path=str(cohort_dir / "graph.tsv"),
            )

    def test_plain_model_rejects_augment_path(self, cohort_dir):
        with pytest.raises(ValueError, match="augment_path"):
            base_config(cohort_dir, augment_path=str(cohort_dir / "augment.csv"))

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize(
        "knob,value",
        [("lambda_en", 0.5), ("lambda_fg", 0.1), ("lambda_ae", 1.0), ("lambda_l2", 0.01)],
    )
    def test_knob_model_grid(self, cohort_dir, model, knob, value):
        accepted = {
            "lambda_en": frozenset({"elastic-net"}),
            "lambda_fg": GRAPH_MODELS,
            "lambda_ae": AUTOENCODER_MODELS,
            "lambda_l2": AUTOENCODER_MODELS,
        }[knob]
        h = HyperParams(**{"alpha": 0.02, knob: value, "hidden_units": 3})
        extra = {}
        if model in GRAPH_MODELS:
            extra["graph_path"] = str(cohort_dir / "graph.tsv")
        if model in AUGMENTED_MODELS:
            extra["augment_path"] = str(cohort_dir / "augment.csv")
        if model in accepted:
            base_config(cohort_dir, model=model, hyperparams=h, **extra)
        else:
            with pytest.raises(ValueError, match=knob):
                base_config(cohort_dir, model=model, hyperparams=h, **extra)

    @pytest.mark.parametrize("section,field,value", [
        (None, "selected_tol", math.nan),
        (None, "selected_tol", math.inf),
        ("optimizer", "rel_tol", math.nan),
    ])
    def test_nan_and_inf_in_config_file_rejected(self, cohort_dir, tmp_path, section, field,
                                                 value):
        # json writes and reads NaN and Infinity; at selected_tol=NaN the report
        # counted 0 selected weights, at rel_tol=NaN every fit ran to max_iters
        payload = base_config(cohort_dir).to_dict()
        (payload if section is None else payload[section])[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("field,value", [
        ("n_bootstraps", math.nan), ("n_bootstraps", 2.5), ("n_bootstraps", 1),
        ("top_for_snr", math.nan), ("top_for_snr", 2.5), ("top_for_snr", 0),
        ("k_list", (3, math.nan)), ("k_list", (2.5,)), ("k_list", (0,)),
    ])
    def test_integer_settings_rejected(self, cohort_dir, field, value):
        with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
            base_config(cohort_dir, **{field: value})

    def test_fractional_k_in_config_file_rejected(self, cohort_dir, tmp_path):
        # from_dict used to truncate 2.5 to 2
        payload = base_config(cohort_dir).to_dict()
        payload["k_list"] = [2.5]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="k_list entries must be an integer >= 1, got 2.5"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("value", [True, "0.001"])
    def test_selected_tol_bools_and_strings_rejected(self, cohort_dir, value):
        with pytest.raises(ValueError, match=f"selected_tol must be > 0 and finite, got {value!r}"):
            base_config(cohort_dir, selected_tol=value)

    def test_integer_adaptive_in_config_file_rejected(self, cohort_dir, tmp_path):
        # adaptive: 0 used to run plain gradient steps and be echoed as 0 in report.json
        payload = base_config(cohort_dir).to_dict()
        payload["optimizer"]["adaptive"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="adaptive must be a bool, got 0"):
            ExperimentConfig.from_json(path)

    def test_label_column_must_be_a_string(self, cohort_dir):
        with pytest.raises(ValueError, match="label_column must be a string, got None"):
            base_config(cohort_dir, label_column=None)

    def test_null_label_column_in_config_file_rejected(self, cohort_dir, tmp_path):
        # null used to load both cohorts unlabeled and fail only after reading them
        payload = base_config(cohort_dir).to_dict()
        payload["label_column"] = None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="label_column must be a string, got None"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("field,value,message", [
        # output_dir: 3 used to fail only after the whole run, naming no field
        ("output_dir", 3, "output_dir must be a string or null, got 3"),
        ("train_path", None, "train_path must be a string, got None"),
        # k_list: 5 used to fail as not iterable, and "20" as the entries '2' and '0'
        ("k_list", 5, r"k_list must be a non-empty tuple \(a list in JSON\), got 5"),
        ("k_list", "20", r"k_list must be a non-empty tuple \(a list in JSON\), got '20'"),
        # a list model used to fail as unhashable, and a non-object hyperparams or
        # optimizer with an unnamed TypeError from **
        ("model", ["lasso"], r"model must be a string, got \['lasso'\]"),
        ("hyperparams", 5, "hyperparams must be a JSON object, got 5"),
        ("optimizer", [1], r"optimizer must be a JSON object, got \[1\]"),
    ], ids=["output_dir-int", "train_path-null", "k_list-int", "k_list-string", "model-list",
            "hyperparams-int", "optimizer-list"])
    def test_field_types_in_config_file_rejected(self, cohort_dir, tmp_path, field, value,
                                                 message):
        payload = base_config(cohort_dir).to_dict()
        payload[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("section,key,message", [
        (None, "n_bootstrap", "unknown config field 'n_bootstrap'"),
        ("hyperparams", "alpha_", "unknown hyperparams field 'alpha_'"),
        ("optimizer", "lr", "unknown optimizer field 'lr'"),
    ])
    def test_unknown_keys_in_config_file_rejected(self, cohort_dir, tmp_path, section, key,
                                                  message):
        # a misspelled key used to fail as an unlocated TypeError from the constructor
        payload = base_config(cohort_dir).to_dict()
        (payload if section is None else payload[section])[key] = 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig.from_json(path)

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^config must be a JSON object, got \[1, 2\]$"):
            ExperimentConfig.from_json(path)

    def test_config_json_roundtrip(self, cohort_dir, tmp_path):
        cfg = base_config(cohort_dir)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert ExperimentConfig.from_json(path) == cfg


def one_class_cohort(out):
    """The path of a cohort like the bundle's whose labels are all +1."""
    d = generate(dataclasses.replace(SPEC, seed=SPEC.seed + 1))
    path = out / "positive.csv"
    write_dataset_csv(make_dataset(d.X, y=np.ones(d.n_samples), feature_names=d.feature_names),
                      path)
    return path


class TestRunExperiment:
    def test_lasso_report_contents(self, cohort_dir):
        report = run_experiment(base_config(cohort_dir))
        assert report.model == "lasso"
        assert report.n_features == 12
        assert [k for k, _ in report.ci_curve] == [3, 6]
        assert all(-1.0 <= v <= 1.0 for _, v in report.ci_curve)
        assert 0.0 <= report.validation_auc <= 1.0
        assert len(report.snr_top) == 5
        assert report.bootstrap_seeds == (5, 6, 7, 8)
        assert report.selected_count == round(report.selected_fraction * 12)

    def test_deterministic_reports(self, cohort_dir):
        a = run_experiment(base_config(cohort_dir))
        b = run_experiment(base_config(cohort_dir))
        assert a == b
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_ag_model_runs_with_alignment(self, cohort_dir):
        cfg = base_config(
            cohort_dir, model="ag-lasso-autoencoder-graph",
            hyperparams=HyperParams(alpha=0.02, lambda_ae=5.0, lambda_l2=1e-3,
                                    lambda_fg=0.05, hidden_units=3),
            graph_path=str(cohort_dir / "graph.tsv"),
            augment_path=str(cohort_dir / "augment.csv"),
        )
        report = run_experiment(cfg)
        assert report.dropped_graph_edges == 0
        assert report.n_features == 12

    def test_oversized_k_rejected(self, cohort_dir):
        cfg = base_config(cohort_dir, k_list=(12,))
        with pytest.raises(ValueError, match=r"k_list entries must be an integer in \[1, 11\], got 12"):
            run_experiment(cfg)

    @pytest.mark.parametrize("field,what", [("train_path", "training"),
                                            ("validation_path", "validation")])
    def test_one_class_cohort_rejected_before_any_fit(self, cohort_dir, tmp_path, monkeypatch,
                                                      field, what):
        path = one_class_cohort(tmp_path)

        def no_fit(*args):
            raise AssertionError(f"fitted before the {what} cohort was checked")

        monkeypatch.setattr(experiment, "_bootstraps_and_final_fit", no_fit)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {what} cohort must hold")):
            run_experiment(base_config(cohort_dir, **{field: str(path)}))

    def test_report_fields_reproducible_from_modules(self, cohort_dir):
        # the report's CI entry must equal the stability module's own value
        from stablepred.data import load_dataset, standardize
        from stablepred.models import ModelSpec
        from stablepred.stability import mean_consistency, run_bootstraps, top_k_subsets

        cfg = base_config(cohort_dir)
        report = run_experiment(cfg)
        train = standardize(load_dataset(cfg.train_path, label_column="label"))
        ensemble = run_bootstraps(
            train, ModelSpec("lasso"), cfg.hyperparams, cfg.optimizer,
            cfg.n_bootstraps, cfg.optimizer.seed,
        )
        fam = top_k_subsets(ensemble, train.raw_std, 3)
        assert report.mean_ci_at(3) == mean_consistency(fam, train.n_features)


class TestEmitReport:
    def test_files_written_and_roundtrip(self, cohort_dir, tmp_path):
        report = run_experiment(base_config(cohort_dir))
        written = emit_report(report, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"report.json", "ci_curve.csv", "snr_top.csv", "weights_mean.csv"}
        with open(tmp_path / "out" / "report.json", encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(report.to_dict()))

    def test_ci_curve_rows(self, cohort_dir, tmp_path):
        report = run_experiment(base_config(cohort_dir, k_list=(2, 5, 8)))
        emit_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "ci_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "k,mean_ci"
        assert len(lines) == 4

    def test_snr_rows_sorted_by_rank(self, cohort_dir, tmp_path):
        report = run_experiment(base_config(cohort_dir))
        emit_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "snr_top.csv").read_text().strip().splitlines()[1:]
        ranks = [int(line.split(",")[0]) for line in lines]
        assert ranks == sorted(ranks) == list(range(1, 6))

    def test_byte_identical_reports(self, cohort_dir, tmp_path):
        for d in ("a", "b"):
            emit_report(run_experiment(base_config(cohort_dir)), tmp_path / d)
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b


_ROWS = {"ci_curve": ("k", "mean_ci"), "snr_top": ("rank", "feature", "snr")}


def per_field_report_dict(report):
    """Oracle: the per-field loop report.json's object was built with when the
    report held its settings as sorted (name, value) pairs; here the pairs are
    read off the settings objects."""
    out = {}
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        if f.name in _ROWS:
            value = [dict(zip(_ROWS[f.name], row)) for row in value]
        elif f.name in ("hyperparams", "optimizer"):
            value = dict(sorted(dataclasses.asdict(value).items()))
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


class TestSerializationThroughFields:
    """report.json and config JSON are written through the dataclass fields."""

    AG = dict(model="ag-lasso-autoencoder-graph",
              hyperparams=HyperParams(alpha=0.02, lambda_ae=5.0, lambda_l2=1e-3,
                                      lambda_fg=0.05, hidden_units=3))

    def configs(self, cohort_dir):
        paths = dict(graph_path=str(cohort_dir / "graph.tsv"),
                     augment_path=str(cohort_dir / "augment.csv"))
        return [
            base_config(cohort_dir),
            base_config(cohort_dir, k_list=(2, 5, 8), selected_tol=0.01, label_column="label",
                        output_dir="out", optimizer=OptimizerConfig(adaptive=False, seed=3)),
            base_config(cohort_dir, **self.AG, **paths),
        ]

    @pytest.mark.parametrize("which", [0, 2])
    def test_report_bytes_and_round_trip(self, cohort_dir, tmp_path, which):
        cfg = self.configs(cohort_dir)[which]
        report = run_experiment(cfg)
        emit_report(report, tmp_path)
        expected = json.dumps(per_field_report_dict(report), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")
        assert report.hyperparams == cfg.hyperparams and report.optimizer == cfg.optimizer

    def test_config_fields_named(self, cohort_dir):
        # a missing field used to raise a TypeError from the config's constructor
        payload = base_config(cohort_dir).to_dict()
        assert ExperimentConfig.from_dict(dict(payload)).to_dict() == payload
        with pytest.raises(ValueError, match="^config field 'train_path' is missing$"):
            ExperimentConfig.from_dict({"model": "lasso"})
        with pytest.raises(ValueError, match="^config field 'validation_path' is missing$"):
            ExperimentConfig.from_dict({k: v for k, v in payload.items()
                                        if k != "validation_path"})
        with pytest.raises(ValueError, match="^unknown config field 'n_feature'$"):
            ExperimentConfig.from_dict({**payload, "n_feature": 12})
        with pytest.raises(ValueError, match=r"^config must be a JSON object, got \[\]$"):
            ExperimentConfig.from_dict([])

    def test_config_json_bytes(self, cohort_dir):
        for cfg in self.configs(cohort_dir):
            old = dataclasses.asdict(cfg)  # the to_dict of earlier versions
            old["k_list"] = list(cfg.k_list)
            assert json.dumps(cfg.to_dict(), indent=2) == json.dumps(old, indent=2)
            assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestCompareModels:
    def test_duplicate_config_identical_rows(self, cohort_dir, tmp_path):
        cfgs = [base_config(cohort_dir), base_config(cohort_dir)]
        reports = compare_models(cfgs, output_dir=tmp_path)
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == lines[2]
        assert reports[0] == reports[1]

    def test_six_model_rows(self, cohort_dir, tmp_path):
        h_ae = dict(lambda_ae=5.0, lambda_l2=1e-3, hidden_units=3)
        graph = str(cohort_dir / "graph.tsv")
        augment = str(cohort_dir / "augment.csv")
        cfgs = [
            base_config(cohort_dir, model="lasso"),
            base_config(cohort_dir, model="elastic-net",
                        hyperparams=HyperParams(alpha=0.02, lambda_en=0.5)),
            base_config(cohort_dir, model="lasso-graph",
                        hyperparams=HyperParams(alpha=0.02, lambda_fg=0.05), graph_path=graph),
            base_config(cohort_dir, model="lasso-autoencoder",
                        hyperparams=HyperParams(alpha=0.02, **h_ae)),
            base_config(cohort_dir, model="lasso-autoencoder-graph",
                        hyperparams=HyperParams(alpha=0.02, lambda_fg=0.05, **h_ae),
                        graph_path=graph),
            base_config(cohort_dir, model="ag-lasso-autoencoder-graph",
                        hyperparams=HyperParams(alpha=0.02, lambda_fg=0.05, **h_ae),
                        graph_path=graph, augment_path=augment),
        ]
        reports = compare_models(cfgs, output_dir=tmp_path)
        assert [r.model for r in reports] == list(MODEL_NAMES)
        lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 7

    def test_mismatched_shared_fields_rejected(self, cohort_dir):
        a = base_config(cohort_dir)
        b = base_config(cohort_dir, n_bootstraps=6)
        with pytest.raises(ValueError, match="n_bootstraps"):
            compare_models([a, b])

    @pytest.mark.parametrize("field,value", [("top_for_snr", 4), ("selected_tol", 1e-2),
                                             ("label_column", "g0f0")])
    def test_mismatched_reporting_fields_rejected(self, cohort_dir, field, value):
        # comparison.csv puts snr_above_count and selected_fraction in one column,
        # and the same CSVs read with another label column are other cohorts
        with pytest.raises(ValueError, match=field):
            compare_models([base_config(cohort_dir), base_config(cohort_dir, **{field: value})])

    def test_file_as_output_dir_rejected_before_any_load(self, cohort_dir, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")

        def no_load(*args):
            raise AssertionError("loaded a cohort before output_dir was checked")

        monkeypatch.setattr(experiment, "_load_cohorts", no_load)
        with pytest.raises(ValueError, match=re.escape(
                f"output_dir {taken}: {taken} exists and is not a directory")):
            compare_models([base_config(cohort_dir)], output_dir=taken)

    def test_mismatched_seed_rejected(self, cohort_dir):
        a = base_config(cohort_dir)
        b = base_config(
            cohort_dir,
            optimizer=OptimizerConfig(max_iters=120, learning_rate=0.05, rel_tol=1e-8, seed=6),
        )
        with pytest.raises(ValueError, match="seed"):
            compare_models([a, b])


# SHA-256 of report.json for TestReportPin's config (numpy 2.4, OpenBLAS 0.3.31,
# x86-64).  It covers load, alignment, fits, reductions and JSON; a change meant
# to keep every number must keep it.  Re-recorded when mean_consistency became
# the exact mean rounded once: the k=6 mean_ci moved by 1 ulp,
# from 0.23611111111111116 to 0.2361111111111111, and no other byte changed.
PINNED_REPORT_SHA256 = "93a1e0e692d482135e937e8b5a2f809d8fff7f4808b553b34130d28745b077b0"


class TestReportPin:
    def test_report_json_matches_pinned_bytes(self, tmp_path):
        # Each cohort lacks a different column and the augment cohort has an
        # extra one, so alignment is three-way and some graph edges drop.
        spec = dataclasses.replace(SPEC, n_samples=40, seed=23)

        def write(d, keep, path, extra=False):
            X, names = d.X[:, keep], [d.feature_names[j] for j in keep]
            if extra:
                X, names = np.column_stack([X, d.X[:, 0] - d.X[:, 1]]), names + ["extra"]
            write_dataset_csv(make_dataset(X, y=d.y, feature_names=names), path)

        n = spec.n_groups * spec.group_size
        write(generate(spec), list(range(n)), tmp_path / "train.csv")
        write(generate(dataclasses.replace(spec, seed=24)), list(range(1, n)),
              tmp_path / "validation.csv")
        write(generate(dataclasses.replace(spec, seed=25), labeled=False),
              [j for j in range(n) if j != 5], tmp_path / "augment.csv", extra=True)
        write_feature_graph(make_group_graph(spec), tmp_path / "graph.tsv")
        cfg = base_config(
            tmp_path, model="ag-lasso-autoencoder-graph",
            hyperparams=HyperParams(alpha=0.02, lambda_ae=5.0, lambda_l2=1e-3,
                                    lambda_fg=0.05, hidden_units=3),
            graph_path=str(tmp_path / "graph.tsv"),
            augment_path=str(tmp_path / "augment.csv"),
            k_list=(3, 6),
        )
        report = run_experiment(cfg)
        assert report.n_features == n - 2 and report.dropped_graph_edges > 0
        emit_report(report, tmp_path / "out")
        digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
        assert digest == PINNED_REPORT_SHA256, pin_host()


# SHA-256 of report.json for B = 3, recorded with the final fit run after the
# bootstrap pool in the parent process; folding it into the pool must keep it.
FOLDED_REPORT_SHA256 = "fd69a1da59645cc06346b5c66f926ee383a57dab667679926e5c027fa5c74d1b"


class TestFinalFitInPool:
    """With B bootstraps on W workers the final full-data fit runs as the
    pool's last job when B % W != 0, else in the parent after the pool."""

    @pytest.mark.parametrize("workers", [2, 1])
    def test_report_bytes_pool_or_serial(self, cohort_dir, tmp_path, monkeypatch, workers):
        force_workers(monkeypatch, workers)
        cfg = base_config(
            cohort_dir, model="lasso-autoencoder-graph", n_bootstraps=3,
            hyperparams=HyperParams(alpha=0.02, lambda_ae=5.0, lambda_l2=1e-3,
                                    lambda_fg=0.05, hidden_units=3),
            graph_path=str(cohort_dir / "graph.tsv"),
        )
        emit_report(run_experiment(cfg), tmp_path)
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == FOLDED_REPORT_SHA256, pin_host()
        assert multiprocessing.active_children() == []

    @needs_pool
    @pytest.mark.parametrize("n_bootstraps, workers, in_worker", [
        (3, 2, True), (2, 4, True), (2, 2, False), (4, 2, False),
    ])
    def test_placement(self, cohort_dir, tmp_path, monkeypatch, n_bootstraps, workers, in_worker):
        force_workers(monkeypatch, workers)
        pids, fit_model = tmp_path / "pids", stability.fit_model

        def recording_fit(*args, **kwargs):
            # only the full-data fit is called without init_seed
            if "init_seed" not in kwargs:
                with open(pids, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")
            return fit_model(*args, **kwargs)

        monkeypatch.setattr(stability, "fit_model", recording_fit)
        run_experiment(base_config(cohort_dir, n_bootstraps=n_bootstraps))
        (pid,) = map(int, pids.read_text(encoding="utf-8").split())
        assert (pid != os.getpid()) == in_worker
        assert multiprocessing.active_children() == []

    def test_all_fits_diverge_reports_lowest_bootstrap(self, cohort_dir, monkeypatch):
        force_workers(monkeypatch, 2)
        cfg = base_config(cohort_dir, n_bootstraps=3,
                          optimizer=OptimizerConfig(max_iters=10, learning_rate=1e300, seed=0))
        with np.errstate(all="ignore"), pytest.raises(NumericalDivergenceError) as exc:
            run_experiment(cfg)
        assert str(exc.value).startswith("bootstrap 0: non-finite loss")
        assert exc.value.iteration == 1
        assert multiprocessing.active_children() == []

    def test_final_fit_divergence_has_no_bootstrap_prefix(self, cohort_dir, monkeypatch):
        force_workers(monkeypatch, 2)
        fit_model = stability.fit_model

        def diverging_fit(*args, **kwargs):
            # only the full-data fit is called without init_seed
            if "init_seed" in kwargs:
                return fit_model(*args, **kwargs)
            raise NumericalDivergenceError("non-finite loss nan at iteration 7", 7)

        monkeypatch.setattr(stability, "fit_model", diverging_fit)
        with pytest.raises(NumericalDivergenceError) as exc:
            run_experiment(base_config(cohort_dir, n_bootstraps=3))
        assert str(exc.value) == "non-finite loss nan at iteration 7"
        assert exc.value.iteration == 7
        assert multiprocessing.active_children() == []


def ag_config(cohort_dir, **overrides):
    return base_config(
        cohort_dir, model="ag-lasso-autoencoder-graph",
        hyperparams=HyperParams(alpha=0.02, lambda_ae=5.0, lambda_l2=1e-3,
                                lambda_fg=0.05, hidden_units=3),
        graph_path=str(cohort_dir / "graph.tsv"),
        augment_path=str(cohort_dir / "augment.csv"), **overrides,
    )


def load_cohorts(cfg):
    """``experiment._load_cohorts(cfg)`` in a temporary directory, with the
    validation cohort read back from it as ``run_experiment`` reads it: the
    standardized train and validation cohorts, the augment rows, and the
    validation cells as parked."""
    with tempfile.TemporaryDirectory() as park:
        train_s, (names, y), augment_rows = experiment._load_cohorts(cfg, park)
        parked = np.load(os.path.join(park, experiment._PARKED_VALIDATION))
        validation_s = experiment._unpark_validation(park, names, y, train_s)
        return train_s, validation_s, augment_rows, parked


def load_both_ways(monkeypatch, run):
    """``run()`` with the cohorts loaded serially, then in the fork pool: each
    result, or the type and text of the error it raised."""
    def outcome():
        try:
            return run()
        except Exception as e:
            return type(e), str(e)

    serial = outcome()
    monkeypatch.setattr(experiment, "_POOLED_LOAD_BYTES", 0)
    return serial, outcome()


@needs_pool
class TestPooledLoad:
    """Cohort files of ``_POOLED_LOAD_BYTES`` or more in all load one per pool
    job, with the same arrays, report bytes, warnings and errors as serially."""

    @pytest.mark.parametrize("model", ["lasso-graph", "ag-lasso-autoencoder-graph"])
    def test_report_bytes(self, cohort_dir, tmp_path, monkeypatch, model):
        force_workers(monkeypatch, 3)
        cfg = (ag_config(cohort_dir) if model in AUGMENTED_MODELS else
               base_config(cohort_dir, model=model, graph_path=str(cohort_dir / "graph.tsv")))

        def report_bytes():
            emit_report(run_experiment(cfg), tmp_path)
            return (tmp_path / "report.json").read_bytes()

        serial, pooled = load_both_ways(monkeypatch, report_bytes)
        assert isinstance(serial, bytes) and pooled == serial
        assert multiprocessing.active_children() == []

    def test_loaded_cohorts_identical(self, cohort_dir, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        pids, records = tmp_path / "pids", tmp_path / "records"
        records.mkdir()
        load, select = experiment.load_dataset, experiment._select_columns
        loading = []  # the file this process loads last: the next selection's cohort

        def recording_load(path, *args, **kwargs):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            loading[:] = [Path(path).stem]
            return load(path, *args, **kwargs)

        def recording_select(d, names):
            # "xb": one record per process and file, so a second selection fails
            with open(records / f"{os.getpid()}-{loading[0]}", "xb") as fh:
                pickle.dump(d, fh)
            return select(d, names)

        monkeypatch.setattr(experiment, "load_dataset", recording_load)
        monkeypatch.setattr(experiment, "_select_columns", recording_select)
        cfg = ag_config(cohort_dir)
        serial, pooled = load_both_ways(monkeypatch, lambda: load_cohorts(cfg))
        loader_pids = list(map(int, pids.read_text(encoding="utf-8").split()))
        assert loader_pids[:3] == [os.getpid()] * 3  # small files: the serial loads
        assert len(loader_pids) == 6 and os.getpid() not in loader_pids[3:]
        # the cohorts as loaded, each selected where it was loaded: serially in
        # this process, pooled in the workers that loaded them
        loaded = {"serial": {}, "pooled": {}}
        for record in records.iterdir():
            pid, stem = record.name.split("-")
            side = "serial" if int(pid) == os.getpid() else "pooled"
            assert side == "serial" or int(pid) in loader_pids[3:]
            loaded[side][stem] = pickle.loads(record.read_bytes())
        names = ["train", "validation", "augment"]
        assert sorted(loaded["serial"]) == sorted(loaded["pooled"]) == sorted(names)
        # the cohorts as loaded
        for a, b in ((loaded["serial"][n], loaded["pooled"][n]) for n in names):
            assert a.feature_names == b.feature_names
            assert a.X.tobytes() == b.X.tobytes()
            assert a.X.flags.f_contiguous == b.X.flags.f_contiguous
            assert a.raw_std is None and b.raw_std is None
            assert (a.y is None and b.y is None) or a.y.tobytes() == b.y.tobytes()
        # as returned: aligned and standardized, with the bits, statistics and
        # memory order of the public functions applied to the cohorts as loaded
        train, validation, augment = align_common_features(*(loaded["serial"][n] for n in names))
        train_s = standardize(train)
        want = (train_s, standardize_like(validation, train_s), standardize(augment).X)
        for got in (serial, pooled):
            for a, b in zip(got[:2], want[:2]):
                assert a.feature_names == b.feature_names
                assert a.X.tobytes() == b.X.tobytes()
                assert a.X.flags.f_contiguous == b.X.flags.f_contiguous
                assert a.raw_mean.tobytes() == b.raw_mean.tobytes()
                assert a.raw_std.tobytes() == b.raw_std.tobytes()
                assert a.y.tobytes() == b.y.tobytes()
            assert got[2].tobytes() == want[2].tobytes()
            assert got[2].flags.f_contiguous == want[2].flags.f_contiguous
            # the validation cells as parked: aligned, not yet scaled
            assert got[3].tobytes() == validation.X.tobytes()
            assert got[3].flags.f_contiguous == validation.X.flags.f_contiguous
        assert multiprocessing.active_children() == []

    def test_label_warning_reaches_caller(self, cohort_dir, tmp_path, monkeypatch):
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_POOLED_LOAD_BYTES", 0)
        path = tmp_path / "train0.csv"
        text = (cohort_dir / "train.csv").read_bytes()
        path.write_bytes(text.replace(b",-1\r\n", b",0\r\n"))
        zeros = text.count(b",-1\r\n")
        with pytest.warns(UserWarning, match=re.escape(f"{path}: {zeros} label value(s) '0'")):
            run_experiment(base_config(cohort_dir, train_path=str(path)))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("broken", ["missing", "ragged", "both", "ragged-then-missing",
                                        "disjoint"])
    def test_errors_match_serial_load(self, cohort_dir, tmp_path, monkeypatch, broken):
        force_workers(monkeypatch, 2)
        text = (cohort_dir / "validation.csv").read_text(encoding="utf-8")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(text + "1.0,2.0\r\n", encoding="utf-8")
        missing = tmp_path / "no.csv"
        paths = {"validation_path": str(ragged if broken == "ragged" else missing)}
        if broken == "both":  # the lowest failing file wins
            paths = {"train_path": str(missing), "validation_path": str(ragged)}
        if broken == "ragged-then-missing":  # header faults come before row faults
            paths = {"train_path": str(ragged), "validation_path": str(missing)}
        if broken == "disjoint":
            header, rest = text.split("\n", 1)
            renamed = ",".join(n if n == "label" else f"x_{n}" for n in header.split(","))
            disjoint = tmp_path / "disjoint.csv"
            disjoint.write_text(f"{renamed}\n{rest}", encoding="utf-8")
            paths = {"validation_path": str(disjoint)}
        cfg = base_config(cohort_dir, **paths)
        serial, pooled = load_both_ways(monkeypatch, lambda: load_cohorts(cfg))
        assert pooled == serial
        if broken == "ragged":
            assert serial == (ValueError, f"{ragged}: row 52 has 2 fields, expected 13")
        elif broken == "disjoint":
            assert serial == (ValueError, "datasets share no feature names")
        else:
            assert serial == (FileNotFoundError, f"no such file: {missing}")
        assert multiprocessing.active_children() == []


class TestParkedValidation:
    """The validation cells wait on disk while the models fit, and no
    temporary file outlives a run, however it ends."""

    # 500 x 400 cohorts: the 400 x 400 Laplacian is 0.8 of a cohort, so the
    # training cells, the augment rows and the Laplacian each show alone
    WIDE = dataclasses.replace(SPEC, n_samples=500, n_groups=100, group_size=4)

    @pytest.fixture(scope="class")
    def wide_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("wide")
        write_bundle(self.WIDE, out)
        return out

    @pytest.mark.parametrize("workers", [2, 1])
    def test_fit_inputs_freed_before_validation_is_read_back(self, wide_dir, monkeypatch,
                                                             workers):
        spec = self.WIDE
        cohort_bytes = spec.n_samples * spec.n_groups * spec.group_size * 8
        force_workers(monkeypatch, workers)
        monkeypatch.setattr(experiment, "_POOLED_LOAD_BYTES", 0)
        unpark, held = experiment._unpark_validation, []
        imports = tracemalloc.Filter(False, "<frozen importlib._bootstrap>", all_frames=True)

        def measured_unpark(*args):
            # what the run holds, not the modules its first pool or np.unique import
            snapshot = tracemalloc.take_snapshot().filter_traces([imports])
            held.append(sum(trace.size for trace in snapshot.traces))
            return unpark(*args)

        monkeypatch.setattr(experiment, "_unpark_validation", measured_unpark)
        tracemalloc.start(10)
        try:
            report = run_experiment(ag_config(
                wide_dir, n_bootstraps=2,
                optimizer=OptimizerConfig(max_iters=10, learning_rate=0.05, seed=5)))
        finally:
            tracemalloc.stop()
        assert report.n_train == spec.n_samples and len(held) == 1
        assert held[0] <= 0.25 * cohort_bytes  # 0.07 serial, 0.10 pooled
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 1])
    @pytest.mark.parametrize("outcome", ["report", "divergence", "one-class"])
    def test_no_file_left_behind(self, cohort_dir, tmp_path, monkeypatch, workers, outcome):
        force_workers(monkeypatch, workers)
        monkeypatch.setattr(experiment, "_POOLED_LOAD_BYTES", 0)
        temp = tmp_path / "tmp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        load = experiment._load_cohorts

        def parking_load(cfg, park):
            out = load(cfg, park)
            assert Path(park).parent == temp
            assert (Path(park) / experiment._PARKED_VALIDATION).is_file()
            return out

        monkeypatch.setattr(experiment, "_load_cohorts", parking_load)
        if outcome == "report":
            run_experiment(base_config(cohort_dir))
        elif outcome == "divergence":
            cfg = base_config(cohort_dir,
                              optimizer=OptimizerConfig(max_iters=10, learning_rate=1e300, seed=0))
            with np.errstate(all="ignore"), pytest.raises(NumericalDivergenceError,
                                                          match="^bootstrap 0: "):
                run_experiment(cfg)
        else:
            path = one_class_cohort(tmp_path)
            with pytest.raises(ValueError, match="validation cohort must hold both classes"):
                run_experiment(base_config(cohort_dir, validation_path=str(path)))
        assert list(temp.iterdir()) == []
        assert multiprocessing.active_children() == []
