"""End-to-end experiment orchestration: load, fit, evaluate, report.

An experiment loads train/validation cohorts (plus an optional unlabeled
augment cohort and feature graph), standardizes on the training scale,
runs a bootstrap ensemble of one model variant, and reduces it to a
stability report: consistency-index curve, per-feature SNR, sparsity, and
validation AUC/F-score from a single full-training fit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    FeatureGraph,
    _require_int,
    _require_real,
    align_common_features,
    build_laplacian,
    load_dataset,
    load_feature_graph,
    standardize,
    standardize_like,
)
from .metrics import PredictionSet, auc, best_f_threshold, selected_count
from .models import ModelSpec, check_model_inputs, fit_model, validate_hyperparams
from .objectives import HyperParams
from .optimizer import OptimizerConfig
from .stability import (
    _bootstraps_and_final_fit,
    feature_importance,
    mean_consistency,
    snr,
    snr_above,
    top_k_subsets,
)

__all__ = [
    "ExperimentConfig",
    "StabilityReport",
    "run_experiment",
    "emit_report",
    "compare_models",
    "SNR_THRESHOLD",
]

SNR_THRESHOLD = 1.96

# Settings objects nested in a config or report, built from their JSON objects.
_SETTINGS = {"hyperparams": HyperParams, "optimizer": OptimizerConfig}


def _with_settings(payload: dict) -> dict:
    return {**payload, **{k: cls(**payload[k]) for k, cls in _SETTINGS.items() if k in payload}}


@dataclass(frozen=True)
class ExperimentConfig:
    """One stability experiment: cohort paths, model choice, and settings.

    ``selected_tol`` is the magnitude below which a fitted weight counts as
    unselected in the report; first-order fits leave small nonzero debris,
    so the reporting threshold is coarser than machine precision.
    """

    train_path: str
    validation_path: str
    model: str
    augment_path: str | None = None
    graph_path: str | None = None
    hyperparams: HyperParams = field(default_factory=HyperParams)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    n_bootstraps: int = 50
    k_list: tuple[int, ...] = (20,)
    top_for_snr: int = 20
    selected_tol: float = 1e-3
    label_column: str = "label"
    output_dir: str | None = None

    def __post_init__(self):
        validate_hyperparams(self.model, self.hyperparams)
        check_model_inputs(
            self.model, self.graph_path is not None, self.augment_path is not None,
            fields=("graph_path", "augment_path"),
        )
        _require_int("n_bootstraps", self.n_bootstraps, 2)
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        for k in self.k_list:
            _require_int("k_list entries", k, 1)
        _require_int("top_for_snr", self.top_for_snr, 1)
        _require_real("selected_tol", self.selected_tol, 0.0, strict=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        data = _with_settings(payload)
        if "k_list" in data:
            data["k_list"] = tuple(data["k_list"])
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)  # json writes k_list's tuple as a list

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# Report fields held as tuples of rows, written as lists of keyed objects.
_REPORT_ROWS = {"ci_curve": ("k", "mean_ci"), "snr_top": ("rank", "feature", "snr")}


@dataclass(frozen=True)
class StabilityReport:
    """Everything an experiment measured, in JSON-serializable form."""

    model: str
    n_train: int
    n_validation: int
    n_features: int
    n_bootstraps: int
    base_seed: int
    bootstrap_seeds: tuple[int, ...]
    ci_curve: tuple[tuple[int, float], ...]
    snr_top: tuple[tuple[int, str, float], ...]
    snr_threshold: float
    snr_above_count: int
    selected_count: int
    selected_fraction: float
    selected_tol: float
    validation_auc: float
    f_threshold: float
    f_score: float
    feature_names: tuple[str, ...]
    mean_weights: tuple[float, ...]
    importance: tuple[float, ...]
    dropped_graph_edges: int
    hyperparams: HyperParams
    optimizer: OptimizerConfig

    def to_dict(self) -> dict:
        out = asdict(self)  # json writes tuples as lists
        for name, keys in _REPORT_ROWS.items():
            out[name] = [dict(zip(keys, row)) for row in out[name]]
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "StabilityReport":
        kwargs = _with_settings({f.name: payload[f.name] for f in fields(cls)})
        for name, keys in _REPORT_ROWS.items():
            kwargs[name] = [tuple(row[key] for key in keys) for row in kwargs[name]]
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in kwargs.items()})

    @classmethod
    def from_json(cls, path) -> "StabilityReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def mean_ci_at(self, k: int) -> float:
        for kk, v in self.ci_curve:
            if kk == k:
                return v
        raise KeyError(f"no consistency value recorded for k={k}")


def _load_cohorts(cfg: ExperimentConfig):
    train = load_dataset(cfg.train_path, label_column=cfg.label_column)
    validation = load_dataset(cfg.validation_path, label_column=cfg.label_column)
    if cfg.augment_path is None:
        return (*align_common_features(train, validation), None)
    return align_common_features(train, validation, load_dataset(cfg.augment_path))


def _build_laplacian_for(cfg: ExperimentConfig, train: Dataset):
    if cfg.graph_path is None:
        return None, 0
    graph = load_feature_graph(cfg.graph_path)
    known = set(train.feature_names)
    kept = tuple(e for e in graph.edges if e[0] in known and e[1] in known)
    dropped = len(graph.edges) - len(kept)
    lap = build_laplacian(FeatureGraph(edges=kept), train.feature_names)
    return lap, dropped


def run_experiment(cfg: ExperimentConfig) -> StabilityReport:
    """Run one configured experiment and return its stability report.

    Deterministic: the optimizer seed doubles as the bootstrap base seed,
    so identical configs produce identical reports.  The final full-data fit
    runs as the bootstrap pool's last job when the bootstraps' last round
    leaves a worker idle, else after the pool in this process.
    """
    train, validation, augment = _load_cohorts(cfg)
    if not train.labeled or not validation.labeled:
        raise ValueError("train and validation cohorts must be labeled")
    if len(np.unique(validation.y)) < 2:
        raise ValueError(f"{cfg.validation_path}: validation cohort must hold both classes")
    n = train.n_features
    for k in cfg.k_list:
        if k >= n:
            raise ValueError(f"subset size k={k} must be < {n} features")
    if cfg.top_for_snr > n:
        raise ValueError(f"top_for_snr={cfg.top_for_snr} exceeds {n} features")

    lap, dropped_edges = _build_laplacian_for(cfg, train)

    train_s = standardize(train)
    validation_s = standardize_like(validation, train)
    augment_rows = standardize(augment).X if augment is not None else None

    spec = ModelSpec(name=cfg.model, laplacian=lap, augment=augment_rows)
    base_seed = cfg.optimizer.seed
    ensemble, final = _bootstraps_and_final_fit(
        lambda: fit_model(spec, train_s, cfg.hyperparams, cfg.optimizer),
        train_s, spec, cfg.hyperparams, cfg.optimizer, cfg.n_bootstraps, base_seed,
    )

    ranking = feature_importance(ensemble, train_s.raw_std)
    ci_curve = tuple(
        (k, mean_consistency(top_k_subsets(ensemble, train_s.raw_std, k), n))
        for k in cfg.k_list
    )
    snr_values = np.abs(snr(ensemble))
    snr_rows = tuple(
        (rank + 1, train_s.feature_names[i], float(snr_values[i]))
        for rank, i in enumerate(ranking.order[: cfg.top_for_snr])
    )
    above = snr_above(ensemble, ranking, cfg.top_for_snr, SNR_THRESHOLD)

    count, fraction = selected_count(final.effective_theta, cfg.selected_tol)
    scores = validation_s.X @ final.effective_theta + final.bias
    predictions = PredictionSet(scores=scores, labels=validation_s.y)
    val_auc = auc(predictions)
    f_thr, f_val = best_f_threshold(predictions)

    return StabilityReport(
        model=cfg.model,
        n_train=train.n_samples,
        n_validation=validation.n_samples,
        n_features=n,
        n_bootstraps=cfg.n_bootstraps,
        base_seed=base_seed,
        bootstrap_seeds=ensemble.seeds,
        ci_curve=ci_curve,
        snr_top=snr_rows,
        snr_threshold=SNR_THRESHOLD,
        snr_above_count=above,
        selected_count=count,
        selected_fraction=fraction,
        selected_tol=cfg.selected_tol,
        validation_auc=val_auc,
        f_threshold=f_thr,
        f_score=f_val,
        feature_names=train_s.feature_names,
        mean_weights=tuple(float(v) for v in ensemble.weights.mean(axis=0)),
        importance=tuple(float(v) for v in ranking.importance),
        dropped_graph_edges=dropped_edges,
        hyperparams=cfg.hyperparams,
        optimizer=cfg.optimizer,
    )


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: StabilityReport, out_dir) -> list[Path]:
    """Write report.json plus plot-ready CSVs; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    json_path = out / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    return [
        json_path,
        _write_csv(out / "ci_curve.csv", ["k", "mean_ci"],
                   ([k, repr(float(v))] for k, v in report.ci_curve)),
        _write_csv(out / "snr_top.csv", ["rank", "feature_name", "snr"],
                   ([rank, name, repr(float(v))] for rank, name, v in report.snr_top)),
        _write_csv(out / "weights_mean.csv", ["feature_name", "mean_weight", "importance"],
                   ([name, repr(float(w)), repr(float(imp))] for name, w, imp
                    in zip(report.feature_names, report.mean_weights, report.importance))),
    ]


_SHARED_FIELDS = ("train_path", "validation_path", "label_column", "n_bootstraps", "k_list",
                  "top_for_snr", "selected_tol")


def compare_models(
    cfgs: list[ExperimentConfig], output_dir=None
) -> list[StabilityReport]:
    """Run several experiment configs that share data, seeds, and sizes.

    Returns one report per config and, when ``output_dir`` is given, writes
    comparison.csv with one row per model.
    """
    if not cfgs:
        raise ValueError("no configs given")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise ValueError(
                    f"configs disagree on shared field {name!r}: "
                    f"{getattr(first, name)!r} vs {getattr(cfg, name)!r}"
                )
        if cfg.optimizer.seed != first.optimizer.seed:
            raise ValueError("configs disagree on the shared seed")

    reports = [run_experiment(cfg) for cfg in cfgs]

    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = ["model"]
        header += [f"ci_k{k}" for k in first.k_list]
        header += ["auc", "selected_fraction", "snr_above_count"]
        _write_csv(out / "comparison.csv", header, (
            [r.model]
            + [repr(float(r.mean_ci_at(k))) for k in first.k_list]
            + [repr(float(r.validation_auc)), repr(float(r.selected_fraction)), r.snr_above_count]
            for r in reports
        ))

    return reports
