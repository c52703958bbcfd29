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
import os
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ._pool import imap_in_order
from .data import (
    Dataset,
    FeatureGraph,
    _common_names,
    _read_header,
    _rescale,
    _require_int,
    _require_real,
    _select_columns,
    build_laplacian,
    load_dataset,
    load_feature_graph,
)
from .metrics import PredictionSet, auc, best_f_threshold, selected_count
from .models import ModelSpec, check_model_inputs, validate_hyperparams
from .objectives import HyperParams
from .optimizer import OptimizerConfig
from .stability import (
    SNR_THRESHOLD,
    _bootstraps_and_final_fit,
    feature_importance,
    mean_consistency,
    snr,
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

# Settings objects nested in a config, built from their JSON objects.
_SETTINGS = {"hyperparams": HyperParams, "optimizer": OptimizerConfig}


def _from_payload(cls, payload, what: str):
    """The dataclass ``cls`` read from its JSON object, whose keys must be its
    fields and cover its required ones; a bad key is named with ``what``."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {payload!r}")
    declared = {f.name: f for f in fields(cls)}
    if (unknown := next((key for key in payload if key not in declared), None)) is not None:
        raise ValueError(f"unknown {what} field {unknown!r}")
    required = (f.name for f in declared.values() if f.default is f.default_factory is MISSING)
    if (missing := next((name for name in required if name not in payload), None)) is not None:
        raise ValueError(f"{what} field {missing!r} is missing")
    kwargs = dict(payload)
    for name, value in payload.items():
        if name in _SETTINGS:
            kwargs[name] = _from_payload(_SETTINGS[name], value, name)
        elif isinstance(value, list) and str(declared[name].type).startswith("tuple"):
            kwargs[name] = tuple(value)
    return cls(**kwargs)


def _read_json(cls, path, what: str):
    with open(path, encoding="utf-8") as fh:
        return _from_payload(cls, json.load(fh), what)


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
        for f in fields(self):
            if f.type in ("str", "str | None"):
                value, nullable = getattr(self, f.name), f.type != "str"
                if not isinstance(value, str) and not (nullable and value is None):
                    raise ValueError(f"{f.name} must be a string{' or null' * nullable}, "
                                     f"got {value!r}")
        validate_hyperparams(self.model, self.hyperparams)
        check_model_inputs(
            self.model, self.graph_path is not None, self.augment_path is not None,
            fields=("graph_path", "augment_path"),
        )
        _require_int("n_bootstraps", self.n_bootstraps, 2)
        if not isinstance(self.k_list, tuple) or not self.k_list:
            raise ValueError(f"k_list must be a non-empty tuple (a list in JSON), "
                             f"got {self.k_list!r}")
        for k in self.k_list:
            _require_int("k_list entries", k, 1)
        _require_int("top_for_snr", self.top_for_snr, 1)
        _require_real("selected_tol", self.selected_tol, 0.0, strict=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        return _from_payload(cls, payload, "config")

    def to_dict(self) -> dict:
        return asdict(self)  # json writes k_list's tuple as a list

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return _read_json(cls, path, "config")


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

    def mean_ci_at(self, k: int) -> float:
        for kk, v in self.ci_curve:
            if kk == k:
                return v
        raise KeyError(f"no consistency value recorded for k={k}")


# Total cohort CSV bytes from which the cohorts load in the fork pool, one file
# per job.  Starting the pool and pickling the arrays back costs about 50 ms.
# Two cohorts loaded on 2 vCPUs, serial against pooled (medians of 5-20 calls):
# 7.9 MB in all 116-165 against 197 ms, 11.8 MB 288 against 254 ms, 13.7 MB
# 350 against 287 ms, and 78 MB (2000 x 1000 each) 1.53 against 1.06 s.
_POOLED_LOAD_BYTES = 12_000_000
# The file, in a directory ``run_experiment`` owns, that holds the validation
# cells while the models fit.
_PARKED_VALIDATION = "validation.npy"


def _load_cohorts(cfg: ExperimentConfig, park: str):
    """The standardized train cohort, validation's feature names and labels,
    and the standardized augment rows (or None), on the shared columns.

    Every file's header row is read first, in file order, so a missing or
    empty file, then cohorts that share no feature name, are refused before
    any cohort loads.  Each load job then keeps the shared columns, sorted,
    as ``align_common_features`` would, so no unaligned cohort reaches this
    process.  The train and augment jobs standardize their cohort on its own
    statistics in the buffer they loaded it into.  The validation job parks
    its cells in directory ``park`` instead, which ``_unpark_validation``
    reads back once the fits are done: only scoring reads them.  Large files
    load in parallel forked workers (``np.loadtxt`` holds the GIL, so threads
    would not help), with the serial loads' warnings and errors: a fault in a
    file's rows is the lowest failing job's.
    """
    jobs = [(cfg.train_path, cfg.label_column), (cfg.validation_path, cfg.label_column)]
    if cfg.augment_path is not None:
        jobs.append((cfg.augment_path, None))
    common = _common_names([_read_header(path) for path, _ in jobs], cfg.label_column)

    def load(i: int):
        path, label = jobs[i]
        d = _select_columns(load_dataset(path, label_column=label), common)
        if i != 1:
            return _rescale(d, None, out=d.X)
        np.save(os.path.join(park, _PARKED_VALIDATION), d.X)  # .npy keeps the memory order
        return d.feature_names, d.y

    pooled = sum(os.path.getsize(path) for path, _ in jobs) >= _POOLED_LOAD_BYTES
    train_s, validation, *augment = imap_in_order(load, len(jobs), pooled=pooled)
    return train_s, validation, augment[0].X if augment else None


def _unpark_validation(park: str, names, y, train_s: Dataset) -> Dataset:
    """The validation cohort that ``_load_cohorts`` parked in ``park``, scaled
    with standardized ``train_s``'s statistics in the array it is read into."""
    X = np.load(os.path.join(park, _PARKED_VALIDATION))
    return _rescale(Dataset(feature_names=names, X=X, y=y), train_s, out=X)


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
    so identical configs produce identical reports.  The cohorts arrive
    standardized from their load jobs and the Laplacian is built after them.
    Validation's cells wait on disk, in a temporary directory, while the
    models fit: the fits hold only what they use.  Once they are done, the
    training cells, the Laplacian and the augment rows are freed before the
    validation cells are read back to score.  The final full-data fit is job
    B of the bootstrap jobs: it runs in the pool when the bootstraps' last
    round leaves a worker idle, else after the pool.
    """
    with tempfile.TemporaryDirectory() as park:
        train_s, (validation_names, validation_y), augment_rows = _load_cohorts(cfg, park)
        for path, y, what in ((cfg.train_path, train_s.y, "training"),
                              (cfg.validation_path, validation_y, "validation")):
            if not ((y > 0).any() and (y < 0).any()):  # the rule of metrics' class check
                raise ValueError(f"{path}: {what} cohort must hold both classes")
        n = train_s.n_features
        for k in cfg.k_list:
            _require_int("k_list entries", k, 1, n - 1)
        _require_int("top_for_snr", cfg.top_for_snr, 1, n)

        lap, dropped_edges = _build_laplacian_for(cfg, train_s)

        spec = ModelSpec(name=cfg.model, laplacian=lap, augment=augment_rows)
        base_seed = cfg.optimizer.seed
        ensemble, final = _bootstraps_and_final_fit(train_s, spec, cfg.hyperparams, cfg.optimizer,
                                                    cfg.n_bootstraps, base_seed)
        # a zero-row train keeps its names and statistics; a view of X would keep X
        n_train, train_s = train_s.n_samples, replace(train_s, X=np.empty((0, n)), y=None)
        del lap, spec, augment_rows
        validation_s = _unpark_validation(park, validation_names, validation_y, train_s)

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
    above = sum(v >= SNR_THRESHOLD for _, _, v in snr_rows)  # as snr_above counts them

    count, fraction = selected_count(final.effective_theta, cfg.selected_tol)
    scores = validation_s.X @ final.effective_theta + final.bias
    predictions = PredictionSet(scores=scores, labels=validation_s.y)
    val_auc = auc(predictions)
    f_thr, f_val = best_f_threshold(predictions)

    return StabilityReport(
        model=cfg.model,
        n_train=n_train,
        n_validation=validation_s.n_samples,
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


def _require_directory(path, what: str) -> None:
    """Refuse ``path``, named as ``what``, before any cohort loads if the
    first of it and its parents that exists is not a directory."""
    existing = next((p for p in (Path(path), *Path(path).parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ValueError(f"{what} {path}: {existing} exists and is not a directory")


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
    if output_dir is not None:
        _require_directory(output_dir, "output_dir")

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
