"""Correlated synthetic cohorts with planted feature groups and known signal."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import (
    Dataset,
    FeatureGraph,
    _require_int,
    _require_real,
    make_dataset,
    write_dataset_csv,
    write_feature_graph,
)
from .experiment import ExperimentConfig
from .models import AUGMENTED_MODELS, GRAPH_MODELS
from .objectives import HyperParams
from .optimizer import OptimizerConfig

__all__ = ["SyntheticSpec", "DEFAULT_SPEC", "generate", "make_group_graph", "write_bundle",
           "acceptance_configs"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings: G groups of g features sharing a latent factor.

    Feature (group, j) = z_group + within_group_noise * eps, so within-group
    correlation is 1/(1 + noise^2).  The first ``n_informative_groups``
    latents drive the labels through a logistic link; labels then flip with
    probability ``label_noise``.
    """

    n_samples: int = 200
    n_groups: int = 10
    group_size: int = 10
    within_group_noise: float = 0.3
    n_informative_groups: int = 3
    true_weight_scale: float = 1.0
    label_noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_groups", "group_size"):
            _require_int(name, getattr(self, name), 1)
        _require_int("n_informative_groups", self.n_informative_groups, 0, self.n_groups)
        _require_int("seed", self.seed, 0)
        _require_real("label_noise", self.label_noise, 0.0)
        if self.label_noise >= 0.5:
            raise ValueError("label_noise must lie in [0, 0.5)")
        _require_real("within_group_noise", self.within_group_noise, 0.0)
        _require_real("true_weight_scale", self.true_weight_scale)

    @property
    def n_features(self) -> int:
        return self.n_groups * self.group_size


DEFAULT_SPEC = SyntheticSpec()


def _feature_names(spec: SyntheticSpec) -> list[str]:
    gw = len(str(spec.n_groups - 1))
    jw = len(str(spec.group_size - 1))
    return [
        f"g{gi:0{gw}d}f{j:0{jw}d}"
        for gi in range(spec.n_groups)
        for j in range(spec.group_size)
    ]


def generate(spec: SyntheticSpec, labeled: bool = True) -> Dataset:
    """Draw a cohort from ``spec``; deterministic per seed.

    With ``labeled=False`` the same feature matrix is returned without
    labels (an external cohort for augmentation runs).
    """
    rng = np.random.default_rng(spec.seed)
    m, G, g = spec.n_samples, spec.n_groups, spec.group_size
    z = rng.standard_normal((m, G))
    eps = rng.standard_normal((m, G * g))
    eps *= spec.within_group_noise  # in place, and freed once added into X
    X = np.repeat(z, g, axis=1)
    X += eps
    del eps

    y = None
    if labeled:
        logit = spec.true_weight_scale * z[:, : spec.n_informative_groups].sum(axis=1)
        y = np.where(rng.random(m) < expit(logit), 1.0, -1.0)
        flips = rng.random(m) < spec.label_noise
        y[flips] = -y[flips]

    return make_dataset(X, y=y, feature_names=_feature_names(spec))


def make_group_graph(spec: SyntheticSpec) -> FeatureGraph:
    """Unit-weight clique over each planted group; no cross-group edges."""
    names = _feature_names(spec)
    edges = []
    for gi in range(spec.n_groups):
        members = names[gi * spec.group_size : (gi + 1) * spec.group_size]
        for a, b in combinations(members, 2):
            edges.append((a, b, 1.0))
    return FeatureGraph(edges=tuple(edges))


def write_bundle(spec: SyntheticSpec, out) -> None:
    """Write the cohort bundle an experiment reads into the directory ``out``.

    ``train.csv`` is drawn at ``spec.seed``, ``validation.csv`` at seed + 1 and
    the unlabeled ``augment.csv`` at seed + 2, each written before the next is
    drawn; ``graph.tsv`` holds the group cliques.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, offset, labeled in (("train.csv", 0, True), ("validation.csv", 1, True),
                                  ("augment.csv", 2, False)):
        write_dataset_csv(generate(replace(spec, seed=spec.seed + offset), labeled), out / name)
    write_feature_graph(make_group_graph(spec), out / "graph.tsv")


def acceptance_configs(bundle_dir) -> dict[str, ExperimentConfig]:
    """The paper's experiment on the bundle in ``bundle_dir``: five models, each
    a 50-bootstrap ensemble scored at k = 20, by model name in criterion 6's
    order.  Vary one setting with ``dataclasses.replace``."""
    linear = HyperParams(alpha=0.01)
    autoencoder = HyperParams(alpha=0.05, lambda_ae=100.0, lambda_l2=1e-3, hidden_units=10)
    autoencoder_graph = replace(autoencoder, lambda_fg=0.1)
    hyperparams = {"lasso": linear, "lasso-graph": replace(linear, lambda_fg=0.015),
                   "lasso-autoencoder": autoencoder,
                   "lasso-autoencoder-graph": autoencoder_graph,
                   "ag-lasso-autoencoder-graph": autoencoder_graph}
    d = Path(bundle_dir)
    optimizer = OptimizerConfig(max_iters=2500, learning_rate=0.02, rel_tol=1e-7, seed=11)
    return {
        model: ExperimentConfig(
            train_path=str(d / "train.csv"), validation_path=str(d / "validation.csv"),
            model=model, hyperparams=h, optimizer=optimizer,
            graph_path=str(d / "graph.tsv") if model in GRAPH_MODELS else None,
            augment_path=str(d / "augment.csv") if model in AUGMENTED_MODELS else None,
            n_bootstraps=50, k_list=(20,), top_for_snr=20,
        )
        for model, h in hyperparams.items()
    }
