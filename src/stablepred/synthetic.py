"""Correlated synthetic cohorts with planted feature groups and known signal."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import expit

from .data import Dataset, FeatureGraph, _require_int, _require_real, make_dataset

__all__ = ["SyntheticSpec", "DEFAULT_SPEC", "generate", "make_group_graph"]


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
        _require_int("n_informative_groups", self.n_informative_groups, 0)
        _require_int("seed", self.seed, 0)
        if self.n_informative_groups > self.n_groups:
            raise ValueError("n_informative_groups must lie in [0, n_groups]")
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
    X = np.repeat(z, g, axis=1) + spec.within_group_noise * eps

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
