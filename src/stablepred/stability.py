"""Bootstrap stability protocol: resampled fits, rankings, consistency index, SNR."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _pool
from .data import Dataset, _require_int, _require_labeled, _require_real
from .models import ModelSpec, fit_model
from .objectives import HyperParams
from .optimizer import NumericalDivergenceError, OptimizerConfig

__all__ = [
    "BootstrapEnsemble",
    "FeatureRanking",
    "SubsetFamily",
    "run_bootstraps",
    "feature_importance",
    "top_k_subsets",
    "consistency_index",
    "mean_consistency",
    "snr",
    "snr_above",
]

SNR_THRESHOLD = 1.96


@dataclass(frozen=True, eq=False)
class BootstrapEnsemble:
    """Fitted effective weight vectors, one row per bootstrap resample."""

    weights: np.ndarray
    seeds: tuple[int, ...]
    model_tag: str

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ValueError("weights must be a B x N matrix")
        if len(self.seeds) != self.weights.shape[0]:
            raise ValueError("one seed per bootstrap row required")
        if not np.isfinite(self.weights).all():
            b, j = np.argwhere(~np.isfinite(self.weights))[0]
            raise ValueError(
                f"non-finite weight {self.weights[b, j]} at bootstrap {b}, feature {j}"
            )

    @property
    def n_bootstraps(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True, eq=False)
class FeatureRanking:
    """Importance scores plus the permutation sorting them non-increasingly.

    Ties are broken toward the smaller feature index.
    """

    importance: np.ndarray
    order: np.ndarray


class SubsetFamily:
    """Per-bootstrap top-k feature index sets, built from a B x k integer array.

    ``members`` holds set b as row b of a read-only B x k int64 array, in
    ascending order; ``subsets`` holds them as frozensets, built on first read.
    Only an integer ndarray is taken, since ``np.asarray([[0, 1], [True, 3]])``
    silently reads ``True`` as 1.
    """

    def __init__(self, members: np.ndarray):
        if not isinstance(members, np.ndarray) or members.dtype.kind not in "iu":
            got = members.dtype if isinstance(members, np.ndarray) else type(members).__name__
            raise ValueError(f"members must be an integer array, got {got}")
        if members.ndim != 2:
            raise ValueError(f"members must be a B x k array, got {members.ndim} dimensions")
        if members.dtype == np.uint64 and (members > np.iinfo(np.int64).max).any():
            raise ValueError(f"members hold {members.max()}, outside the int64 range")
        members = np.sort(members.astype(np.int64, copy=False), axis=1)
        repeats = np.flatnonzero((members[:, 1:] == members[:, :-1]).any(axis=1))
        if len(repeats):
            raise ValueError(f"subset {repeats[0]} repeats a member")
        members.flags.writeable = False
        self.members = members

    @cached_property
    def subsets(self) -> tuple[frozenset, ...]:
        return tuple(map(frozenset, self.members.tolist()))


def run_bootstraps(
    d: Dataset,
    model_spec: ModelSpec,
    h: HyperParams,
    cfg: OptimizerConfig,
    n_bootstraps: int,
    base_seed: int,
) -> BootstrapEnsemble:
    """Fit the model on ``n_bootstraps`` with-replacement resamples of ``d``.

    Bootstrap b resamples the M rows with seed ``base_seed + b`` and uses the
    same seed for parameter initialization, so any single bootstrap can be
    reproduced in isolation.  The fits run in parallel worker processes where
    the platform allows, with the same results and warnings.  Aborts if any
    fit diverges, reporting the lowest diverging bootstrap.
    """
    return _bootstraps_and_final_fit(d, model_spec, h, cfg, n_bootstraps, base_seed,
                                     final=False)[0]


def _bootstraps_and_final_fit(d, model_spec, h, cfg, n_bootstraps, base_seed, final=True):
    """``(run_bootstraps(...), fit_model(model_spec, d, h, cfg))``, with None for
    the latter unless ``final``.

    The full-data fit is job ``n_bootstraps`` of the bootstrap jobs.  It runs
    as the pool's last job when that fills a slot idle in the bootstraps'
    last round, else here after the pool, with every BLAS thread.
    """
    _require_labeled(d)
    _require_int("n_bootstraps", n_bootstraps, 2)
    _require_int("base_seed", base_seed, 0)
    m = d.n_samples

    def fit(b: int):
        if b == n_bootstraps:
            return fit_model(model_spec, d, h, cfg)
        seed = base_seed + b
        idx = np.random.default_rng(seed).integers(0, m, size=m)
        resampled = replace(d, X=d.X[idx], y=d.y[idx])
        try:
            return fit_model(model_spec, resampled, h, cfg, init_seed=seed).effective_theta
        except NumericalDivergenceError as e:
            raise NumericalDivergenceError(f"bootstrap {b}: {e}", e.iteration) from e

    fold = final and n_bootstraps % _pool._worker_count(n_bootstraps + 1) != 0
    fits = list(_pool.imap_in_order(fit, n_bootstraps + fold))
    full = fits.pop() if fold else fit(n_bootstraps) if final else None
    ensemble = BootstrapEnsemble(
        weights=np.stack(fits),
        seeds=tuple(base_seed + b for b in range(n_bootstraps)),
        model_tag=model_spec.name,
    )
    return ensemble, full


def _check_raw_std(raw_std: np.ndarray, n_features: int) -> None:
    if raw_std.shape != (n_features,):
        raise ValueError("raw_std length must match the ensemble's feature count")
    bad = np.flatnonzero(~((raw_std >= 0) & (raw_std < np.inf)))  # NaN fails both
    if len(bad):
        raise ValueError(f"raw_std must be finite and >= 0, got {raw_std[bad[0]]} "
                         f"at feature {bad[0]}")


def feature_importance(e: BootstrapEnsemble, raw_std: np.ndarray) -> FeatureRanking:
    """Rank features by |mean weight across bootstraps| times raw feature std."""
    _check_raw_std(raw_std, e.n_features)
    importance = np.abs(e.weights.mean(axis=0)) * raw_std
    # stable sort of -importance: descending, ties by ascending index
    return FeatureRanking(importance=importance, order=np.argsort(-importance, kind="stable"))


def top_k_subsets(e: BootstrapEnsemble, raw_std: np.ndarray, k: int) -> SubsetFamily:
    """Top-k feature sets ranked within each bootstrap by |weight| * raw std.

    Ties at the k-th score go to the smaller feature indices, so each set is
    the first k of that row's stable descending order, found in O(B*d).  One
    B x d score buffer is held: partitioned in place for each row's k-th
    score, then rewritten with the scores to compare against it.
    """
    _require_int("k", k, 1, e.n_features - 1)
    _check_raw_std(raw_std, e.n_features)
    b, d = e.weights.shape
    scores = np.abs(e.weights)
    scores *= raw_std  # in place: a fresh B x d temporary costs more than the product
    scores.partition(d - k, axis=1)
    kth = scores[:, d - k:d - k + 1].copy()
    np.abs(e.weights, out=scores)
    scores *= raw_std
    take = scores >= kth
    over = np.flatnonzero(take.sum(axis=1) > k)
    if len(over):
        # rows whose ties at the k-th score overfill: keep the lowest-index ties
        sub, kth_sub = scores[over], kth[over]
        above, ties = sub > kth_sub, sub == kth_sub
        room = k - above.sum(axis=1, keepdims=True)
        take[over] = above | (ties & (np.cumsum(ties, axis=1) <= room))
    # flat indices, row by row in ascending order, less each row's offset
    return SubsetFamily(np.flatnonzero(take).reshape(b, k) - np.arange(0, b * d, d)[:, None])


def consistency_index(s_i: frozenset, s_j: frozenset, d: int) -> float:
    """Chance-corrected overlap (r*d - k^2) / (k*(d - k)) of two k-subsets.

    Equals 1 for identical subsets and 0 in expectation for independently
    drawn ones.  For k <= d/2 the value is bounded in [-1, 1]; disjoint
    subsets with k > d/2 fall below -1 (minimum -k/(d-k)) because
    k*(d-k) < k^2 there.
    """
    k = len(s_i)
    if len(s_j) != k:
        raise ValueError(f"subsets differ in size: {k} vs {len(s_j)}")
    _require_int("d", d, 2)
    _require_int("k", k, 1, d - 1)
    r = len(s_i & s_j)
    return (r * d - k * k) / (k * (d - k))


def mean_consistency(f: SubsetFamily, d: int) -> float:
    """Average consistency index over all unordered pairs of subsets.

    The index is linear in the overlap r, and the overlaps of all pairs sum
    to R = sum_j c_j (c_j - 1) / 2 over the per-feature selection counts c_j.
    So the mean over the P = B(B-1)/2 pairs is (R*d - P*k^2) / (P*k*(d - k)),
    an exact ratio of integers, and the result is that exact mean rounded
    once, found in O(B*k + d) without visiting the pairs.
    """
    members = f.members
    b, k = members.shape
    if b < 2:
        raise ValueError("at least 2 subsets are required")
    _require_int("d", d, 2)
    _require_int("k", k, 1, d - 1)
    if members.min() < 0 or members.max() >= d:
        raise ValueError(f"subset elements must lie in [0, {d})")
    counts = np.bincount(members.ravel(), minlength=d)
    r, p = int(np.sum(counts * (counts - 1))) // 2, b * (b - 1) // 2
    # Python ints: exact products and one correctly rounded division
    d, k = int(d), int(k)
    return (r * d - p * k * k) / (p * k * (d - k))


def snr(e: BootstrapEnsemble) -> np.ndarray:
    """Per-feature mean weight over its standard deviation across bootstraps.

    Uses the sample standard deviation (divisor B-1).  Zero deviation yields
    +inf when the mean is nonzero, else 0.  Values are signed; reporting
    uses their absolute value.
    """
    if e.n_bootstraps < 2:
        raise ValueError("at least 2 bootstraps are required")
    means = e.weights.mean(axis=0)
    stds = e.weights.std(axis=0, ddof=1)
    out = np.zeros_like(means)
    nonzero = stds > 0
    out[nonzero] = means[nonzero] / stds[nonzero]
    out[~nonzero & (means != 0)] = np.inf
    return out


def snr_above(
    e: BootstrapEnsemble,
    ranking: FeatureRanking,
    top: int,
    threshold: float = SNR_THRESHOLD,
) -> int:
    """Count of the ``top`` ranked features with |SNR| at or above ``threshold``."""
    _require_int("top", top, 1, e.n_features)
    _require_real("threshold", threshold)
    if len(ranking.order) != e.n_features:
        raise ValueError(f"ranking of {len(ranking.order)} features for an ensemble "
                         f"of {e.n_features}")
    values = np.abs(snr(e))
    return int(np.sum(values[ranking.order[:top]] >= threshold))
