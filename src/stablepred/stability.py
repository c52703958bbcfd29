"""Bootstrap stability protocol: resampled fits, rankings, consistency index, SNR."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _require_int, _require_real
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


@dataclass(frozen=True)
class SubsetFamily:
    """Per-bootstrap top-k feature index sets."""

    k: int
    subsets: tuple[frozenset, ...]

    def __post_init__(self):
        for s in self.subsets:
            if len(s) != self.k:
                raise ValueError(f"subset of size {len(s)} in a k={self.k} family")


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
    the platform allows, with the same results.  Aborts if any fit diverges,
    reporting the lowest diverging bootstrap.
    """
    return _bootstraps_and_final_fit(None, d, model_spec, h, cfg, n_bootstraps, base_seed)[0]


def _bootstraps_and_final_fit(final_fit, d, model_spec, h, cfg, n_bootstraps, base_seed):
    """``(run_bootstraps(...), final_fit())``; ``None`` for the latter if not given.

    ``final_fit`` runs as the pool's last job when that fills a slot idle in
    the bootstraps' last round, else here after the pool, with every BLAS thread.
    """
    if not d.labeled:
        raise ValueError("bootstrap training requires a labeled dataset")
    _require_int("n_bootstraps", n_bootstraps, 0)
    _require_int("base_seed", base_seed, 0)
    if n_bootstraps < 2:
        raise ValueError("at least 2 bootstraps are required for stability statistics")
    m = d.n_samples

    def fit(b: int) -> np.ndarray:
        seed = base_seed + b
        idx = np.random.default_rng(seed).integers(0, m, size=m)
        resampled = replace(d, X=d.X[idx], y=d.y[idx])
        try:
            return fit_model(model_spec, resampled, h, cfg, init_seed=seed).effective_theta
        except NumericalDivergenceError as e:
            raise NumericalDivergenceError(f"bootstrap {b}: {e}", e.iteration) from e

    fold = final_fit is not None and n_bootstraps % _worker_count(n_bootstraps + 1) != 0
    fits = _map_in_order(lambda b: fit(b) if b < n_bootstraps else final_fit(),
                         n_bootstraps + fold)
    final = fits.pop() if fold else final_fit and final_fit()
    ensemble = BootstrapEnsemble(
        weights=np.stack(fits),
        seeds=tuple(base_seed + b for b in range(n_bootstraps)),
        model_tag=model_spec.name,
    )
    return ensemble, final


def _worker_count(n_jobs: int) -> int:
    """One pool worker per CPU this process may run on, at most one per job."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _worker_blas_setter():
    """``openblas_set_num_threads`` of numpy's bundled OpenBLAS, or None where
    this process cannot run a fork pool: no ``fork``, a daemonic process (it may
    not start processes), or a BLAS whose threads it cannot bound (MKL,
    Accelerate, a system OpenBLAS)."""
    import ctypes
    import glob
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    return None


# A pool worker's job, set in each worker by ``_start_worker``, never in the
# process that owns the pool.
_worker_job = None


def _start_worker(job, set_blas_threads) -> None:
    # workers that kept OpenBLAS's default thread count would oversubscribe
    # the CPUs, their threads spinning against each other
    global _worker_job
    set_blas_threads(1)
    _worker_job = job


def _run_worker_job(i: int):
    return _worker_job(i)


def _map_in_order(job, n_jobs: int) -> list:
    """``[job(i) for i in range(n_jobs)]``, in a pool of forked workers when it can.

    Each worker runs OpenBLAS with one thread.  Results come back in job
    order; a failure raises the error of the lowest failing job, as the serial
    loop would, and a worker that dies raises ``BrokenProcessPool``.
    """
    workers = _worker_count(n_jobs)
    set_blas_threads = _worker_blas_setter() if workers >= 2 else None
    if set_blas_threads is None:
        return [job(i) for i in range(n_jobs)]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: workers inherit the job and the imported modules
    # instead of importing them again
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(job, set_blas_threads),
    ) as pool:
        return list(pool.map(_run_worker_job, range(n_jobs)))


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
    the first k of that row's stable descending order, found in O(B*d).
    """
    _require_int("k", k, 1)
    if k >= e.n_features:
        raise ValueError(f"k must satisfy 1 <= k < {e.n_features}")
    _check_raw_std(raw_std, e.n_features)
    scores = np.abs(e.weights)
    scores *= raw_std  # in place: a fresh B x d temporary costs more than the product
    kth = np.partition(scores, -k, axis=1)[:, -k, None]
    take = scores >= kth
    over = np.flatnonzero(take.sum(axis=1) > k)
    if len(over):
        # rows whose ties at the k-th score overfill: keep the lowest-index ties
        sub, kth_sub = scores[over], kth[over]
        above, ties = sub > kth_sub, sub == kth_sub
        room = k - above.sum(axis=1, keepdims=True)
        take[over] = above | (ties & (np.cumsum(ties, axis=1) <= room))
    top = np.nonzero(take)[1].reshape(-1, k)
    return SubsetFamily(k=k, subsets=tuple(frozenset(row) for row in top.tolist()))


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
    if k == 0 or k >= d:
        raise ValueError(f"subset size must satisfy 0 < k < d, got k={k}, d={d}")
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
    b, k = len(f.subsets), f.k
    if b < 2:
        raise ValueError("at least 2 subsets are required")
    if k == 0 or k >= d:
        raise ValueError(f"subset size must satisfy 0 < k < d, got k={k}, d={d}")
    members = np.fromiter((i for s in f.subsets for i in s), dtype=np.int64, count=b * k)
    if members.min() < 0 or members.max() >= d:
        raise ValueError(f"subset elements must lie in [0, {d})")
    counts = np.bincount(members, minlength=d)
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
    threshold: float = 1.96,
) -> int:
    """Count of the ``top`` ranked features with |SNR| at or above ``threshold``."""
    _require_int("top", top, 1)
    _require_real("threshold", threshold)
    if top > e.n_features:
        raise ValueError("top exceeds the feature count")
    values = np.abs(snr(e))
    return int(np.sum(values[ranking.order[:top]] >= threshold))
