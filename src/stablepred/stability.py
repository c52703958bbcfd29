"""Bootstrap stability protocol: resampled fits, rankings, consistency index, SNR."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral

import numpy as np

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
    """Per-bootstrap top-k feature index sets.

    ``members`` holds set b as row b of a read-only B x k int64 array, in
    ascending order; ``subsets`` holds them as frozensets, built on first read.
    """

    def __init__(self, k: int, subsets: tuple[frozenset, ...]):
        _require_int("k", k, 1)
        subsets, int64 = tuple(subsets), np.iinfo(np.int64)
        for b, s in enumerate(subsets):
            if len(s) != k:
                raise ValueError(f"subset of size {len(s)} in a k={k} family")
            bad = [i for i in s if isinstance(i, bool) or not isinstance(i, Integral)]
            if bad:
                raise ValueError(f"subset {b} holds {bad[0]!r}, not an integer")
            bad = [i for i in s if not int64.min <= i <= int64.max]
            if bad:
                raise ValueError(f"subset {b} holds {bad[0]!r}, outside the int64 range")
        self._hold(k, np.array([sorted(s) for s in subsets], dtype=np.int64).reshape(-1, k))
        self.subsets = subsets

    @classmethod
    def _of(cls, k: int, members: np.ndarray) -> SubsetFamily:
        """The family whose rows are ``members``, an owned B x k int64 array."""
        f = cls.__new__(cls)
        f._hold(k, members)
        return f

    def _hold(self, k: int, members: np.ndarray) -> None:
        repeats = np.flatnonzero((members[:, 1:] <= members[:, :-1]).any(axis=1))
        if len(repeats):
            raise ValueError(f"subset {repeats[0]} repeats a member")
        members.flags.writeable = False
        self.k, self.members = k, members

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
    the platform allows, with the same results.  Aborts if any fit diverges,
    reporting the lowest diverging bootstrap.
    """
    return _bootstraps_and_final_fit(None, d, model_spec, h, cfg, n_bootstraps, base_seed)[0]


def _bootstraps_and_final_fit(final_fit, d, model_spec, h, cfg, n_bootstraps, base_seed):
    """``(run_bootstraps(...), final_fit())``; ``None`` for the latter if not given.

    ``final_fit`` runs as the pool's last job when that fills a slot idle in
    the bootstraps' last round, else here after the pool, with every BLAS thread.
    """
    _require_labeled(d)
    _require_int("n_bootstraps", n_bootstraps, 2)
    _require_int("base_seed", base_seed, 0)
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
    """``[job(i) for i in range(n_jobs)]``, in a pool of forked workers when it can."""
    return list(_imap_in_order(job, n_jobs))


def _imap_in_order(job, n_jobs: int):
    """Yield ``job(i)`` for i in ``range(n_jobs)``, from a pool of forked workers
    when it can, each result as soon as it and every earlier one are done.

    Each worker runs OpenBLAS with one thread.  A failure raises the error of
    the lowest failing job, as the serial loop would, and a worker that dies
    raises ``BrokenProcessPool``.  Closing the generator early cancels the
    jobs no worker has started.
    """
    workers = _worker_count(n_jobs)
    set_blas_threads = _worker_blas_setter() if workers >= 2 else None
    if set_blas_threads is None:
        yield from map(job, range(n_jobs))
        return

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
        yield from pool.map(_run_worker_job, range(n_jobs))


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
    _require_int("k", k, 1, e.n_features - 1)
    _check_raw_std(raw_std, e.n_features)
    scores = np.abs(e.weights)
    scores *= raw_std  # in place: a fresh B x d temporary costs more than the product
    top = np.argpartition(scores, -k, axis=1)[:, -k:]
    kth = np.take_along_axis(scores, top[:, :1], axis=1)
    members = np.sort(top, axis=1)
    over = np.flatnonzero((scores >= kth).sum(axis=1) > k)
    if len(over):
        # rows whose ties at the k-th score overfill: keep the lowest-index ties
        sub, kth_sub = scores[over], kth[over]
        above, ties = sub > kth_sub, sub == kth_sub
        room = k - above.sum(axis=1, keepdims=True)
        take = above | (ties & (np.cumsum(ties, axis=1) <= room))
        members[over] = np.nonzero(take)[1].reshape(-1, k)
    return SubsetFamily._of(k, members)


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
    b, k, members = len(f.members), f.k, f.members
    if b < 2:
        raise ValueError("at least 2 subsets are required")
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
    threshold: float = 1.96,
) -> int:
    """Count of the ``top`` ranked features with |SNR| at or above ``threshold``."""
    _require_int("top", top, 1, e.n_features)
    _require_real("threshold", threshold)
    if len(ranking.order) != e.n_features:
        raise ValueError(f"ranking of {len(ranking.order)} features for an ensemble "
                         f"of {e.n_features}")
    values = np.abs(snr(e))
    return int(np.sum(values[ranking.order[:top]] >= threshold))
