"""A fork pool that runs ``job(i)`` for i in a range; it imports nothing from the package."""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from contextlib import closing

import numpy as np


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


# A pool worker's job and the directory it writes results to, set in each
# worker by ``_start_worker``, never in the process that owns the pool.
_worker_job = None


def _start_worker(job, set_blas_threads, out_dir: str) -> None:
    # workers that kept OpenBLAS's default thread count would oversubscribe
    # the CPUs, their threads spinning against each other
    global _worker_job
    set_blas_threads(1)
    _worker_job = job, out_dir


def _run_worker_job(i: int) -> None:
    """Write ``job(i)`` and the warnings it issued to file ``i`` of the call's
    directory: a worker's own warnings never reach the parent."""
    job, out_dir = _worker_job
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = job(i)
    caught = [(w.message, w.category, w.filename, w.lineno) for w in caught]
    with open(os.path.join(out_dir, str(i)), "wb") as fh:
        # protocol 5 writes each array's buffer in-band, read back into one
        # bytearray that the array views
        pickle.dump((result, caught), fh, protocol=5)


def imap_in_order(job, n_jobs: int, pooled: bool = True):
    """Yield ``job(i)`` for i in ``range(n_jobs)``, from a pool of forked workers
    when it can and ``pooled`` is true, each result as soon as it and every
    earlier one are done; else serially, in this process.

    Each worker runs OpenBLAS with one thread.  A job's warnings are issued
    here before its result is yielded, under one registry per call: a warning
    every job raises at one place shows once under the default filter, as it
    does serially.  A failure raises the error of the lowest failing job, as
    the serial loop would, and a worker that dies raises ``BrokenProcessPool``.
    Closing the generator early cancels the jobs no worker has started.

    Pooled results come back through a temporary file per job that this
    thread reads (the executor's thread would unpickle them into memory this
    thread cannot reuse), so the pooled path needs a writable ``TMPDIR``.
    """
    workers = _worker_count(n_jobs) if pooled else 1
    set_blas_threads = _worker_blas_setter() if workers >= 2 else None
    if set_blas_threads is None:
        yield from map(job, range(n_jobs))
        return

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    registry = {}
    # fork, not spawn: workers inherit the job and the imported modules
    # instead of importing them again; closing the map cancels its queued
    # jobs, and the directory goes once the pool has shut down
    with tempfile.TemporaryDirectory() as out_dir, ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(job, set_blas_threads, out_dir),
    ) as pool, closing(pool.map(_run_worker_job, range(n_jobs))) as done:
        for i, _ in enumerate(done):
            path = os.path.join(out_dir, str(i))
            with open(path, "rb") as fh:
                result, caught = pickle.load(fh)
            os.remove(path)
            for message, category, filename, lineno in caught:
                warnings.warn_explicit(message, category, filename, lineno, registry=registry)
            yield result
