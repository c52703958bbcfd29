"""The acceptance ordering experiment, run once per session.

Criteria 6-8 in ``test_acceptance.py`` and the tolerance gate in
``test_gate.py`` read the same five reports: one 50-bootstrap ensemble per
model family on the default synthetic cohort bundle.
"""

import ctypes
import glob
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from stablepred import _pool
from stablepred.experiment import run_experiment
from stablepred.synthetic import DEFAULT_SPEC, acceptance_configs, write_bundle

# After a falsified example, hypothesis's pytest plugin imports this module,
# which imports libcst, whose use of mypy_extensions.TypedDict raises a
# DeprecationWarning that pyproject.toml turns into an error: the session then
# stops with INTERNALERROR instead of reporting the failure.  Loaded here with
# that warning ignored, the plugin's later import finds it loaded.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

needs_pool = pytest.mark.skipif(
    _pool._worker_blas_setter() is None,
    reason="the fork pool needs fork and numpy's bundled OpenBLAS",
)


# The OpenBLAS core whose kernels the byte pins were recorded with: report
# bytes hold only on hosts whose OpenBLAS picks the same kernels.
PIN_CORE = "SkylakeX"


def openblas_core():
    """The core name numpy's bundled OpenBLAS chose its kernels for, or None
    where that library or its ``scipy_openblas_get_corename64_`` is absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            get_core = lib.scipy_openblas_get_corename64_
            get_core.restype = ctypes.c_char_p
            return get_core().decode()
    return None


def pin_host():
    """What a byte pin's failure says of the host it was recorded on and this one."""
    return f"pinned on {PIN_CORE}; this host: {openblas_core()}"


def force_workers(monkeypatch, n):
    """Run every fork pool, and the final-fit fold rule, with at most ``n`` workers."""
    monkeypatch.setattr(_pool, "_worker_count", lambda n_jobs: min(n_jobs, n))


def traced_peak(f):
    """``f()`` and the peak bytes allocated while it ran, as tracemalloc counts
    them: numpy's buffers included and, unlike resident memory, the same on
    every run."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bits(a, b):
    """Equal arrays whose zeros carry the same signs."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def run_ordering(out):
    """Write the default cohort bundle under ``out`` and run the five acceptance
    configs on it; returns their reports by model name and the elapsed seconds."""
    write_bundle(DEFAULT_SPEC, out)
    configs = acceptance_configs(out)
    start = time.monotonic()
    reports = {name: run_experiment(cfg) for name, cfg in configs.items()}
    return reports, time.monotonic() - start


@pytest.fixture(scope="session")
def ordering_experiment(tmp_path_factory):
    """Five stability reports on the default synthetic bundle, timed."""
    return run_ordering(tmp_path_factory.mktemp("cohorts"))
