"""stablepred benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {ordering,wide,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it imports stablepred from ``src/`` there and
fails (exit 2, no result) when that is missing.  Everything runs in this one
process with one closed-loop client: an operation starts when the previous
one has finished.  BLAS may use as many threads as the process has CPUs.

Set-up (imports, then writing the workload's inputs, repeated ``SETUPS``
times) precedes the first timed operation.  Passes over the workload's
operations then repeat until another pass would overrun ``--seconds``; there
is always at least one.

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: import time plus the median set-up time;
* ``wall_s``: median wall time of one pass;
* ``peak_rss_mb``: peak resident memory of the process.

The error rate is ``failed / attempted`` of the result line: an operation
fails if it raises or its output fails the workload's check.

With ``--trace 1`` untraced and traced passes alternate and the result holds
the per-layer metrics derived from the spans of the traced ones (median over
traced passes), plus ``trace.overhead_ratio``, the median traced pass over the
median untraced one.  The spans are written to
``perfbench/_out/<workload>-seed<seed>/trace.json``.

The last line on stdout is the result; the line before it holds the run's
provenance (machine, library versions, input sizes, pass times).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_program() -> None:
    """Import stablepred from this checkout's src/ and the workloads, or raise
    ImportError."""
    if not (SRC / "stablepred" / "__init__.py").is_file():
        raise ImportError(f"no stablepred package under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import stablepred

    if not Path(stablepred.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stablepred imported from {stablepred.__file__}, not {SRC}")
    import workloads  # noqa: F401


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def blas_info() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": "unknown",
            "threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "blas": blas_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "clients": 1,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            sizes=None) -> dict:
    """Run one workload; return the result object and the run's provenance.

    ``sizes`` overrides the workload's input sizes (the smoke test uses tiny
    ones).  Set-up time counts from the start of this module's import.
    """
    import tracing
    import workloads
    from tracing import median

    import_s = time.perf_counter() - T0
    wl = workloads.WORKLOADS[workload](seed, workdir / "inputs", sizes)
    tracer = tracing.Tracer() if trace else None

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        if tracer is None:
            state = wl.setup()
        else:
            tracer.install()
            try:
                state = tracer.root("setup", wl.setup)
            finally:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - start)

    attempted = failed = 0
    errors: list[str] = []
    passes = {False: [], True: []}  # traced? -> pass wall times
    traced_roots = []
    outcomes = []
    start_all = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes[False]) > len(passes[True])
        start = time.perf_counter()
        if traced:
            tracer.install()
            try:
                traced_roots.append(len(tracer.roots))
                outcomes = tracer.root("pass", wl.run_pass, state)
            finally:
                tracer.uninstall()
        else:
            outcomes = wl.run_pass(state)
        passes[traced].append(time.perf_counter() - start)
        for o, errs in zip(outcomes, wl.check(state, outcomes)):
            attempted += 1
            if errs:
                failed += 1
                errors.append(f"{o.name}: " + "; ".join(errs))
        done_kinds = passes[False] and (tracer is None or passes[True])
        elapsed = time.perf_counter() - start_all
        if done_kinds and elapsed + median(passes[False] + passes[True]) > seconds:
            break

    result_metrics = {}
    if tracer is None:
        values = {
            "setup_s": import_s + median(setup_times),
            "wall_s": median(passes[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        totals = tracer.root_totals()
        setups = [totals[i] for i, kind in enumerate(tracer.roots) if kind == "setup"]
        per_pass = [tracing.layer_metrics(totals[i], setups) for i in traced_roots]
        values = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
        values["trace.wall_s"] = median(passes[True])
        values["trace.overhead_ratio"] = median(passes[True]) / median(passes[False])
        absent = tracer.absent()
        result_metrics = {
            name: {"value": values[name], "unit": tracing.metric_unit(name)}
            for name in tracing.METRICS
            if name not in absent
        }

    info = wl.info(outcomes) if hasattr(wl, "info") and not any(o.error for o in outcomes) else {}
    run = {
        **provenance(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "inputs": wl.inputs(),
        "import_s": import_s,
        "setup_s": setup_times,
        "pass_s": passes[False],
        "traced_pass_s": passes[True],
        "error_rate": failed / attempted,
        "errors": errors[:20],
        **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    if tracer is not None:
        run["absent"] = tracer.absent()
        run["missing_hooks"] = sorted(tracer.missing)
        run["trace_path"] = str(workdir / "trace.json")
        tracer.write(workdir / "trace.json", {"workload": workload, "seed": seed,
                                               "traced_pass_roots": traced_roots})
    return {"result": result, "provenance": run}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ordering", "wide", "evaluate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        # the inputs (up to ~80 MB of CSV for wide) are rewritten by every run
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
    prov = out["provenance"]
    for err in prov["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if prov.get("absent"):
        print(f"absent metrics (hook target missing): {prov['absent']}", file=sys.stderr)
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
