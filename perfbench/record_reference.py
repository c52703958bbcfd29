"""Record the reference outputs that the benchmark checks at the default seed.

    python3 perfbench/record_reference.py

Runs one pass of every workload at the default seed and full size and writes
perfbench/reference.json.  Re-record only when a change is meant to alter the
program's outputs, and say so with the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    reference = {}
    workdir = run.OUT / "reference"
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workloads.DEFAULT_SEED, workdir / name)
            state = wl.setup()
            outcomes = wl.run_pass(state)
            errors = [o.error for o in outcomes if o.error is not None]
            if errors:
                print(f"error: {name}: {errors}", file=sys.stderr)
                return 1
            reference[name] = wl.summary(state, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
