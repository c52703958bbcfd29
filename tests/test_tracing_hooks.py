"""Every function the perfbench tracer hooks exists in stablepred.

The tracer skips a hook whose target is gone and reports its metrics as
absent; the perfbench smoke suite catches that, but runs apart from these
tests.  This check makes deleting or renaming a hooked function fail here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def hooked_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(layer, name) for layer, names in tracing.HOOKS for name in names]


@pytest.mark.parametrize("layer,name", hooked_functions())
def test_hook_target_is_callable(layer, name):
    assert callable(getattr(importlib.import_module(f"stablepred.{layer}"), name, None))
