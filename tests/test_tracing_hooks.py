"""Every function the perfbench tracer hooks exists in stablepred.

The tracer skips a hook whose target is gone and reports its metrics as
absent; the perfbench smoke suite catches that, but runs apart from these
tests.  This check makes deleting or renaming a hooked function fail here,
and renaming the parameter a hook's counter reads.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def hooked_functions():
    return [(layer, name) for layer, names in load_tracing().HOOKS for name in names]


def counter_arguments():
    """(hook, the argument name its counter reads through ``_arg``) pairs.

    ``_arg`` takes a call's first positional argument, else the keyword of
    that name, so the name must be the hooked function's first parameter.
    """
    functions = {node.name: node for node in ast.parse(TRACING.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    return [
        (hook, call.args[2].value)
        for hook, counter in load_tracing()._COUNTERS.items()
        for call in ast.walk(functions[counter.__name__])
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
    ]


def hooked(hook: str):
    layer, name = hook.split(".")
    return getattr(importlib.import_module(f"stablepred.{layer}"), name, None)


@pytest.mark.parametrize("layer,name", hooked_functions())
def test_hook_target_is_callable(layer, name):
    assert callable(hooked(f"{layer}.{name}"))


@pytest.mark.parametrize("hook,arg", counter_arguments())
def test_counter_reads_first_parameter(hook, arg):
    assert next(iter(inspect.signature(hooked(hook)).parameters)) == arg


def test_every_loss_grad_function_is_hooked():
    # the value-and-gradient builders are the objectives' API; a public
    # *_loss/*_grad function stays only while the tracer hooks it
    objectives = importlib.import_module("stablepred.objectives")
    public = {name for name in vars(objectives)
              if not name.startswith("_") and name.endswith(("_loss", "_grad"))}
    assert public <= {name for layer, name in hooked_functions() if layer == "objectives"}
