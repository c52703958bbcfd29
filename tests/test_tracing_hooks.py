"""Every function the perfbench tracer hooks exists in stablepred.

The tracer skips a hook whose target is gone and reports its metrics as
absent; the perfbench smoke suite catches that, but runs apart from these
tests.  This check makes deleting or renaming a hooked function fail here,
and renaming the parameter a hook's counter reads or an attribute it reads
from the call's argument or result.
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


def test_counters_read_real_results(tmp_path):
    # the counters read package attributes (a family's subsets, a fit's
    # iterations_used); renaming one would zero its metric in traced runs only
    import numpy as np

    from stablepred.data import make_dataset, write_dataset_csv
    from stablepred.metrics import PredictionSet
    from stablepred.models import ModelSpec
    from stablepred.objectives import HyperParams
    from stablepred.optimizer import OptimizerConfig
    from stablepred.stability import BootstrapEnsemble, top_k_subsets

    tracing = load_tracing()

    def count(hook, *args):
        """The hooked call's result and what its counter records from it."""
        tracer, result = tracing.Tracer(), hooked(hook)(*args)
        tracing._COUNTERS[hook](tracer, args, {}, result, 0.5)
        return result, dict(tracer.counts[-1])

    rng = np.random.default_rng(0)
    ensemble = BootstrapEnsemble(rng.standard_normal((7, 10)), tuple(range(7)), "t")
    family = top_k_subsets(ensemble, np.ones(10), 3)
    assert count("stability.mean_consistency", family, 10)[1] == {
        "stability.consistency_pairs": 7 * 6 // 2}

    d = make_dataset(rng.standard_normal((30, 4)), np.where(rng.random(30) < 0.5, -1.0, 1.0))
    fit, counts = count("models.fit_model", ModelSpec("lasso"), d, HyperParams(alpha=0.1),
                        OptimizerConfig(max_iters=20))
    iterations = fit.result.iterations_used
    assert iterations > 0
    assert counts == {
        "models.fits": 1, "models.fits.lasso": 1, "models.fit_s.lasso": 0.5,
        "optimizer.iterations": iterations, "optimizer.iterations.lasso": iterations,
        "optimizer.converged.lasso": int(fit.result.converged),
    }

    path = tmp_path / "cohort.csv"
    write_dataset_csv(d, path)
    assert count("data.load_dataset", path)[1] == {"data.load_bytes": path.stat().st_size}

    p = PredictionSet(np.array([0.1, 0.4, 0.4, 0.9]), np.array([-1.0, 1.0, -1.0, 1.0]))
    # three distinct scores, plus the threshold above them all
    assert count("metrics.best_f_threshold", p)[1] == {"metrics.f_threshold_candidates": 4}
