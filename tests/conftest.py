"""The acceptance ordering experiment, run once per session.

Criteria 6-8 in ``test_acceptance.py`` and the tolerance gate in
``test_gate.py`` read the same five reports: one 50-bootstrap ensemble per
model family on the default synthetic cohort bundle.
"""

import dataclasses
import time
import warnings

import pytest

from stablepred.data import write_dataset_csv, write_feature_graph
from stablepred.experiment import ExperimentConfig, run_experiment
from stablepred.objectives import HyperParams
from stablepred.optimizer import OptimizerConfig
from stablepred.synthetic import DEFAULT_SPEC, generate, make_group_graph

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

# frozen settings for the ordering experiment (criteria 6-8)
EXPERIMENT_SEED = 11
OPTIMIZER = OptimizerConfig(
    max_iters=2500, learning_rate=0.02, adaptive=True, rel_tol=1e-7, seed=EXPERIMENT_SEED
)
N_BOOTSTRAPS = 50
SUBSET_K = 20
TOP_FOR_SNR = 20
H_LINEAR = HyperParams(alpha=0.01)
H_LINEAR_GRAPH = HyperParams(alpha=0.01, lambda_fg=0.015)
H_AE = HyperParams(alpha=0.05, lambda_ae=100.0, lambda_l2=1e-3, hidden_units=10)
H_AE_GRAPH = HyperParams(alpha=0.05, lambda_ae=100.0, lambda_l2=1e-3, lambda_fg=0.1,
                         hidden_units=10)


def run_ordering(out):
    """Write the default cohort bundle under ``out`` and run the five acceptance
    configs on it; returns their reports by model name and the elapsed seconds."""
    spec = DEFAULT_SPEC
    write_dataset_csv(generate(spec), out / "train.csv")
    write_dataset_csv(
        generate(dataclasses.replace(spec, seed=spec.seed + 1)), out / "validation.csv"
    )
    write_dataset_csv(
        generate(dataclasses.replace(spec, seed=spec.seed + 2), labeled=False),
        out / "augment.csv",
    )
    write_feature_graph(make_group_graph(spec), out / "graph.tsv")

    shared = dict(
        train_path=str(out / "train.csv"),
        validation_path=str(out / "validation.csv"),
        optimizer=OPTIMIZER,
        n_bootstraps=N_BOOTSTRAPS,
        k_list=(SUBSET_K,),
        top_for_snr=TOP_FOR_SNR,
    )
    graph = str(out / "graph.tsv")
    augment = str(out / "augment.csv")
    configs = {
        "lasso": ExperimentConfig(model="lasso", hyperparams=H_LINEAR, **shared),
        "lasso-graph": ExperimentConfig(
            model="lasso-graph", hyperparams=H_LINEAR_GRAPH, graph_path=graph, **shared
        ),
        "lasso-autoencoder": ExperimentConfig(
            model="lasso-autoencoder", hyperparams=H_AE, **shared
        ),
        "lasso-autoencoder-graph": ExperimentConfig(
            model="lasso-autoencoder-graph", hyperparams=H_AE_GRAPH, graph_path=graph,
            **shared,
        ),
        "ag-lasso-autoencoder-graph": ExperimentConfig(
            model="ag-lasso-autoencoder-graph", hyperparams=H_AE_GRAPH, graph_path=graph,
            augment_path=augment, **shared,
        ),
    }
    start = time.monotonic()
    reports = {name: run_experiment(cfg) for name, cfg in configs.items()}
    return reports, time.monotonic() - start


@pytest.fixture(scope="session")
def ordering_experiment(tmp_path_factory):
    """Five stability reports on the default synthetic bundle, timed."""
    return run_ordering(tmp_path_factory.mktemp("cohorts"))
