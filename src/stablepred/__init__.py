"""Autoencoder-regularized sparse linear prediction with stability evaluation.

A numpy library for fitting L1-regularized logistic models whose weight
vector factors through an autoencoder's encoding weights, together with
elastic-net and feature-graph baselines, plus a bootstrap harness that
measures feature-selection stability (consistency index) and weight
estimation stability (signal-to-noise ratio).
"""

from .data import (
    Dataset,
    FeatureGraph,
    align_common_features,
    build_laplacian,
    load_dataset,
    load_feature_graph,
    make_dataset,
    standardize,
    standardize_like,
    write_dataset_csv,
    write_feature_graph,
)
from .experiment import (
    ExperimentConfig,
    StabilityReport,
    compare_models,
    emit_report,
    run_experiment,
)
from .metrics import PredictionSet, auc, best_f_threshold, selected_count
from .models import (
    AUGMENTED_MODELS,
    AUTOENCODER_MODELS,
    GRAPH_MODELS,
    MODEL_NAMES,
    ModelFit,
    ModelSpec,
    fit_model,
    validate_hyperparams,
)
from .objectives import FactorizedParams, HyperParams, LinearParams
from .optimizer import (
    FitResult,
    NumericalDivergenceError,
    OptimizerConfig,
    init_params,
    minimize,
)
from .stability import (
    BootstrapEnsemble,
    FeatureRanking,
    SubsetFamily,
    consistency_index,
    feature_importance,
    mean_consistency,
    run_bootstraps,
    snr,
    snr_above,
    top_k_subsets,
)
from .synthetic import (
    DEFAULT_SPEC,
    SyntheticSpec,
    acceptance_configs,
    generate,
    make_group_graph,
    write_bundle,
)

__version__ = "0.1.0"
