"""The six regularization schemes, from hyperparameter validation to fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Laplacian
from . import objectives as obj
from .objectives import HyperParams, LinearParams
from .optimizer import FitResult, OptimizerConfig, init_params, minimize_vector

__all__ = [
    "MODEL_NAMES",
    "GRAPH_MODELS",
    "AUTOENCODER_MODELS",
    "AUGMENTED_MODELS",
    "ModelSpec",
    "ModelFit",
    "validate_hyperparams",
    "fit_model",
]

MODEL_NAMES = (
    "lasso",
    "elastic-net",
    "lasso-graph",
    "lasso-autoencoder",
    "lasso-autoencoder-graph",
    "ag-lasso-autoencoder-graph",
)

GRAPH_MODELS = frozenset(
    {"lasso-graph", "lasso-autoencoder-graph", "ag-lasso-autoencoder-graph"}
)
AUTOENCODER_MODELS = frozenset(
    {"lasso-autoencoder", "lasso-autoencoder-graph", "ag-lasso-autoencoder-graph"}
)
AUGMENTED_MODELS = frozenset({"ag-lasso-autoencoder-graph"})


def validate_hyperparams(model: str, h: HyperParams) -> None:
    """Reject hyperparameters that the chosen model cannot consume.

    A knob is inapplicable when set away from its inactive value:
    lambda_en != 1 outside elastic-net, lambda_fg != 0 outside graph models,
    lambda_ae/lambda_l2 != 0 outside autoencoder models.
    """
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    if h.lambda_en != 1.0 and model != "elastic-net":
        raise ValueError(f"lambda_en={h.lambda_en} is inapplicable to model {model!r}")
    if h.lambda_fg != 0.0 and model not in GRAPH_MODELS:
        raise ValueError(f"lambda_fg={h.lambda_fg} is inapplicable to model {model!r}")
    if h.lambda_ae != 0.0 and model not in AUTOENCODER_MODELS:
        raise ValueError(f"lambda_ae={h.lambda_ae} is inapplicable to model {model!r}")
    if h.lambda_l2 != 0.0 and model not in AUTOENCODER_MODELS:
        raise ValueError(f"lambda_l2={h.lambda_l2} is inapplicable to model {model!r}")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model name plus the structures it needs (Laplacian, augment rows)."""

    name: str
    laplacian: Laplacian | None = None
    augment: np.ndarray | None = None

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}")
        if self.name in GRAPH_MODELS and self.laplacian is None:
            raise ValueError(f"model {self.name!r} requires a feature-graph Laplacian")
        if self.name not in GRAPH_MODELS and self.laplacian is not None:
            raise ValueError(f"model {self.name!r} does not take a Laplacian")
        if self.name in AUGMENTED_MODELS and self.augment is None:
            raise ValueError(f"model {self.name!r} requires an augment cohort")
        if self.name not in AUGMENTED_MODELS and self.augment is not None:
            raise ValueError(f"model {self.name!r} does not take an augment cohort")


@dataclass(eq=False)
class ModelFit:
    effective_theta: np.ndarray
    bias: float
    params: object
    result: FitResult


def fit_model(
    spec: ModelSpec,
    d: Dataset,
    h: HyperParams,
    cfg: OptimizerConfig,
    init_seed: int | None = None,
) -> ModelFit:
    """Fit one model variant on a labeled dataset and return its weights.

    Linear variants start from zeros; factorized variants from the seeded
    initialization (``init_seed`` defaults to the optimizer seed).
    """
    validate_hyperparams(spec.name, h)
    if not d.labeled:
        raise ValueError("model fitting requires a labeled dataset")
    seed = cfg.seed if init_seed is None else init_seed

    if spec.name in AUTOENCODER_MODELS:
        init = init_params(d.n_features, h.hidden_units, seed)
        value_and_grad = obj.joint_objective(d, spec.augment, h, spec.laplacian)
    else:
        init = LinearParams(theta=np.zeros(d.n_features), bias=0.0)
        if spec.name == "elastic-net":
            value_and_grad = obj.elastic_net_objective(d, h)
        else:
            value_and_grad = obj.lasso_objective(d, h, spec.laplacian)

    result = minimize_vector(value_and_grad, init.to_vector(), cfg)
    params = result.params = init.with_vector(result.params)
    return ModelFit(
        effective_theta=params.effective_theta(),
        bias=params.bias,
        params=params,
        result=result,
    )
