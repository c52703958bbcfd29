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
    "check_model_inputs",
    "fit_model",
]

# name: (the penalty weights it consumes, whether it takes an augment cohort);
# a model takes a feature graph iff it consumes lambda_fg, and is factorized iff lambda_ae
_MODELS = {
    "lasso": ((), False),
    "elastic-net": (("lambda_en",), False),
    "lasso-graph": (("lambda_fg",), False),
    "lasso-autoencoder": (("lambda_ae", "lambda_l2"), False),
    "lasso-autoencoder-graph": (("lambda_fg", "lambda_ae", "lambda_l2"), False),
    "ag-lasso-autoencoder-graph": (("lambda_fg", "lambda_ae", "lambda_l2"), True),
}
_INACTIVE = {"lambda_en": 1.0, "lambda_fg": 0.0, "lambda_ae": 0.0, "lambda_l2": 0.0}

MODEL_NAMES = tuple(_MODELS)
GRAPH_MODELS = frozenset(m for m, (weights, _) in _MODELS.items() if "lambda_fg" in weights)
AUTOENCODER_MODELS = frozenset(m for m, (weights, _) in _MODELS.items() if "lambda_ae" in weights)
AUGMENTED_MODELS = frozenset(m for m, (_, augmented) in _MODELS.items() if augmented)


def validate_hyperparams(model: str, h: HyperParams) -> None:
    """Reject a penalty weight set away from its ``_INACTIVE`` value for a
    model that does not consume it, naming the first such weight."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")
    for weight, inactive in _INACTIVE.items():
        value = getattr(h, weight)
        if value != inactive and weight not in _MODELS[model][0]:
            raise ValueError(f"{weight}={value} is inapplicable to model {model!r}")


def check_model_inputs(
    model: str, has_graph: bool, has_augment: bool, fields: tuple[str, str] = ("", "")
) -> None:
    """Reject a feature graph or augment cohort that ``model`` needs and lacks,
    or has and does not take; ``fields`` names their config fields in the message."""
    rules = ((has_graph, GRAPH_MODELS, "a feature-graph Laplacian", "a Laplacian"),
             (has_augment, AUGMENTED_MODELS, "an augment cohort", "an augment cohort"))
    for (given, needing, required, rejected), field in zip(rules, fields):
        if given != (model in needing):
            what = f"does not take {rejected}" if given else f"requires {required}"
            raise ValueError(f"model {model!r} {what}" + (f" ({field})" if field else ""))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A model name plus the structures it needs (Laplacian, augment rows)."""

    name: str
    laplacian: Laplacian | None = None
    augment: np.ndarray | None = None

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}")
        check_model_inputs(self.name, self.laplacian is not None, self.augment is not None)


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
        value_and_grad = obj.linear_objective(d, h, spec.laplacian)

    result = minimize_vector(value_and_grad, init.to_vector(), cfg)
    params = result.params = init.with_vector(result.params)
    return ModelFit(
        effective_theta=params.effective_theta(),
        bias=params.bias,
        params=params,
        result=result,
    )
