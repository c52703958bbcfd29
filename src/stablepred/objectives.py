"""Loss functions and analytic gradients for sparse linear prediction.

All data terms are averaged over samples (1/M), so penalty weights keep
their meaning across cohort sizes.  The L1 term uses the smooth surrogate
sqrt(t^2 + eps) throughout, which keeps every objective differentiable.
The bias enters the linear predictor but no penalty.

All six model families share one penalty stack on the weight vector theta
(theta = W^T u for the factorized ones): the logistic term, then the smoothed
L1 term with weight alpha * lambda_en, alpha * (1 - lambda_en) * sum theta^2,
and, given a Laplacian, (lambda_fg / 2) theta^T L theta.  Each family has one
fused ``value_and_grad(vec) -> (loss, grad)`` over the flat ``to_vector()``
layout of its parameters, built once per fit by ``linear_objective`` or
``joint_objective``.  ``autoencoder_objective`` builds the reconstruction loss
alone over the factorized layout.  The ``lasso_*``, ``elastic_net_*``,
``lasso_graph_*`` and ``joint_*`` loss/gradient functions on parameter objects
derive from the builders; no fit calls them, and they remain only because the
benchmark tracer hooks them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .data import Dataset, _require_int, _require_labeled, _require_real

__all__ = [
    "LinearParams",
    "FactorizedParams",
    "HyperParams",
    "linear_objective",
    "joint_objective",
    "autoencoder_objective",
    "lasso_loss",
    "lasso_grad",
    "elastic_net_loss",
    "elastic_net_grad",
    "lasso_graph_loss",
    "lasso_graph_grad",
    "joint_loss",
    "joint_grad",
]


def _load_expit(special_dir: str | None):
    """scipy's compiled ``expit`` ufunc, loaded from the ``_special_ufuncs``
    extension in ``special_dir`` without running ``scipy.special``'s
    ``__init__``, which costs about 0.2 s and 26 MB of every import; else
    ``scipy.special.expit`` (older scipy has no such file).  A later
    ``import scipy.special`` finds this same ufunc object, so no bit differs."""
    name = "scipy.special._special_ufuncs"
    paths = (os.path.join(special_dir, "_special_ufuncs" + s) for s in EXTENSION_SUFFIXES)
    path = next(filter(os.path.isfile, paths), None) if special_dir else None
    if path is not None:
        loader = ExtensionFileLoader(name, path)
        try:
            module = module_from_spec(spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            return module.expit
        except (ImportError, AttributeError):
            pass
    from scipy.special import expit

    return expit


_scipy = find_spec("scipy")  # locates the package without importing it; None if absent
expit = _load_expit(os.path.join(_scipy.submodule_search_locations[0], "special") if _scipy
                    else None)


@dataclass(frozen=True, eq=False)
class LinearParams:
    """Weight vector over features plus an unpenalized intercept."""

    theta: np.ndarray
    bias: float = 0.0

    def effective_theta(self) -> np.ndarray:
        return self.theta.copy()

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.theta, [self.bias]])

    def with_vector(self, vec: np.ndarray) -> "LinearParams":
        return LinearParams(theta=vec[:-1].copy(), bias=float(vec[-1]))


def _factor_views(vec: np.ndarray, n: int):
    """u, W, V, b_W, b_V as views into a flat factorized vector over ``n``
    features (bias is vec[-1]), whose 2k(n + 1) + n + 1 entries fix k."""
    k = (vec.size - n - 1) // (2 * n + 2)
    kn = k * n
    return (
        vec[:k],
        vec[k : k + kn].reshape(k, n),
        vec[k + kn : k + 2 * kn].reshape(n, k),
        vec[k + 2 * kn : 2 * k + 2 * kn],
        vec[2 * k + 2 * kn : -1],
    )


@dataclass(frozen=True, eq=False)
class FactorizedParams:
    """Factorized weights theta = W^T u, with W doubling as encoder weights.

    u is k-dimensional, W is the k x N encoder, V the N x k decoder, and
    b_W / b_V the encoder/decoder biases.  The intercept of the linear
    predictor is ``bias``.
    """

    u: np.ndarray
    W: np.ndarray
    V: np.ndarray
    b_W: np.ndarray
    b_V: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        k, n = self.W.shape
        if self.u.shape != (k,):
            raise ValueError(f"u has shape {self.u.shape}, expected ({k},)")
        if self.V.shape != (n, k):
            raise ValueError(f"V has shape {self.V.shape}, expected ({n}, {k})")
        if self.b_W.shape != (k,) or self.b_V.shape != (n,):
            raise ValueError("encoder/decoder bias shapes do not match W")

    def effective_theta(self) -> np.ndarray:
        return self.W.T @ self.u

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.u, self.W.ravel(), self.V.ravel(), self.b_W, self.b_V, [self.bias]]
        )

    def with_vector(self, vec: np.ndarray) -> "FactorizedParams":
        u, W, V, b_W, b_V = (part.copy() for part in _factor_views(vec, self.W.shape[1]))
        return FactorizedParams(u=u, W=W, V=V, b_W=b_W, b_V=b_V, bias=float(vec[-1]))


@dataclass(frozen=True)
class HyperParams:
    """Penalty weights and model-size settings.

    alpha scales the L1 term, lambda_en mixes L1 against squared-L2 inside
    the elastic net, lambda_fg scales the feature-graph quadratic form,
    lambda_ae the reconstruction term, lambda_l2 the decay on encoder and
    decoder weights/biases, hidden_units sets the latent width, and
    l1_epsilon the L1 smoothing constant.
    """

    alpha: float = 0.005
    lambda_en: float = 1.0
    lambda_fg: float = 0.0
    lambda_ae: float = 0.0
    lambda_l2: float = 0.0
    hidden_units: int = 10
    l1_epsilon: float = 1e-10

    def __post_init__(self):
        for name in ("alpha", "lambda_en", "lambda_fg", "lambda_ae", "lambda_l2"):
            _require_real(name, getattr(self, name), 0.0)
        if self.lambda_en > 1.0:
            raise ValueError("lambda_en must lie in [0, 1]")
        _require_int("hidden_units", self.hidden_units, 1)
        _require_real("l1_epsilon", self.l1_epsilon, 0.0, strict=True)


def _validate_augment(d: Dataset, aug: np.ndarray | None) -> None:
    if aug is not None and (aug.ndim != 2 or aug.shape[1] != d.n_features):
        raise ValueError(
            f"augment matrix has shape {aug.shape}, expected (*, {d.n_features})"
        )


# Terms.  Each returns its value and its gradient from one evaluation; the
# fused objectives add them in a fixed order, which fixes the result bits.


def _logistic(X: np.ndarray, y: np.ndarray, theta: np.ndarray, bias: float):
    """Mean logistic loss and its gradient in theta and in the bias."""
    margins = y * (X @ theta + bias)
    resid = -y * expit(-margins) / X.shape[0]
    return float(np.mean(np.logaddexp(0.0, -margins))), X.T @ resid, float(resid.sum())


def _l1(theta: np.ndarray, alpha: float, eps: float):
    root = np.sqrt(theta**2 + eps)
    return float(alpha * np.sum(root)), alpha * theta / root


def _penalized(d: Dataset, h: HyperParams, lap: np.ndarray | None):
    """``f(theta, bias) -> (loss, g_theta, g_bias)``: the penalty stack on theta."""
    _require_labeled(d)
    if lap is not None and lap.shape != (d.n_features, d.n_features):
        raise ValueError(f"Laplacian is {lap.shape} but theta has {d.n_features} entries")
    X, y = d.X, d.y
    l1_weight, l2_weight = h.alpha * h.lambda_en, h.alpha * (1.0 - h.lambda_en)

    def f(theta: np.ndarray, bias: float):
        loss, g_theta, g_bias = _logistic(X, y, theta, bias)
        l1, g_l1 = _l1(theta, l1_weight, h.l1_epsilon)
        loss += l1
        g_theta += g_l1
        if l2_weight != 0.0:  # it is 0 at lambda_en = 1, in every model but elastic-net
            loss += l2_weight * float(np.sum(theta**2))
            g_theta += 2.0 * l2_weight * theta
        if lap is not None:
            lap_theta = lap @ theta
            loss += 0.5 * h.lambda_fg * float(theta @ lap_theta)
            g_theta += h.lambda_fg * lap_theta
        return loss, g_theta, g_bias

    return f


def _reconstruction(W, V, b_W, b_V, X: np.ndarray):
    """Reconstruction loss over the rows of X and its gradient in W, V, b_W and b_V."""
    hidden = expit(X @ W.T + b_W)
    residual = X - b_V - hidden @ V.T
    loss = float(np.sum(residual**2) / (2.0 * W.shape[1] * X.shape[0]))
    d_resid = residual / (V.shape[0] * X.shape[0])
    d_pre = -(d_resid @ V) * hidden * (1.0 - hidden)
    return loss, (d_pre.T @ X, -(d_resid.T @ hidden), d_pre.sum(axis=0), -d_resid.sum(axis=0))


def linear_objective(d: Dataset, h: HyperParams, lap: np.ndarray | None = None):
    """``value_and_grad(vec) -> (loss, grad)`` over [theta, bias]: lasso and
    elastic-net, or lasso-graph with a Laplacian."""
    f = _penalized(d, h, lap)

    def value_and_grad(vec: np.ndarray):
        loss, g_theta, g_bias = f(vec[:-1], float(vec[-1]))
        return loss, np.append(g_theta, g_bias)

    return value_and_grad


def joint_objective(d: Dataset, aug: np.ndarray | None, h: HyperParams,
                    lap: np.ndarray | None = None):
    """Fused ``joint_loss``/``joint_grad`` over the FactorizedParams layout.

    The penalty stack is evaluated at theta = W^T u and its theta gradient
    carried to u and W.  The labeled and augment rows are stacked once here,
    not per call.
    """
    f = _penalized(d, h, lap)
    _validate_augment(d, aug)
    X, n = d.X, d.n_features
    rows = None
    if h.lambda_ae != 0.0:
        rows = X if aug is None else np.vstack([X, aug])

    def value_and_grad(vec: np.ndarray):
        u, W, V, b_W, b_V = _factor_views(vec, n)
        loss, g_theta, g_bias = f(W.T @ u, float(vec[-1]))
        grad = np.zeros_like(vec)
        g_u, g_W, *g_decoder = _factor_views(grad, n)
        # theta = W^T u, so d/du = W g_theta and d/dW = u (x) g_theta.
        g_u[:] = W @ g_theta
        np.outer(u, g_theta, out=g_W)
        g_blocks = (g_W, *g_decoder)
        blocks = (W, V, b_W, b_V)
        if rows is not None:
            ae, g_ae_blocks = _reconstruction(*blocks, rows)
            loss += h.lambda_ae * ae
            for g, g_ae in zip(g_blocks, g_ae_blocks):
                g += h.lambda_ae * g_ae
        if h.lambda_l2 != 0.0:
            loss += float(h.lambda_l2 * (np.sum(W**2) + np.sum(V**2) + np.sum(b_W**2)
                                         + np.sum(b_V**2)))
            c = 2.0 * h.lambda_l2
            for g, block in zip(g_blocks, blocks):
                g += c * block
        grad[-1] = g_bias
        return loss, grad

    return value_and_grad


def autoencoder_objective(X: np.ndarray):
    """``value_and_grad(vec) -> (loss, grad)`` of the reconstruction loss alone
    over the FactorizedParams layout: the mean over the rows of X of
    (1/2N) ||x - b_V - V sigmoid(Wx + b_W)||^2.  The gradient in u and in
    the bias is 0."""
    n = X.shape[1]

    def value_and_grad(vec: np.ndarray):
        loss, g_ae_blocks = _reconstruction(*_factor_views(vec, n)[1:], X)
        grad = np.zeros_like(vec)
        for g, g_ae in zip(_factor_views(grad, n)[1:], g_ae_blocks):
            g[:] = g_ae
        return loss, grad

    return value_and_grad


def lasso_loss(p: LinearParams, d: Dataset, h: HyperParams) -> float:
    """Logistic data term plus smoothed L1 on the weight vector (lambda_en is taken as 1)."""
    return linear_objective(d, replace(h, lambda_en=1.0))(p.to_vector())[0]


def lasso_grad(p: LinearParams, d: Dataset, h: HyperParams) -> LinearParams:
    return p.with_vector(linear_objective(d, replace(h, lambda_en=1.0))(p.to_vector())[1])


def elastic_net_loss(p: LinearParams, d: Dataset, h: HyperParams) -> float:
    """Logistic term plus alpha * (lambda_en * L1 + (1 - lambda_en) * sum theta^2)."""
    return linear_objective(d, h)(p.to_vector())[0]


def elastic_net_grad(p: LinearParams, d: Dataset, h: HyperParams) -> LinearParams:
    return p.with_vector(linear_objective(d, h)(p.to_vector())[1])


def lasso_graph_loss(p: LinearParams, d: Dataset, h: HyperParams, lap: np.ndarray) -> float:
    """Lasso objective with the feature-graph quadratic form added."""
    return linear_objective(d, replace(h, lambda_en=1.0), lap)(p.to_vector())[0]


def lasso_graph_grad(p: LinearParams, d: Dataset, h: HyperParams, lap: np.ndarray) -> LinearParams:
    return p.with_vector(linear_objective(d, replace(h, lambda_en=1.0), lap)(p.to_vector())[1])


def joint_loss(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: np.ndarray | None = None) -> float:
    """Factorized logistic loss jointly regularized by reconstruction.

    Sum of the penalty stack of ``linear_objective`` at theta = W^T u (with a
    Laplacian, its feature-graph quadratic form too), lambda_ae times the
    reconstruction loss over the labeled rows stacked with any augment rows,
    and the encoder/decoder weight decay.
    """
    return joint_objective(d, aug, h, lap)(p.to_vector())[0]


def joint_grad(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: np.ndarray | None = None) -> FactorizedParams:
    """Analytic gradient of ``joint_loss`` for every parameter block."""
    return p.with_vector(joint_objective(d, aug, h, lap)(p.to_vector())[1])
