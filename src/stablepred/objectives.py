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
``joint_objective``.  The public ``*_loss``/``*_grad`` functions derive from
these two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .data import Dataset, Laplacian, _require_int, _require_real

__all__ = [
    "LinearParams",
    "FactorizedParams",
    "HyperParams",
    "linear_objective",
    "joint_objective",
    "logistic_loss_linear",
    "lasso_penalty",
    "lasso_loss",
    "lasso_grad",
    "elastic_net_loss",
    "elastic_net_grad",
    "graph_penalty",
    "lasso_graph_loss",
    "lasso_graph_grad",
    "logistic_loss_factorized",
    "logistic_grad_factorized",
    "ae_loss",
    "ae_grad",
    "ae_l2_penalty",
    "joint_loss",
    "joint_grad",
]


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


def _factor_views(vec: np.ndarray, k: int, n: int):
    """u, W, V, b_W, b_V as views into a flat factorized vector (bias is vec[-1])."""
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

    @property
    def n_features(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_units(self) -> int:
        return self.W.shape[0]

    def effective_theta(self) -> np.ndarray:
        return self.W.T @ self.u

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.u, self.W.ravel(), self.V.ravel(), self.b_W, self.b_V, [self.bias]]
        )

    def with_vector(self, vec: np.ndarray) -> "FactorizedParams":
        u, W, V, b_W, b_V = (part.copy() for part in _factor_views(vec, *self.W.shape))
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


def _require_labeled(d: Dataset) -> None:
    if not d.labeled:
        raise ValueError("dataset has no labels")


def _check_laplacian(lap: Laplacian, n: int) -> None:
    if lap.matrix.shape != (n, n):
        raise ValueError(f"Laplacian is {lap.matrix.shape} but theta has {n} entries")


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


def _penalized(d: Dataset, h: HyperParams, lap: Laplacian | None):
    """``f(theta, bias) -> (loss, g_theta, g_bias)``: the penalty stack on theta."""
    _require_labeled(d)
    if lap is not None:
        _check_laplacian(lap, d.n_features)
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
            lap_theta = lap.matrix @ theta
            loss += 0.5 * h.lambda_fg * float(theta @ lap_theta)
            g_theta += h.lambda_fg * lap_theta
        return loss, g_theta, g_bias

    return f


def _ae_forward(W, V, b_W, b_V, X: np.ndarray):
    """Hidden activations, reconstruction residual and reconstruction loss."""
    hidden = expit(X @ W.T + b_W)
    residual = X - b_V - hidden @ V.T
    return hidden, residual, float(np.sum(residual**2) / (2.0 * W.shape[1] * X.shape[0]))


def _ae_backward(V, X: np.ndarray, hidden: np.ndarray, residual: np.ndarray):
    """Gradient of the reconstruction loss in W, V, b_W and b_V."""
    d_resid = residual / (V.shape[0] * X.shape[0])
    d_hidden = -(d_resid @ V)
    d_pre = d_hidden * hidden * (1.0 - hidden)
    return d_pre.T @ X, -(d_resid.T @ hidden), d_pre.sum(axis=0), -d_resid.sum(axis=0)


def _l2_value(lambda_l2: float, W, V, b_W, b_V) -> float:
    return float(lambda_l2 * (np.sum(W**2) + np.sum(V**2) + np.sum(b_W**2) + np.sum(b_V**2)))


def linear_objective(d: Dataset, h: HyperParams, lap: Laplacian | None = None):
    """``value_and_grad(vec) -> (loss, grad)`` over [theta, bias]: lasso and
    elastic-net, or lasso-graph with a Laplacian."""
    f = _penalized(d, h, lap)

    def value_and_grad(vec: np.ndarray):
        loss, g_theta, g_bias = f(vec[:-1], float(vec[-1]))
        return loss, np.append(g_theta, g_bias)

    return value_and_grad


def joint_objective(d: Dataset, aug: np.ndarray | None, h: HyperParams,
                    lap: Laplacian | None = None):
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
        k = (vec.size - n - 1) // (2 * n + 2)  # vec has 2k(n + 1) + n + 1 entries
        u, W, V, b_W, b_V = _factor_views(vec, k, n)
        loss, g_theta, g_bias = f(W.T @ u, float(vec[-1]))
        grad = np.zeros_like(vec)
        g_u, g_W, *g_decoder = _factor_views(grad, k, n)
        # theta = W^T u, so d/du = W g_theta and d/dW = u (x) g_theta.
        g_u[:] = W @ g_theta
        np.outer(u, g_theta, out=g_W)
        g_blocks = (g_W, *g_decoder)
        blocks = (W, V, b_W, b_V)
        if rows is not None:
            hidden, residual, ae = _ae_forward(W, V, b_W, b_V, rows)
            loss += h.lambda_ae * ae
            for g, g_ae in zip(g_blocks, _ae_backward(V, rows, hidden, residual)):
                g += h.lambda_ae * g_ae
        loss += _l2_value(h.lambda_l2, *blocks)
        if h.lambda_l2 != 0.0:
            c = 2.0 * h.lambda_l2
            for g, block in zip(g_blocks, blocks):
                g += c * block
        grad[-1] = g_bias
        return loss, grad

    return value_and_grad


def logistic_loss_linear(p: LinearParams, d: Dataset) -> float:
    """Mean logistic loss (1/M) sum log(1 + exp(-y (theta.x + bias)))."""
    _require_labeled(d)
    return _logistic(d.X, d.y, p.theta, p.bias)[0]


def lasso_penalty(theta: np.ndarray, alpha: float, eps: float) -> float:
    """Smoothed L1 penalty alpha * sum sqrt(theta_i^2 + eps)."""
    _require_real("alpha", alpha, 0.0)
    _require_real("eps", eps, 0.0, strict=True)
    return _l1(theta, alpha, eps)[0]


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


def graph_penalty(theta: np.ndarray, lap: Laplacian, lambda_fg: float) -> float:
    """Quadratic form (lambda_fg / 2) theta^T L theta over the feature graph."""
    _check_laplacian(lap, theta.size)
    return 0.5 * lambda_fg * float(theta @ (lap.matrix @ theta))


def lasso_graph_loss(p: LinearParams, d: Dataset, h: HyperParams, lap: Laplacian) -> float:
    """Lasso objective with the feature-graph quadratic form added."""
    return linear_objective(d, replace(h, lambda_en=1.0), lap)(p.to_vector())[0]


def lasso_graph_grad(p: LinearParams, d: Dataset, h: HyperParams, lap: Laplacian) -> LinearParams:
    return p.with_vector(linear_objective(d, replace(h, lambda_en=1.0), lap)(p.to_vector())[1])


def logistic_loss_factorized(p: FactorizedParams, d: Dataset) -> float:
    """Mean logistic loss of the factorized predictor u^T W x + bias.

    Identical to the linear loss evaluated at theta = W^T u.
    """
    _require_labeled(d)
    return _logistic(d.X, d.y, p.effective_theta(), p.bias)[0]


def logistic_grad_factorized(p: FactorizedParams, d: Dataset) -> FactorizedParams:
    """Gradient of ``logistic_loss_factorized``: ``joint_objective`` with every penalty off."""
    h = HyperParams(alpha=0.0, hidden_units=p.hidden_units)
    return p.with_vector(joint_objective(d, None, h)(p.to_vector())[1])


def ae_loss(p: FactorizedParams, X: np.ndarray) -> float:
    """Mean reconstruction error (1/2N) ||x - b_V - V sigmoid(Wx + b_W)||^2.

    Averaged over the rows of X.
    """
    if X.shape[1] != p.n_features:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {p.n_features}")
    return _ae_forward(p.W, p.V, p.b_W, p.b_V, X)[2]


def ae_grad(p: FactorizedParams, X: np.ndarray) -> FactorizedParams:
    if X.shape[1] != p.n_features:
        raise ValueError(f"X has {X.shape[1]} columns, model expects {p.n_features}")
    hidden, residual, _ = _ae_forward(p.W, p.V, p.b_W, p.b_V, X)
    g_W, g_V, g_bW, g_bV = _ae_backward(p.V, X, hidden, residual)
    return FactorizedParams(u=np.zeros_like(p.u), W=g_W, V=g_V, b_W=g_bW, b_V=g_bV, bias=0.0)


def ae_l2_penalty(p: FactorizedParams, lambda_l2: float) -> float:
    """Weight decay lambda_l2 * (||W||_F^2 + ||V||_F^2 + ||b_W||^2 + ||b_V||^2).

    u and the predictor bias are not penalized.
    """
    _require_real("lambda_l2", lambda_l2, 0.0)
    return _l2_value(lambda_l2, p.W, p.V, p.b_W, p.b_V)


def joint_loss(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: Laplacian | None = None) -> float:
    """Factorized logistic loss jointly regularized by reconstruction.

    Sum of the penalty stack of ``linear_objective`` at theta = W^T u (with a
    Laplacian, its feature-graph quadratic form too), lambda_ae times the
    reconstruction loss over the labeled rows stacked with any augment rows,
    and the encoder/decoder weight decay.
    """
    return joint_objective(d, aug, h, lap)(p.to_vector())[0]


def joint_grad(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: Laplacian | None = None) -> FactorizedParams:
    """Analytic gradient of ``joint_loss`` for every parameter block."""
    return p.with_vector(joint_objective(d, aug, h, lap)(p.to_vector())[1])
