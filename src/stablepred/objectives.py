"""Loss functions and analytic gradients for sparse linear prediction.

All data terms are averaged over samples (1/M), so penalty weights keep
their meaning across cohort sizes.  The L1 term uses the smooth surrogate
sqrt(t^2 + eps) throughout, which keeps every objective differentiable.
The bias enters the linear predictor but no penalty.

Each model family has one fused ``value_and_grad(vec) -> (loss, grad)``
over the flat ``to_vector()`` layout of its parameters, built once per fit by
``lasso_objective``, ``elastic_net_objective`` or ``joint_objective``.  The
public ``*_loss``/``*_grad`` functions are derived from the same term code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset, Laplacian

__all__ = [
    "LinearParams",
    "FactorizedParams",
    "HyperParams",
    "lasso_objective",
    "elastic_net_objective",
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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 <= self.lambda_en <= 1.0:
            raise ValueError("lambda_en must lie in [0, 1]")
        if self.lambda_fg < 0 or self.lambda_ae < 0 or self.lambda_l2 < 0:
            raise ValueError("penalty weights must be >= 0")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be a positive integer")
        if self.l1_epsilon <= 0:
            raise ValueError("l1_epsilon must be > 0")


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


def _graph(theta: np.ndarray, lap: Laplacian, lambda_fg: float):
    return float(0.5 * lambda_fg * theta @ lap.matrix @ theta), lambda_fg * (lap.matrix @ theta)


def _elastic_net(theta: np.ndarray, h: HyperParams):
    l1, g_l1 = _l1(theta, 1.0, h.l1_epsilon)
    l2 = float(np.sum(theta**2))
    value = h.alpha * (h.lambda_en * l1 + (1.0 - h.lambda_en) * l2)
    return value, h.alpha * (h.lambda_en * g_l1 + (1.0 - h.lambda_en) * 2.0 * theta)


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


def _linear_objective(d: Dataset, *terms):
    """value_and_grad over [theta, bias]: logistic term plus ``terms`` in order."""
    _require_labeled(d)
    X, y = d.X, d.y

    def value_and_grad(vec: np.ndarray):
        theta = vec[:-1]
        loss, g_theta, g_bias = _logistic(X, y, theta, float(vec[-1]))
        for term in terms:
            value, grad = term(theta)
            loss += value
            g_theta += grad
        return loss, np.append(g_theta, g_bias)

    return value_and_grad


def lasso_objective(d: Dataset, h: HyperParams, lap: Laplacian | None = None):
    """Fused ``lasso_loss``/``lasso_grad``; with a Laplacian, ``lasso_graph_*``."""
    terms = [lambda theta: _l1(theta, h.alpha, h.l1_epsilon)]
    if lap is not None:
        _check_laplacian(lap, d.n_features)
        terms.append(lambda theta: _graph(theta, lap, h.lambda_fg))
    return _linear_objective(d, *terms)


def elastic_net_objective(d: Dataset, h: HyperParams):
    """Fused ``elastic_net_loss``/``elastic_net_grad``."""
    return _linear_objective(d, lambda theta: _elastic_net(theta, h))


def joint_objective(d: Dataset, aug: np.ndarray | None, h: HyperParams,
                    lap: Laplacian | None = None):
    """Fused ``joint_loss``/``joint_grad`` over the FactorizedParams layout.

    The labeled and augment rows are stacked once here, not per call.
    """
    _require_labeled(d)
    _validate_augment(d, aug)
    if lap is not None:
        _check_laplacian(lap, d.n_features)
    X, y, n = d.X, d.y, d.n_features
    rows = None
    if h.lambda_ae != 0.0:
        rows = X if aug is None else np.vstack([X, aug])

    def value_and_grad(vec: np.ndarray):
        k = (vec.size - n - 1) // (2 * n + 2)  # vec has 2k(n + 1) + n + 1 entries
        u, W, V, b_W, b_V = _factor_views(vec, k, n)
        theta = W.T @ u
        loss, g_theta, g_bias = _logistic(X, y, theta, float(vec[-1]))
        l1, g_l1 = _l1(theta, h.alpha, h.l1_epsilon)
        loss += l1
        g_theta += g_l1
        if lap is not None:
            graph, g_graph = _graph(theta, lap, h.lambda_fg)
            g_theta += g_graph

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
        if lap is not None:
            loss += graph
        grad[-1] = g_bias
        return loss, grad

    return value_and_grad


def logistic_loss_linear(p: LinearParams, d: Dataset) -> float:
    """Mean logistic loss (1/M) sum log(1 + exp(-y (theta.x + bias)))."""
    _require_labeled(d)
    return _logistic(d.X, d.y, p.theta, p.bias)[0]


def lasso_penalty(theta: np.ndarray, alpha: float, eps: float) -> float:
    """Smoothed L1 penalty alpha * sum sqrt(theta_i^2 + eps)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    return _l1(theta, alpha, eps)[0]


def lasso_loss(p: LinearParams, d: Dataset, h: HyperParams) -> float:
    """Logistic data term plus smoothed L1 on the weight vector."""
    return lasso_objective(d, h)(p.to_vector())[0]


def lasso_grad(p: LinearParams, d: Dataset, h: HyperParams) -> LinearParams:
    return p.with_vector(lasso_objective(d, h)(p.to_vector())[1])


def elastic_net_loss(p: LinearParams, d: Dataset, h: HyperParams) -> float:
    """Logistic term plus alpha * (lambda_en * L1 + (1 - lambda_en) * sum theta^2)."""
    return elastic_net_objective(d, h)(p.to_vector())[0]


def elastic_net_grad(p: LinearParams, d: Dataset, h: HyperParams) -> LinearParams:
    return p.with_vector(elastic_net_objective(d, h)(p.to_vector())[1])


def graph_penalty(theta: np.ndarray, lap: Laplacian, lambda_fg: float) -> float:
    """Quadratic form (lambda_fg / 2) theta^T L theta over the feature graph."""
    _check_laplacian(lap, theta.size)
    return _graph(theta, lap, lambda_fg)[0]


def lasso_graph_loss(p: LinearParams, d: Dataset, h: HyperParams, lap: Laplacian) -> float:
    """Lasso objective with the feature-graph quadratic form added."""
    return lasso_objective(d, h, lap)(p.to_vector())[0]


def lasso_graph_grad(p: LinearParams, d: Dataset, h: HyperParams, lap: Laplacian) -> LinearParams:
    return p.with_vector(lasso_objective(d, h, lap)(p.to_vector())[1])


def logistic_loss_factorized(p: FactorizedParams, d: Dataset) -> float:
    """Mean logistic loss of the factorized predictor u^T W x + bias.

    Identical to the linear loss evaluated at theta = W^T u.
    """
    _require_labeled(d)
    return _logistic(d.X, d.y, p.effective_theta(), p.bias)[0]


def logistic_grad_factorized(p: FactorizedParams, d: Dataset) -> FactorizedParams:
    _require_labeled(d)
    _, g_theta, g_bias = _logistic(d.X, d.y, p.effective_theta(), p.bias)
    return FactorizedParams(
        u=p.W @ g_theta,
        W=np.outer(p.u, g_theta),
        V=np.zeros_like(p.V),
        b_W=np.zeros_like(p.b_W),
        b_V=np.zeros_like(p.b_V),
        bias=g_bias,
    )


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
    if lambda_l2 < 0:
        raise ValueError("lambda_l2 must be >= 0")
    return _l2_value(lambda_l2, p.W, p.V, p.b_W, p.b_V)


def joint_loss(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: Laplacian | None = None) -> float:
    """Factorized logistic loss jointly regularized by reconstruction.

    Sum of the factorized logistic term, the smoothed L1 on theta = W^T u,
    lambda_ae times the reconstruction loss over the labeled rows stacked
    with any augment rows, the encoder/decoder weight decay, and (when a
    Laplacian is given) the feature-graph quadratic form on theta.
    """
    return joint_objective(d, aug, h, lap)(p.to_vector())[0]


def joint_grad(p: FactorizedParams, d: Dataset, aug: np.ndarray | None, h: HyperParams,
               lap: Laplacian | None = None) -> FactorizedParams:
    """Analytic gradient of ``joint_loss`` for every parameter block."""
    return p.with_vector(joint_objective(d, aug, h, lap)(p.to_vector())[1])
