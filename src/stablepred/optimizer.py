"""Seeded initialization and deterministic full-batch first-order minimization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _require_int, _require_real
from .objectives import FactorizedParams

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "NumericalDivergenceError",
    "init_params",
    "minimize",
]

_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


class NumericalDivergenceError(RuntimeError):
    """Raised when a loss or gradient turns non-finite during a fit."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration

    def __reduce__(self):
        # the default rebuilds from ``args`` alone, which lack ``iteration``;
        # worker processes send their errors to the parent pickled
        return type(self), (str(self), self.iteration)


@dataclass(frozen=True)
class OptimizerConfig:
    """Full-batch descent settings.

    With ``adaptive`` on, steps use per-coordinate running first/second
    moment estimates (decay 0.9/0.999, offset 1e-8); otherwise plain
    gradient steps of size ``learning_rate``.  Fitting stops once the
    relative loss change drops below ``rel_tol``.
    """

    max_iters: int = 2000
    learning_rate: float = 0.01
    adaptive: bool = True
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _require_int("max_iters", self.max_iters, 1)
        _require_real("learning_rate", self.learning_rate, 0.0, strict=True)
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be a bool, got {self.adaptive!r}")
        _require_real("rel_tol", self.rel_tol, 0.0, strict=True)
        _require_int("seed", self.seed, 0)


@dataclass(eq=False)
class FitResult:
    params: np.ndarray
    final_loss: float
    iterations_used: int
    converged: bool
    loss_trace: list[float]


def init_params(n: int, k: int, seed: int) -> FactorizedParams:
    """Seeded starting point: W, V uniform in (-s, s) with s = sqrt(6/(n+k)),
    u normal with standard deviation 0.01, all biases zero.

    Draw order is W, then V, then u; the same seed reproduces the same
    parameters bit for bit.
    """
    _require_int("n", n, 1)
    _require_int("k", k, 1)
    rng = np.random.default_rng(seed)
    s = math.sqrt(6.0 / (n + k))
    W = rng.uniform(-s, s, (k, n))
    V = rng.uniform(-s, s, (n, k))
    u = rng.normal(0.0, 0.01, k)
    return FactorizedParams(
        u=u,
        W=W,
        V=V,
        b_W=np.zeros(k),
        b_V=np.zeros(n),
        bias=0.0,
    )


def minimize(value_and_grad, x0: np.ndarray, cfg: OptimizerConfig) -> FitResult:
    """Minimize from the flat vector ``x0``; ``params`` of the result is the final vector.

    ``value_and_grad(x)`` returns the loss and its gradient at ``x`` from one
    evaluation.  Raises NumericalDivergenceError if a loss turns non-finite
    (at the iteration that produced it) or a gradient does (at the iteration
    that would step with it).
    """
    x = np.array(x0, dtype=float)
    loss, g = value_and_grad(x)
    if not math.isfinite(loss):
        raise NumericalDivergenceError(f"non-finite loss {loss} at iteration 0", 0)
    trace = [loss]

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    converged = False
    iterations = 0

    for t in range(1, cfg.max_iters + 1):
        if not np.all(np.isfinite(g)):
            raise NumericalDivergenceError(f"non-finite gradient at iteration {t}", t)
        if cfg.adaptive:
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            m_hat = m / (1.0 - _BETA1**t)
            v_hat = v / (1.0 - _BETA2**t)
            x = x - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        else:
            x = x - cfg.learning_rate * g
        loss, g = value_and_grad(x)
        if not math.isfinite(loss):
            raise NumericalDivergenceError(f"non-finite loss {loss} at iteration {t}", t)
        trace.append(loss)
        iterations = t
        if abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.rel_tol:
            converged = True
            break

    return FitResult(
        params=x,
        final_loss=trace[-1],
        iterations_used=iterations,
        converged=converged,
        loss_trace=trace,
    )
