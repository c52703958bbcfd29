"""Optimizer determinism, convergence, and seeded initialization."""

import copy
import math
import pickle

import numpy as np
import pytest

from stablepred.data import make_dataset
from stablepred.objectives import HyperParams, LinearParams, lasso_grad, lasso_loss
from stablepred.optimizer import (
    NumericalDivergenceError,
    OptimizerConfig,
    init_params,
    minimize,
)


def quadratic(x):
    return float((x[0] - 3.0) ** 2)


def quadratic_grad(x):
    return np.array([2.0 * (x[0] - 3.0)])


def toy_problem(seed=0, m=4, n=3, alpha=0.05):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    d = make_dataset(X, y=y)
    h = HyperParams(alpha=alpha, l1_epsilon=1e-8)
    return d, h


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(40, 5, seed=123)
        b = init_params(40, 5, seed=123)
        assert a.to_vector().tobytes() == b.to_vector().tobytes()

    def test_different_seed_differs(self):
        a = init_params(10, 2, seed=1)
        b = init_params(10, 2, seed=2)
        assert not np.array_equal(a.W, b.W)

    def test_uniform_bound(self):
        p = init_params(100, 10, seed=0)
        bound = math.sqrt(6.0 / 110.0)
        assert np.all(np.abs(p.W) < bound)
        assert np.all(np.abs(p.V) < bound)

    def test_biases_zero(self):
        p = init_params(7, 3, seed=9)
        assert np.all(p.b_W == 0.0) and np.all(p.b_V == 0.0) and p.bias == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            init_params(0, 1, seed=0)


class TestMinimize:
    def test_quadratic_reaches_minimum(self):
        cfg = OptimizerConfig(max_iters=3000, learning_rate=0.05, rel_tol=1e-12, seed=0)
        res = minimize(quadratic, quadratic_grad, np.array([0.0]), cfg)
        assert abs(res.params[0] - 3.0) < 1e-4

    def test_descent_on_convex_toy(self):
        d, h = toy_problem()
        cfg = OptimizerConfig(max_iters=300, learning_rate=0.05, seed=0)
        init = LinearParams(theta=np.zeros(d.n_features), bias=0.0)
        res = minimize(lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init, cfg)
        assert res.final_loss <= res.loss_trace[0]
        assert res.final_loss == res.loss_trace[-1]

    def test_deterministic_repeat(self):
        d, h = toy_problem(seed=5)
        cfg = OptimizerConfig(max_iters=200, learning_rate=0.02, seed=7)
        init = LinearParams(theta=np.zeros(d.n_features), bias=0.0)
        runs = [
            minimize(lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init, cfg)
            for _ in range(2)
        ]
        assert runs[0].params.theta.tobytes() == runs[1].params.theta.tobytes()
        assert runs[0].params.bias == runs[1].params.bias
        assert runs[0].loss_trace == runs[1].loss_trace
        assert runs[0].iterations_used == runs[1].iterations_used
        assert runs[0].converged == runs[1].converged

    def test_converged_flag_matches_rel_tol(self):
        cfg = OptimizerConfig(max_iters=5000, learning_rate=0.05, rel_tol=1e-9, seed=0)
        res = minimize(quadratic, quadratic_grad, np.array([0.0]), cfg)
        assert res.converged
        assert res.iterations_used < 5000
        last, prev = res.loss_trace[-1], res.loss_trace[-2]
        assert abs(last - prev) / max(1.0, abs(prev)) < 1e-9

    def test_non_finite_loss_reports_iteration(self):
        def bad_loss(x):
            return float("inf") if x[0] != 0.0 else 1.0

        cfg = OptimizerConfig(max_iters=50, learning_rate=1.0, seed=0)
        with pytest.raises(NumericalDivergenceError) as exc:
            minimize(bad_loss, lambda x: np.array([1.0]), np.array([0.0]), cfg)
        assert exc.value.iteration == 1

    @pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy])
    def test_divergence_error_survives_pickle_and_copy(self, clone):
        # worker processes send their errors pickled; a clone must keep the iteration
        e = clone(NumericalDivergenceError("bootstrap 3: non-finite loss inf at iteration 7", 7))
        assert type(e) is NumericalDivergenceError
        assert str(e) == "bootstrap 3: non-finite loss inf at iteration 7"
        assert e.iteration == 7

    def test_non_finite_gradient_reports_consuming_iteration(self):
        # the gradient at x_1 is non-finite; step 2 is the one that uses it
        def bad_grad(x):
            return np.array([1.0 if x[0] == 0.0 else np.nan])

        cfg = OptimizerConfig(max_iters=50, learning_rate=1.0, seed=0)
        with pytest.raises(NumericalDivergenceError, match="gradient at iteration 2") as exc:
            minimize(quadratic, bad_grad, np.array([0.0]), cfg)
        assert exc.value.iteration == 2

    def test_non_finite_gradient_never_stepped_with_is_not_reported(self):
        def bad_grad(x):
            return np.array([1.0 if x[0] == 0.0 else np.inf])

        cfg = OptimizerConfig(max_iters=1, learning_rate=1.0, seed=0)
        res = minimize(quadratic, bad_grad, np.array([0.0]), cfg)
        assert res.iterations_used == 1 and not res.converged
        assert len(res.loss_trace) == 2 and res.final_loss > 9.0

    def test_plain_gd_monotone_on_convex(self):
        d, h = toy_problem(seed=2)
        cfg = OptimizerConfig(max_iters=500, learning_rate=1e-4, adaptive=False, seed=0)
        init = LinearParams(theta=np.zeros(d.n_features), bias=0.0)
        res = minimize(lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init, cfg)
        trace = np.array(res.loss_trace)
        assert np.all(np.diff(trace) <= 1e-15)

    def test_longer_run_changes_little_on_convex(self):
        d, h = toy_problem(seed=3, m=30, n=5)
        init = LinearParams(theta=np.zeros(d.n_features), bias=0.0)
        short = minimize(
            lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init,
            OptimizerConfig(max_iters=2000, learning_rate=0.02, rel_tol=1e-10, seed=0),
        )
        long = minimize(
            lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init,
            OptimizerConfig(max_iters=20000, learning_rate=0.02, rel_tol=1e-10, seed=0),
        )
        assert abs(short.final_loss - long.final_loss) < 1e-3

    def test_gradient_norm_small_at_smooth_fixed_point(self):
        # unpenalized, well-conditioned instance: the minimizer is interior
        d, _ = toy_problem(seed=11, m=40, n=3, alpha=0.0)
        h = HyperParams(alpha=0.0)
        init = LinearParams(theta=np.zeros(3), bias=0.0)
        res = minimize(
            lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h), init,
            OptimizerConfig(max_iters=20000, learning_rate=0.05, rel_tol=1e-13, seed=0),
        )
        g = lasso_grad(res.params, d, h).to_vector()
        assert np.linalg.norm(g) < 1e-3

    def test_factorized_gradient_vanishes_at_converged_fixed_point(self):
        # all penalties off, non-separable data: convergence of the
        # factorized logistic fit lands where its gradient is tiny
        from stablepred.objectives import joint_grad, joint_loss
        from stablepred.optimizer import init_params

        d, _ = toy_problem(seed=13, m=60, n=4, alpha=0.0)
        h = HyperParams(alpha=0.0, lambda_ae=0.0, lambda_l2=0.0, hidden_units=2,
                        l1_epsilon=1e-8)
        init = init_params(4, 2, seed=1)
        res = minimize(
            lambda p: joint_loss(p, d, None, h),
            lambda p: joint_grad(p, d, None, h),
            init,
            OptimizerConfig(max_iters=30000, learning_rate=0.02, rel_tol=1e-14, seed=0),
        )
        # V and the encoder biases never receive gradient here; check the
        # live blocks (u, W, bias) against the optimizer's own tolerance
        g = joint_grad(res.params, d, None, h)
        live = np.concatenate([g.u, g.W.ravel(), [g.bias]])
        assert np.linalg.norm(live) < 1e-4


class TestOptimizerConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(rel_tol=0.0)

    @pytest.mark.parametrize("field,value", [
        ("max_iters", math.nan), ("max_iters", 2.5), ("max_iters", 0),
        ("seed", math.nan), ("seed", 2.5), ("seed", -1),
    ])
    def test_integer_settings_rejected(self, field, value):
        # a NaN or fractional max_iters used to fail inside the fit, unlocated
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["learning_rate", "rel_tol"])
    def test_nan_and_inf_rejected(self, field, value):
        # a NaN rel_tol never stops a fit; a config file can carry one (json reads NaN)
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.1"])
    @pytest.mark.parametrize("field", ["learning_rate", "rel_tol"])
    def test_bools_and_strings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite, got {value!r}"):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_adaptive_must_be_a_bool(self, value):
        # "false" is truthy and ran Adam; 0 ran plain steps and was echoed as 0
        with pytest.raises(ValueError, match=f"adaptive must be a bool, got {value!r}"):
            OptimizerConfig(adaptive=value)
