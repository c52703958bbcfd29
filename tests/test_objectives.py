"""Loss values against hand-derived oracles; gradients against finite differences."""

import math

import numpy as np
import pytest
from scipy.special import expit

from stablepred.data import FeatureGraph, Laplacian, build_laplacian, make_dataset
from stablepred.objectives import (
    FactorizedParams,
    HyperParams,
    LinearParams,
    ae_grad,
    ae_l2_penalty,
    ae_loss,
    elastic_net_grad,
    elastic_net_loss,
    graph_penalty,
    joint_grad,
    joint_loss,
    lasso_grad,
    lasso_graph_grad,
    lasso_graph_loss,
    lasso_loss,
    lasso_penalty,
    logistic_grad_factorized,
    logistic_loss_factorized,
    logistic_loss_linear,
)


def finite_difference(fun, x, step=1e-5):
    """Central-difference gradient, the oracle for every analytic gradient."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return g


def max_rel_err(analytic, numeric):
    scale = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def random_instance(seed, m=20, n=12, k=3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    d = make_dataset(X, y=y)
    aug = rng.standard_normal((m // 2, n))
    lp = LinearParams(theta=rng.standard_normal(n), bias=float(rng.standard_normal()))
    fp = FactorizedParams(
        u=rng.standard_normal(k),
        W=0.4 * rng.standard_normal((k, n)),
        V=0.4 * rng.standard_normal((n, k)),
        b_W=0.1 * rng.standard_normal(k),
        b_V=0.1 * rng.standard_normal(n),
        bias=float(rng.standard_normal()),
    )
    edges = []
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False)
        edges.append((d.feature_names[i], d.feature_names[j], float(rng.random())))
    lap = build_laplacian(FeatureGraph(edges=tuple(edges)), d.feature_names)
    h = HyperParams(
        alpha=0.1 + 0.4 * rng.random(),
        lambda_en=rng.random(),
        lambda_fg=0.2 + rng.random(),
        lambda_ae=0.5 + 2.0 * rng.random(),
        lambda_l2=0.01 + 0.1 * rng.random(),
        hidden_units=k,
        l1_epsilon=1e-6,
    )
    return d, aug, lp, fp, lap, h


class TestLogisticLossLinear:
    def test_zero_params_any_data(self):
        d = make_dataset(np.array([[1.0, -2.0], [0.5, 3.0]]), y=[1, -1])
        loss = logistic_loss_linear(LinearParams(theta=np.zeros(2)), d)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_sample_positive(self):
        d = make_dataset(np.array([[2.0]]), y=[1])
        loss = logistic_loss_linear(LinearParams(theta=np.array([1.0])), d)
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)

    def test_single_sample_negative(self):
        d = make_dataset(np.array([[2.0]]), y=[-1])
        loss = logistic_loss_linear(LinearParams(theta=np.array([1.0])), d)
        assert loss == pytest.approx(math.log(1.0 + math.exp(2.0)), abs=1e-12)

    def test_unlabeled_rejected(self):
        d = make_dataset(np.ones((2, 1)))
        with pytest.raises(ValueError, match="labels"):
            logistic_loss_linear(LinearParams(theta=np.zeros(1)), d)


class TestLassoPenalty:
    def test_zero_theta(self):
        assert lasso_penalty(np.zeros(4), 2.0, 1e-16) == pytest.approx(2.0 * 4 * 1e-8, abs=1e-12)

    def test_approaches_exact_l1(self):
        assert lasso_penalty(np.array([3.0, -4.0]), 1.0, 1e-12) == pytest.approx(7.0, abs=1e-6)

    def test_smoothing_error_bound(self):
        # sqrt(1 + 1e-16) - 1 <= 1e-8
        diff = lasso_penalty(np.array([1.0]), 1.0, 1e-16) - 1.0
        assert 0.0 <= diff <= 1e-8

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            lasso_penalty(np.ones(2), 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_and_inf_alpha_rejected(self, value):
        # a NaN alpha returned nan and an infinite one inf
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            lasso_penalty(np.ones(2), value, 1e-8)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_and_inf_eps_rejected(self, value):
        with pytest.raises(ValueError, match="eps must be > 0"):
            lasso_penalty(np.ones(2), 1.0, value)


class TestElasticNet:
    def test_reduces_to_lasso_at_one(self):
        d = make_dataset(np.array([[1.0, 2.0], [3.0, -1.0]]), y=[1, -1])
        p = LinearParams(theta=np.array([0.5, -0.25]), bias=0.1)
        h = HyperParams(alpha=0.7, lambda_en=1.0, l1_epsilon=1e-10)
        assert elastic_net_loss(p, d, h) == pytest.approx(lasso_loss(p, d, h), abs=1e-14)

    def test_pure_ridge_at_zero(self):
        d = make_dataset(np.array([[1.0, 2.0]]), y=[1])
        p = LinearParams(theta=np.array([1.0, 2.0]))
        h = HyperParams(alpha=0.5, lambda_en=0.0)
        expected = logistic_loss_linear(p, d) + 0.5 * 5.0
        assert elastic_net_loss(p, d, h) == pytest.approx(expected, abs=1e-12)

    def test_alpha_zero_is_pure_logistic(self):
        d = make_dataset(np.array([[1.0, 2.0]]), y=[-1])
        p = LinearParams(theta=np.array([0.3, -0.6]), bias=0.2)
        h = HyperParams(alpha=0.0, lambda_en=0.5)
        assert elastic_net_loss(p, d, h) == logistic_loss_linear(p, d)

    def test_lambda_en_out_of_range(self):
        with pytest.raises(ValueError, match="lambda_en"):
            HyperParams(lambda_en=1.5)


class TestHyperParams:
    MESSAGES = {
        "alpha": "alpha must be >= 0",
        "lambda_fg": "lambda_fg must be >= 0",
        "lambda_ae": "lambda_ae must be >= 0",
        "lambda_l2": "lambda_l2 must be >= 0",
        "l1_epsilon": "l1_epsilon must be > 0",
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", MESSAGES)
    def test_nan_and_inf_rejected(self, field, value):
        with pytest.raises(ValueError, match=self.MESSAGES[field]):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("value", [True, "0.1"])
    @pytest.mark.parametrize("field", [*MESSAGES, "lambda_en"])
    def test_bools_and_strings_rejected_with_the_field_name(self, field, value):
        # True used to count as 1, and "0.1" failed with an unnamed TypeError
        with pytest.raises(ValueError, match=f"{field} must be .* got {value!r}"):
            HyperParams(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, 2.5, 0, True])
    def test_hidden_units_must_be_a_positive_integer(self, value):
        # NaN used to construct and fail inside the fit's initialization
        with pytest.raises(ValueError, match="hidden_units must be an integer >= 1"):
            HyperParams(hidden_units=value)


class TestGraphPenalty:
    def test_constant_theta_connected_graph(self):
        lap = build_laplacian(
            FeatureGraph(edges=(("a", "b", 1.0), ("b", "c", 2.0))), ["a", "b", "c"]
        )
        assert graph_penalty(np.full(3, 2.5), lap, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_value(self):
        lap = Laplacian(matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert graph_penalty(np.array([1.0, 0.0]), lap, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight(self):
        lap = Laplacian(matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert graph_penalty(np.array([5.0, -3.0]), lap, 0.0) == 0.0

    def test_dimension_mismatch(self):
        lap = Laplacian(matrix=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="Laplacian"):
            graph_penalty(np.zeros(2), lap, 1.0)

    def test_matches_edge_sum_oracle(self):
        # (lambda/2) * theta' L theta == (lambda/2) * sum_ij w_ij (theta_i - theta_j)^2
        rng = np.random.default_rng(12)
        names = [f"f{i}" for i in range(8)]
        edges = []
        for _ in range(20):
            i, j = rng.choice(8, size=2, replace=False)
            edges.append((names[i], names[j], float(rng.random())))
        lap = build_laplacian(FeatureGraph(edges=tuple(edges)), names)
        theta = rng.standard_normal(8)
        lam = 1.7
        direct = 0.5 * lam * sum(w * (theta[names.index(a)] - theta[names.index(b)]) ** 2
                                 for a, b, w in edges)
        assert graph_penalty(theta, lap, lam) == pytest.approx(direct, rel=1e-12)


class TestFactorizedLogistic:
    def test_zero_u_gives_log_two(self):
        d = make_dataset(np.array([[1.0, 2.0], [0.1, -0.3]]), y=[1, -1])
        p = FactorizedParams(
            u=np.zeros(2), W=np.ones((2, 2)), V=np.zeros((2, 2)),
            b_W=np.zeros(2), b_V=np.zeros(2),
        )
        assert logistic_loss_factorized(p, d) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_reduces_to_linear_example(self):
        d = make_dataset(np.array([[2.0, 0.0]]), y=[1])
        p = FactorizedParams(
            u=np.array([1.0]), W=np.array([[1.0, 0.0]]), V=np.zeros((2, 1)),
            b_W=np.zeros(1), b_V=np.zeros(2),
        )
        assert logistic_loss_factorized(p, d) == pytest.approx(
            math.log(1.0 + math.exp(-2.0)), abs=1e-12
        )

    def test_agrees_with_linear_at_effective_theta(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.standard_normal((15, 6)), y=np.sign(rng.standard_normal(15)))
        p = FactorizedParams(
            u=rng.standard_normal(2), W=rng.standard_normal((2, 6)),
            V=rng.standard_normal((6, 2)), b_W=rng.standard_normal(2),
            b_V=rng.standard_normal(6), bias=0.4,
        )
        linear = logistic_loss_linear(LinearParams(theta=p.effective_theta(), bias=p.bias), d)
        assert abs(logistic_loss_factorized(p, d) - linear) <= 1e-12

    @staticmethod
    def chain_rule_oracle(p, d):
        """The hand-written theta = W^T u chain rule ``logistic_grad_factorized`` once held."""
        margins = d.y * (d.X @ p.effective_theta() + p.bias)
        resid = -d.y * expit(-margins) / d.X.shape[0]
        g_theta = d.X.T @ resid
        return FactorizedParams(
            u=p.W @ g_theta, W=np.outer(p.u, g_theta), V=np.zeros_like(p.V),
            b_W=np.zeros_like(p.b_W), b_V=np.zeros_like(p.b_V), bias=float(resid.sum()),
        )

    def test_grad_derived_from_joint_objective_keeps_bytes(self):
        for seed in range(200):
            d, _, _, fp, _, _ = random_instance(seed)
            got = logistic_grad_factorized(fp, d).to_vector()
            assert got.tobytes() == self.chain_rule_oracle(fp, d).to_vector().tobytes(), seed

    def test_prediction_invariant_under_rescaling(self):
        # (u, W) -> (c u, W / c) leaves the data term unchanged
        rng = np.random.default_rng(4)
        d = make_dataset(rng.standard_normal((10, 5)), y=np.sign(rng.standard_normal(10)))
        p = FactorizedParams(
            u=rng.standard_normal(3), W=rng.standard_normal((3, 5)),
            V=np.zeros((5, 3)), b_W=np.zeros(3), b_V=np.zeros(5), bias=0.2,
        )
        c = 3.7
        q = FactorizedParams(u=c * p.u, W=p.W / c, V=p.V, b_W=p.b_W, b_V=p.b_V, bias=p.bias)
        assert logistic_loss_factorized(q, d) == pytest.approx(
            logistic_loss_factorized(p, d), rel=1e-12
        )


class TestAutoencoderLoss:
    def test_zero_params_give_mean_squared_norm(self):
        X = np.array([[1.0, 2.0], [3.0, -1.0]])
        p = FactorizedParams(
            u=np.zeros(1), W=np.zeros((1, 2)), V=np.zeros((2, 1)),
            b_W=np.zeros(1), b_V=np.zeros(2),
        )
        expected = np.mean([np.sum(row**2) / 4.0 for row in X])
        assert ae_loss(p, X) == pytest.approx(expected, abs=1e-14)

    def test_exact_reconstruction(self):
        # sigmoid(0) = 0.5, decoder weight 2 rebuilds x = 1 exactly
        p = FactorizedParams(
            u=np.zeros(1), W=np.zeros((1, 1)), V=np.array([[2.0]]),
            b_W=np.zeros(1), b_V=np.zeros(1),
        )
        assert ae_loss(p, np.array([[1.0]])) == pytest.approx(0.0, abs=1e-14)

    def test_decoder_bias_handles_constant_data(self):
        X = np.full((5, 3), 4.0)
        p = FactorizedParams(
            u=np.zeros(2), W=np.zeros((2, 3)), V=np.zeros((3, 2)),
            b_W=np.zeros(2), b_V=np.full(3, 4.0),
        )
        assert ae_loss(p, X) == pytest.approx(0.0, abs=1e-14)


class TestAeL2Penalty:
    def make(self, W, V):
        k, n = W.shape
        return FactorizedParams(u=np.ones(k), W=W, V=V, b_W=np.zeros(k), b_V=np.zeros(n))

    def test_zero_params(self):
        p = self.make(np.zeros((1, 2)), np.zeros((2, 1)))
        assert ae_l2_penalty(p, 3.0) == 0.0

    def test_simple_value(self):
        p = self.make(np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]))
        assert ae_l2_penalty(p, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_u_does_not_contribute(self):
        p = self.make(np.ones((1, 2)), np.ones((2, 1)))
        q = FactorizedParams(u=7.0 * p.u, W=p.W, V=p.V, b_W=p.b_W, b_V=p.b_V)
        assert ae_l2_penalty(p, 1.3) == ae_l2_penalty(q, 1.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_weight_rejected(self, value):
        p = self.make(np.ones((1, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="lambda_l2 must be >= 0"):
            ae_l2_penalty(p, value)


class TestJointLoss:
    def test_additivity_reduces_to_factorized_lasso(self):
        d, aug, _, fp, _, _ = random_instance(0)
        h = HyperParams(alpha=0.3, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3, l1_epsilon=1e-8)
        expected = logistic_loss_factorized(fp, d) + lasso_penalty(
            fp.effective_theta(), 0.3, 1e-8
        )
        assert joint_loss(fp, d, None, h) == pytest.approx(expected, abs=1e-14)

    def test_all_penalties_zero_gives_pure_logistic(self):
        d, _, _, fp, _, _ = random_instance(1)
        h = HyperParams(alpha=0.0, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3, l1_epsilon=1e-8)
        loss = joint_loss(fp, d, None, h)
        # only the smoothing residue of the zero-alpha L1 term remains: none
        assert loss == pytest.approx(logistic_loss_factorized(fp, d), abs=1e-12)

    def test_augment_inactive_when_lambda_ae_zero(self):
        d, aug, _, fp, _, _ = random_instance(2)
        h = HyperParams(alpha=0.2, lambda_ae=0.0, lambda_l2=0.05, hidden_units=3)
        assert joint_loss(fp, d, aug, h) == joint_loss(fp, d, None, h)

    def test_misaligned_augment_rejected(self):
        d, aug, _, fp, _, h = random_instance(3)
        with pytest.raises(ValueError, match="augment"):
            joint_loss(fp, d, aug[:, :-1], h)

    def test_identity_with_linear_lasso_at_effective_theta(self):
        # joint loss with all structural penalties off equals the linear
        # lasso objective evaluated at theta = W^T u, exactly
        for seed in range(50):
            d, _, _, fp, _, _ = random_instance(seed)
            h = HyperParams(alpha=0.25, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3)
            linear = lasso_loss(LinearParams(theta=fp.effective_theta(), bias=fp.bias), d, h)
            assert abs(joint_loss(fp, d, None, h) - linear) <= 1e-12


def loss_grad_pairs(d, aug, lap, h):
    """The seven objective/gradient pairs under test."""
    return [
        ("lasso", "linear", lambda p: lasso_loss(p, d, h), lambda p: lasso_grad(p, d, h)),
        ("elastic-net", "linear", lambda p: elastic_net_loss(p, d, h),
         lambda p: elastic_net_grad(p, d, h)),
        ("lasso-graph", "linear", lambda p: lasso_graph_loss(p, d, h, lap),
         lambda p: lasso_graph_grad(p, d, h, lap)),
        ("factorized-logistic", "factorized", lambda p: logistic_loss_factorized(p, d),
         lambda p: logistic_grad_factorized(p, d)),
        ("autoencoder", "factorized", lambda p: ae_loss(p, d.X), lambda p: ae_grad(p, d.X)),
        ("joint", "factorized", lambda p: joint_loss(p, d, aug, h),
         lambda p: joint_grad(p, d, aug, h)),
        ("joint-graph", "factorized", lambda p: joint_loss(p, d, aug, h, lap),
         lambda p: joint_grad(p, d, aug, h, lap)),
    ]


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_all_blocks_match_finite_differences(self, seed):
        d, aug, lp, fp, lap, h = random_instance(seed)
        for name, kind, lossf, gradf in loss_grad_pairs(d, aug, lap, h):
            p0 = lp if kind == "linear" else fp
            fun = lambda v: lossf(p0.with_vector(v))  # noqa: B023
            analytic = gradf(p0).to_vector()
            numeric = finite_difference(fun, p0.to_vector())
            err = max_rel_err(analytic, numeric)
            assert err <= 1e-4, f"{name}: max relative error {err:.3e}"

    def test_decoder_gradient_zero_without_ae_terms(self):
        d, aug, _, fp, lap, _ = random_instance(7)
        h = HyperParams(alpha=0.3, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3)
        g = joint_grad(fp, d, aug, h)
        np.testing.assert_array_equal(g.V, np.zeros_like(fp.V))
        np.testing.assert_array_equal(g.b_W, np.zeros_like(fp.b_W))
        np.testing.assert_array_equal(g.b_V, np.zeros_like(fp.b_V))


class TestPenaltySwitches:
    def test_each_penalty_vanishes_at_zero_weight(self):
        d, aug, lp, fp, lap, _ = random_instance(9)
        h0 = HyperParams(alpha=0.0, lambda_en=1.0, lambda_fg=0.0, lambda_ae=0.0,
                         lambda_l2=0.0, hidden_units=3)
        assert lasso_loss(lp, d, h0) == logistic_loss_linear(lp, d)
        assert lasso_graph_loss(lp, d, h0, lap) == logistic_loss_linear(lp, d)
        assert ae_l2_penalty(fp, 0.0) == 0.0
        assert graph_penalty(lp.theta, lap, 0.0) == 0.0

    def test_losses_nonnegative(self):
        for seed in range(5):
            d, aug, lp, fp, lap, h = random_instance(seed)
            assert logistic_loss_linear(lp, d) > 0
            assert lasso_loss(lp, d, h) > 0
            assert ae_loss(fp, d.X) >= 0
            assert ae_l2_penalty(fp, h.lambda_l2) >= 0
            assert joint_loss(fp, d, aug, h, lap) > 0
