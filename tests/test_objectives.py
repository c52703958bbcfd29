"""Loss values against hand-derived oracles; gradients against finite differences."""

import math
from dataclasses import replace
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
import scipy.special
from scipy.special import expit

from stablepred import objectives
from stablepred.data import FeatureGraph, build_laplacian, make_dataset
from stablepred.objectives import (
    FactorizedParams,
    HyperParams,
    LinearParams,
    _l1,
    _logistic,
    autoencoder_objective,
    elastic_net_loss,
    joint_grad,
    joint_loss,
    joint_objective,
    lasso_graph_loss,
    lasso_loss,
    linear_objective,
)

from conftest import same_bits


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


def logistic_loss(p, d) -> float:
    """The mean logistic loss alone, from the private term no builder's penalty touches."""
    theta = p.theta if isinstance(p, LinearParams) else p.effective_theta()
    return _logistic(d.X, d.y, theta, p.bias)[0]


def zero_cohort(n):
    """One labeled all-zero row, on which the logistic term is log 2 at bias 0."""
    return make_dataset(np.zeros((1, n)), y=[1])


def graph_term(theta, lap, lambda_fg) -> float:
    """(lambda_fg / 2) theta^T L theta as ``linear_objective`` adds it: its loss
    with the Laplacian minus its loss without."""
    d, h = zero_cohort(theta.size), HyperParams(alpha=0.0, lambda_fg=lambda_fg)
    vec = np.append(theta, 0.0)
    return linear_objective(d, h, lap)(vec)[0] - linear_objective(d, h)(vec)[0]


def weight_decay(p: FactorizedParams, lambda_l2) -> float:
    """The encoder/decoder weight decay as ``joint_objective`` adds it: its loss
    at ``lambda_l2`` minus its loss at 0."""
    d, vec = zero_cohort(p.W.shape[1]), p.to_vector()
    on = joint_objective(d, None, HyperParams(alpha=0.0, lambda_l2=lambda_l2))(vec)[0]
    return on - joint_objective(d, None, HyperParams(alpha=0.0))(vec)[0]


def ae_loss(p: FactorizedParams, X) -> float:
    """The mean reconstruction loss over the rows of X."""
    return autoencoder_objective(X)(p.to_vector())[0]


class TestExpitLoader:
    def test_same_bits_as_scipy_special(self):
        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                 745.0, -745.0, 1e308, -1e308]
        x = np.concatenate([edges, np.random.default_rng(0).normal(0.0, 30.0, 10**6)])
        # compared as int64 bit patterns, so NaN and the signs of zeros count too
        ours, theirs = objectives.expit(x), scipy.special.expit(x)
        assert same_bits(ours.view(np.int64), theirs.view(np.int64))

    @pytest.mark.parametrize("contents", [None, b"not an extension module"])
    def test_falls_back_to_scipy_special(self, tmp_path, contents):
        # no extension file in the directory, or one that fails to load
        if contents is not None:
            (tmp_path / ("_special_ufuncs" + EXTENSION_SUFFIXES[0])).write_bytes(contents)
        assert objectives._load_expit(str(tmp_path)) is scipy.special.expit


class TestLogisticLossLinear:
    def test_zero_params_any_data(self):
        d = make_dataset(np.array([[1.0, -2.0], [0.5, 3.0]]), y=[1, -1])
        loss = logistic_loss(LinearParams(theta=np.zeros(2)), d)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_sample_positive(self):
        d = make_dataset(np.array([[2.0]]), y=[1])
        loss = logistic_loss(LinearParams(theta=np.array([1.0])), d)
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)

    def test_single_sample_negative(self):
        d = make_dataset(np.array([[2.0]]), y=[-1])
        loss = logistic_loss(LinearParams(theta=np.array([1.0])), d)
        assert loss == pytest.approx(math.log(1.0 + math.exp(2.0)), abs=1e-12)

    def test_unlabeled_rejected(self):
        d = make_dataset(np.ones((2, 1)))
        with pytest.raises(ValueError, match="labels"):
            linear_objective(d, HyperParams())


class TestLassoPenalty:
    # the smoothed L1 term alone, as every builder adds it; a builder's loss
    # minus its logistic term would round away the smoothing residue
    def test_zero_theta(self):
        assert _l1(np.zeros(4), 2.0, 1e-16)[0] == pytest.approx(2.0 * 4 * 1e-8, abs=1e-12)

    def test_approaches_exact_l1(self):
        assert _l1(np.array([3.0, -4.0]), 1.0, 1e-12)[0] == pytest.approx(7.0, abs=1e-6)

    def test_smoothing_error_bound(self):
        # sqrt(1 + 1e-16) - 1 <= 1e-8
        diff = _l1(np.array([1.0]), 1.0, 1e-16)[0] - 1.0
        assert 0.0 <= diff <= 1e-8


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
        expected = logistic_loss(p, d) + 0.5 * 5.0
        assert elastic_net_loss(p, d, h) == pytest.approx(expected, abs=1e-12)

    def test_alpha_zero_is_pure_logistic(self):
        d = make_dataset(np.array([[1.0, 2.0]]), y=[-1])
        p = LinearParams(theta=np.array([0.3, -0.6]), bias=0.2)
        h = HyperParams(alpha=0.0, lambda_en=0.5)
        assert elastic_net_loss(p, d, h) == logistic_loss(p, d)

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

    @pytest.mark.parametrize(("field", "value"), [("l1_epsilon", 0.0), ("lambda_l2", -1.0)])
    def test_out_of_range_rejected(self, field, value):
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
        assert graph_term(np.full(3, 2.5), lap, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_value(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert graph_term(np.array([1.0, 0.0]), lap, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_weight(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert graph_term(np.array([5.0, -3.0]), lap, 0.0) == 0.0

    def test_dimension_mismatch(self):
        lap = np.zeros((3, 3))
        with pytest.raises(ValueError, match="Laplacian"):
            graph_term(np.zeros(2), lap, 1.0)

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
        assert graph_term(theta, lap, lam) == pytest.approx(direct, rel=1e-12)


class TestFactorizedLogistic:
    def test_zero_u_gives_log_two(self):
        d = make_dataset(np.array([[1.0, 2.0], [0.1, -0.3]]), y=[1, -1])
        p = FactorizedParams(
            u=np.zeros(2), W=np.ones((2, 2)), V=np.zeros((2, 2)),
            b_W=np.zeros(2), b_V=np.zeros(2),
        )
        assert logistic_loss(p, d) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_reduces_to_linear_example(self):
        d = make_dataset(np.array([[2.0, 0.0]]), y=[1])
        p = FactorizedParams(
            u=np.array([1.0]), W=np.array([[1.0, 0.0]]), V=np.zeros((2, 1)),
            b_W=np.zeros(1), b_V=np.zeros(2),
        )
        assert logistic_loss(p, d) == pytest.approx(
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
        factorized = joint_objective(d, None, HyperParams(alpha=0.0))(p.to_vector())[0]
        linear = logistic_loss(LinearParams(theta=p.effective_theta(), bias=p.bias), d)
        assert abs(factorized - linear) <= 1e-12

    @staticmethod
    def chain_rule_oracle(p, d):
        """The hand-written theta = W^T u chain rule, the factorized logistic gradient."""
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
            got = joint_objective(d, None, HyperParams(alpha=0.0))(fp.to_vector())[1]
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
        assert logistic_loss(q, d) == pytest.approx(
            logistic_loss(p, d), rel=1e-12
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

    def test_gradient_zero_in_u_and_bias(self):
        d, _, _, fp, _, _ = random_instance(5)
        grad = fp.with_vector(autoencoder_objective(d.X)(fp.to_vector())[1])
        np.testing.assert_array_equal(grad.u, np.zeros_like(fp.u))
        assert grad.bias == 0.0


class TestAeL2Penalty:
    def make(self, W, V):
        k, n = W.shape
        return FactorizedParams(u=np.ones(k), W=W, V=V, b_W=np.zeros(k), b_V=np.zeros(n))

    def test_zero_params(self):
        p = self.make(np.zeros((1, 2)), np.zeros((2, 1)))
        assert weight_decay(p, 3.0) == 0.0

    def test_simple_value(self):
        p = self.make(np.array([[1.0, 1.0]]), np.array([[1.0], [1.0]]))
        assert weight_decay(p, 0.5) == pytest.approx(2.0, abs=1e-14)

    def test_u_does_not_contribute(self):
        p = self.make(np.ones((1, 2)), np.ones((2, 1)))
        q = FactorizedParams(u=7.0 * p.u, W=p.W, V=p.V, b_W=p.b_W, b_V=p.b_V)
        assert weight_decay(p, 1.3) == weight_decay(q, 1.3)


class TestJointLoss:
    def test_additivity_reduces_to_factorized_lasso(self):
        d, aug, _, fp, _, _ = random_instance(0)
        h = HyperParams(alpha=0.3, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3, l1_epsilon=1e-8)
        expected = logistic_loss(fp, d) + _l1(fp.effective_theta(), 0.3, 1e-8)[0]
        assert joint_loss(fp, d, None, h) == pytest.approx(expected, abs=1e-14)

    def test_all_penalties_zero_gives_pure_logistic(self):
        d, _, _, fp, _, _ = random_instance(1)
        h = HyperParams(alpha=0.0, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3, l1_epsilon=1e-8)
        loss = joint_loss(fp, d, None, h)
        # only the smoothing residue of the zero-alpha L1 term remains: none
        assert loss == pytest.approx(logistic_loss(fp, d), abs=1e-12)

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


def objective_closures(d, aug, lap, h):
    """The seven ``value_and_grad`` closures under test, with their parameter layout."""
    lasso = replace(h, lambda_en=1.0)
    return [
        ("lasso", "linear", linear_objective(d, lasso)),
        ("elastic-net", "linear", linear_objective(d, h)),
        ("lasso-graph", "linear", linear_objective(d, lasso, lap)),
        ("factorized-logistic", "factorized", joint_objective(d, None, HyperParams(alpha=0.0))),
        ("autoencoder", "factorized", autoencoder_objective(d.X)),
        ("joint", "factorized", joint_objective(d, aug, h)),
        ("joint-graph", "factorized", joint_objective(d, aug, h, lap)),
    ]


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_all_blocks_match_finite_differences(self, seed):
        d, aug, lp, fp, lap, h = random_instance(seed)
        for name, kind, value_and_grad in objective_closures(d, aug, lap, h):
            x0 = (lp if kind == "linear" else fp).to_vector()
            analytic = value_and_grad(x0)[1]
            numeric = finite_difference(lambda v: value_and_grad(v)[0], x0)  # noqa: B023
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
        assert lasso_loss(lp, d, h0) == logistic_loss(lp, d)
        assert lasso_graph_loss(lp, d, h0, lap) == logistic_loss(lp, d)
        assert weight_decay(fp, 0.0) == 0.0
        assert graph_term(lp.theta, lap, 0.0) == 0.0

    def test_losses_nonnegative(self):
        for seed in range(5):
            d, aug, lp, fp, lap, h = random_instance(seed)
            assert logistic_loss(lp, d) > 0
            assert lasso_loss(lp, d, h) > 0
            assert ae_loss(fp, d.X) >= 0
            assert weight_decay(fp, h.lambda_l2) >= 0
            assert joint_loss(fp, d, aug, h, lap) > 0
