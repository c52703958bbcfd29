"""AUC against the pairwise oracle; F-threshold against brute force; sparsity counts."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from stablepred.metrics import PredictionSet, auc, best_f_threshold, selected_count


def pairwise_auc(scores, labels):
    """O(M^2) oracle: fraction of (positive, negative) pairs won, ties count 0.5."""
    pos = scores[labels > 0]
    neg = scores[labels < 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def rankdata_auc(p):
    """Reference: the midrank formula auc used with scipy.stats.rankdata before
    it ranked in numpy, kept verbatim so the two can be compared with ==."""
    pos = p.labels > 0
    n_pos = int(pos.sum())
    n_neg = len(p.labels) - n_pos
    ranks = rankdata(p.scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


SPECIAL_SCORES = [-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0, np.inf]


def brute_force_best_f(scores, labels):
    """Evaluate F1 at every candidate threshold directly."""
    distinct = np.unique(scores)
    candidates = np.concatenate([[-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]])
    n_pos = np.sum(labels > 0)
    best = (None, -1.0)
    for thr in candidates:
        pred = scores >= thr
        tp = np.sum(pred & (labels > 0))
        if tp == 0 or pred.sum() == 0:
            f1 = 0.0
        else:
            p = tp / pred.sum()
            r = tp / n_pos
            f1 = 2 * p * r / (p + r)
        if f1 > best[1]:
            best = (float(thr), f1)
    return best


def loop_best_f_threshold(p):
    """Reference: the per-candidate loop best_f_threshold used before it was
    vectorized, kept verbatim so the two can be compared with ==."""
    distinct = np.unique(p.scores)
    candidates = np.concatenate([[-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]])
    best_thr = -np.inf
    best_f = -1.0
    n_pos = int(np.sum(p.labels > 0))
    for thr in candidates:
        predicted = p.scores >= thr
        tp = int(np.sum(predicted & (p.labels > 0)))
        n_pred = int(predicted.sum())
        if tp == 0 or n_pred == 0:
            f1 = 0.0
        else:
            precision = tp / n_pred
            recall = tp / n_pos
            f1 = 2.0 * precision * recall / (precision + recall)
        if f1 > best_f:
            best_f = f1
            best_thr = float(thr)
    return best_thr, best_f


def random_prediction_set(rng, m=None, tie_prone=True):
    m = m or int(rng.integers(4, 200))
    if tie_prone:
        scores = rng.integers(0, 8, size=m).astype(float) / 2.0
    else:
        scores = rng.standard_normal(m)
    labels = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    labels[0], labels[1] = 1.0, -1.0  # both classes present
    return PredictionSet(scores=scores, labels=labels)


class TestAuc:
    def test_perfect_separation(self):
        p = PredictionSet(scores=np.array([0.9, 0.1]), labels=np.array([1.0, -1.0]))
        assert auc(p) == 1.0

    def test_all_ties(self):
        p = PredictionSet(scores=np.zeros(6), labels=np.array([1, -1, 1, -1, 1, -1.0]))
        assert auc(p) == 0.5

    def test_four_point_example(self):
        # pairs: (3>1), (3>0), (2>1), (2>0) -> 4/4
        p = PredictionSet(scores=np.array([3.0, 1.0, 2.0, 0.0]),
                          labels=np.array([1.0, -1.0, 1.0, -1.0]))
        assert auc(p) == 1.0

    def test_single_class_rejected(self):
        p = PredictionSet(scores=np.array([1.0, 2.0]), labels=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="both classes"):
            auc(p)

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p = random_prediction_set(rng)
            assert auc(p) == pairwise_auc(p.scores, p.labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        p = random_prediction_set(rng, m=60, tie_prone=False)
        q = PredictionSet(scores=np.exp(2.0 * p.scores), labels=p.labels)
        assert auc(p) == auc(q)

    def test_negation_complements(self):
        rng = np.random.default_rng(8)
        p = random_prediction_set(rng, m=51, tie_prone=False)
        q = PredictionSet(scores=-p.scores, labels=p.labels)
        assert auc(p) + auc(q) == pytest.approx(1.0, abs=1e-12)


class TestAucOracle:
    @given(
        st.lists(st.sampled_from(SPECIAL_SCORES) | st.floats(-5, 5), min_size=2, max_size=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example([0.0, -0.0, 0.0, -0.0], 0)
    @example([-np.inf, np.inf], 1)
    def test_equals_rankdata(self, scores, seed):
        # ties, -0.0 against 0.0 (equal, so tied) and +/-inf scores
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(len(scores)) < 0.5, 1.0, -1.0)
        labels[:2] = [1.0, -1.0]
        p = PredictionSet(scores=np.array(scores), labels=rng.permutation(labels))
        assert auc(p) == rankdata_auc(p)

    @pytest.mark.parametrize("m", [2, 7, 500])
    def test_single_positive(self, m):
        rng = np.random.default_rng(m)
        scores = np.round(rng.standard_normal(m), 1)
        labels = -np.ones(m)
        labels[m // 2] = 1.0
        p = PredictionSet(scores=scores, labels=labels)
        assert auc(p) == rankdata_auc(p)

    def test_equals_rankdata_at_evaluate_size(self):
        rng = np.random.default_rng(8000)
        p = random_prediction_set(rng, m=8000, tie_prone=False)
        tied = PredictionSet(scores=np.round(p.scores, 1), labels=p.labels)
        assert auc(p) == rankdata_auc(p)
        assert auc(tied) == rankdata_auc(tied)


class TestBestFThreshold:
    def test_perfect_separation_gives_f1_one(self):
        p = PredictionSet(scores=np.array([2.0, 3.0, -1.0, -2.0]),
                          labels=np.array([1.0, 1.0, -1.0, -1.0]))
        thr, f1 = best_f_threshold(p)
        assert f1 == 1.0
        assert -1.0 < thr < 2.0

    def test_all_positive_on_balanced_data(self):
        # on hopeless scores the -inf threshold wins: P=0.5, R=1, F1=2/3
        p = PredictionSet(scores=np.array([1.0, 2.0, 1.0, 2.0]),
                          labels=np.array([1.0, -1.0, -1.0, 1.0]))
        thr, f1 = best_f_threshold(p)
        assert f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert thr == -np.inf

    def test_degenerate_f1_is_zero_not_nan(self):
        p = PredictionSet(scores=np.array([1.0, 0.0]), labels=np.array([-1.0, 1.0]))
        thr, f1 = best_f_threshold(p)
        assert np.isfinite(f1)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_prediction_set(rng, m=int(rng.integers(4, 60)))
            thr, f1 = best_f_threshold(p)
            oracle_thr, oracle_f1 = brute_force_best_f(p.scores, p.labels)
            assert f1 == pytest.approx(oracle_f1, abs=1e-12)
            assert thr == oracle_thr

    def test_ties_break_toward_smaller_threshold(self):
        # every threshold above the max yields F1=0; all-positive also beats
        # nothing here, so the smallest maximizing threshold must be returned
        p = PredictionSet(scores=np.array([1.0, 1.0, 2.0, 2.0]),
                          labels=np.array([1.0, 1.0, -1.0, -1.0]))
        thr, f1 = best_f_threshold(p)
        oracle_thr, oracle_f1 = brute_force_best_f(p.scores, p.labels)
        assert (thr, f1) == (oracle_thr, oracle_f1)


class TestBestFThresholdOracle:
    @given(
        st.lists(
            st.sampled_from(SPECIAL_SCORES) | st.floats(-5, 5),
            min_size=2, max_size=60,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    # -inf and +inf adjacent among the distinct scores make a NaN midpoint,
    # which predicts no positives in both versions
    @pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
    def test_equals_loop(self, scores, seed):
        # ties, -0.0 and +/-inf scores make midpoints that equal scores or are infinite
        rng = np.random.default_rng(seed)
        labels = np.where(rng.random(len(scores)) < 0.5, 1.0, -1.0)
        labels[:2] = [1.0, -1.0]
        p = PredictionSet(scores=np.array(scores), labels=rng.permutation(labels))
        assert best_f_threshold(p) == loop_best_f_threshold(p)

    @pytest.mark.parametrize("m", [2000, 8000])
    def test_equals_loop_at_evaluate_size(self, m):
        rng = np.random.default_rng(m)
        p = random_prediction_set(rng, m=m, tie_prone=False)
        tied = PredictionSet(scores=np.round(p.scores, 1), labels=p.labels)
        assert best_f_threshold(p) == loop_best_f_threshold(p)
        assert best_f_threshold(tied) == loop_best_f_threshold(tied)

    def test_infinite_thresholds_chosen(self):
        # positives score +inf only: predicting exactly them needs the +inf candidate
        p = PredictionSet(scores=np.array([np.inf, np.inf, 1.0, 2.0]),
                          labels=np.array([1.0, 1.0, -1.0, -1.0]))
        assert best_f_threshold(p) == loop_best_f_threshold(p) == (np.inf, 1.0)
        q = PredictionSet(scores=np.array([-np.inf, 1.0]), labels=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="both classes"):
            best_f_threshold(q)

    @pytest.mark.parametrize("scores", [
        [-np.inf, np.inf, -np.inf, np.inf],
        [-np.inf, np.inf, -2.0, 0.5, 0.5, np.inf],
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_nan_midpoint_between_infinities(self, scores):
        # adjacent -inf and +inf used to make a (-inf + inf) / 2 = NaN candidate
        p = PredictionSet(scores=np.array(scores), labels=np.resize([1.0, -1.0], len(scores)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the loop makes the NaN midpoint
            expected = loop_best_f_threshold(p)
        assert best_f_threshold(p) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_midpoint_of_huge_scores_does_not_overflow(self):
        # 1e308 + 1.7e308 overflows; the threshold between them separates the classes
        p = PredictionSet(scores=np.array([1e308, 1.7e308]), labels=np.array([-1.0, 1.0]))
        thr, f1 = best_f_threshold(p)
        assert 1e308 < thr < 1.7e308
        assert f1 == 1.0

    def test_subnormal_midpoint_keeps_its_bits(self):
        # halving first would round 5e-324 / 2 to 0 and put the midpoint on the
        # lower score; (a + b) / 2 rounds once, to the upper one
        p = PredictionSet(scores=np.array([5e-324, 1e-323]), labels=np.array([-1.0, 1.0]))
        assert best_f_threshold(p) == loop_best_f_threshold(p) == (1e-323, 1.0)

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            PredictionSet(scores=np.array([0.5, np.nan]), labels=np.array([1.0, -1.0]))


class TestSelectedCount:
    def test_zero_vector(self):
        assert selected_count(np.zeros(5)) == (0, 0.0)

    def test_mixed_magnitudes(self):
        count, frac = selected_count(np.array([1e-9, 0.5, -0.2]), tol=1e-6)
        assert count == 2
        assert frac == pytest.approx(2.0 / 3.0)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            selected_count(np.ones(3), tol=0.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_nan_and_inf_tol_rejected(self, tol):
        # a NaN tol counts no weight as selected
        with pytest.raises(ValueError, match="tol must be > 0"):
            selected_count(np.ones(3), tol=tol)

    @pytest.mark.parametrize("tol", [True, "0.1"])
    def test_bool_and_string_tol_rejected(self, tol):
        # True used to be taken as a tolerance of 1
        with pytest.raises(ValueError, match=f"tol must be > 0 and finite, got {tol!r}"):
            selected_count(np.ones(3), tol)

    def test_heavily_penalized_fit_is_sparse_at_default_tol(self):
        # a dominant L1 weight pins every coordinate near zero; small plain
        # gradient steps settle at the stationary point below the tolerance
        from stablepred.data import standardize
        from stablepred.models import ModelSpec, fit_model
        from stablepred.objectives import HyperParams
        from stablepred.optimizer import OptimizerConfig
        from stablepred.synthetic import SyntheticSpec, generate

        spec = SyntheticSpec(n_samples=80, n_groups=4, group_size=5,
                             within_group_noise=0.3, n_informative_groups=2,
                             true_weight_scale=1.0, label_noise=0.0, seed=6)
        train = standardize(generate(spec))
        cfg = OptimizerConfig(max_iters=400, learning_rate=1e-7, adaptive=False,
                              rel_tol=1e-12, seed=0)
        fit = fit_model(ModelSpec("lasso"), train, HyperParams(alpha=50.0), cfg)
        _, frac = selected_count(fit.effective_theta)
        assert frac < 0.5


class TestPredictionSetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            PredictionSet(scores=np.ones(3), labels=np.ones(2))

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            PredictionSet(scores=np.ones(2), labels=np.array([1.0, 0.5]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_oracle_property(seed):
    rng = np.random.default_rng(seed)
    p = random_prediction_set(rng, m=int(rng.integers(4, 40)))
    assert auc(p) == pairwise_auc(p.scores, p.labels)
