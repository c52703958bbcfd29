"""Consistency index, SNR, rankings, and the bootstrap loop."""

import ctypes
import glob
import multiprocessing
import os
import signal
import tempfile
import time
import tracemalloc
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepred import _pool, experiment, stability
from stablepred.data import build_laplacian, make_dataset, standardize, write_dataset_csv
from stablepred.experiment import ExperimentConfig, run_experiment
from stablepred.models import ModelSpec
from stablepred.objectives import HyperParams
from stablepred.optimizer import NumericalDivergenceError, OptimizerConfig
from stablepred.stability import (
    BootstrapEnsemble,
    SubsetFamily,
    consistency_index,
    feature_importance,
    mean_consistency,
    run_bootstraps,
    snr,
    snr_above,
    top_k_subsets,
)
from stablepred.synthetic import SyntheticSpec, generate, make_group_graph

from conftest import force_workers, needs_pool, traced_peak


def ensemble_from(weights, tag="test"):
    weights = np.asarray(weights, dtype=float)
    return BootstrapEnsemble(
        weights=weights, seeds=tuple(range(weights.shape[0])), model_tag=tag
    )


class TestBootstrapEnsemble:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_named_by_bootstrap_and_feature(self, value):
        # top_k_subsets used to rank a NaN weight last, np.partition ranks it first
        weights = np.ones((3, 4))
        weights[2, 1] = value
        with pytest.raises(ValueError, match=f"non-finite weight {value} at bootstrap 2, feature 1"):
            ensemble_from(weights)


class TestConsistencyIndex:
    def test_identical_subsets(self):
        s = frozenset({1, 4, 7})
        assert consistency_index(s, s, 10) == 1.0

    def test_direct_arithmetic_example(self):
        # d=10, k=3, r=2 -> (20 - 9) / 21
        s_i = frozenset({0, 1, 2})
        s_j = frozenset({1, 2, 5})
        assert consistency_index(s_i, s_j, 10) == pytest.approx(11.0 / 21.0, abs=1e-15)

    def test_disjoint_at_half(self):
        s_i = frozenset({0, 1, 2})
        s_j = frozenset({3, 4, 5})
        assert consistency_index(s_i, s_j, 6) == -1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="differ in size"):
            consistency_index(frozenset({1}), frozenset({1, 2}), 5)

    def test_degenerate_k(self):
        with pytest.raises(ValueError):
            consistency_index(frozenset(), frozenset(), 5)
        full = frozenset(range(5))
        with pytest.raises(ValueError):
            consistency_index(full, full, 5)

    @pytest.mark.parametrize("d", [10.9, np.float64(10.9), 1, True])
    def test_d_must_be_an_integer_above_one(self, d):
        with pytest.raises(ValueError, match=r"d must be an integer >= 2, got "):
            consistency_index(frozenset({0, 1}), frozenset({1, 2}), d)

    def test_matches_formula_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 50))
            k = int(rng.integers(1, d))
            r = int(rng.integers(max(0, 2 * k - d), k + 1))
            # construct subsets with overlap exactly r
            s_i = frozenset(range(k))
            s_j = frozenset(list(range(r)) + list(range(k, 2 * k - r)))
            assert len(s_i & s_j) == r and len(s_j) == k
            assert consistency_index(s_i, s_j, d) == (r * d - k * k) / (k * (d - k))


@st.composite
def subset_pairs(draw):
    d = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=d - 1))
    universe = list(range(d))
    s_i = frozenset(draw(st.permutations(universe))[:k])
    s_j = frozenset(draw(st.permutations(universe))[:k])
    return s_i, s_j, d, k


class TestConsistencyProperties:
    @given(subset_pairs())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, case):
        s_i, s_j, d, _ = case
        assert consistency_index(s_i, s_j, d) == consistency_index(s_j, s_i, d)

    @given(subset_pairs())
    @settings(max_examples=100, deadline=None)
    def test_self_consistency_is_one(self, case):
        s_i, _, d, _ = case
        assert consistency_index(s_i, s_i, d) == 1.0

    @given(subset_pairs())
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, case):
        # -1 <= CI <= 1 for k <= d/2; for k > d/2 disjointness is impossible
        # past r >= 2k - d, and the minimum attainable value is
        # (r_min*d - k^2)/(k(d-k)), which can fall below -1 only because
        # k(d-k) < k^2 there.
        s_i, s_j, d, k = case
        ci = consistency_index(s_i, s_j, d)
        assert ci <= 1.0
        r_min = max(0, 2 * k - d)
        lower = (r_min * d - k * k) / (k * (d - k))
        assert ci >= lower - 1e-12
        if k <= d / 2:
            assert ci >= -1.0 - 1e-12

    def test_below_minus_one_requires_large_k(self):
        # with d=4, k=3 the overlap floor is r=2: CI = (8-9)/3 < 0 but > -1;
        # constructed r=0 is impossible, so probe the formula boundary directly
        assert consistency_index(frozenset({0, 1, 2}), frozenset({1, 2, 3}), 4) == pytest.approx(
            -1.0 / 3.0
        )


class TestSubsetFamily:
    def test_members_are_the_sets_in_ascending_rows(self):
        rows = np.array([[7, 2, 5], [0, 9, 4]], dtype=np.int32)
        fam = SubsetFamily(rows)
        np.testing.assert_array_equal(fam.members, [[2, 5, 7], [0, 4, 9]])
        assert fam.members.dtype == np.int64
        assert not fam.members.flags.writeable
        assert rows.flags.writeable and rows[0, 0] == 7

    def test_subsets_built_from_members(self):
        e = ensemble_from([[3.0, 1.0, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
        fam = top_k_subsets(e, np.ones(4), 2)
        assert fam.subsets == (frozenset({0, 2}), frozenset({2, 3}))
        assert fam.subsets is fam.subsets

    @pytest.mark.parametrize("member", [0.5, 1.0, True, "1"])
    def test_non_integer_member_named_by_subset(self, member):
        # np.fromiter used to truncate 0.5 to 0, so two different sets scored 1.0;
        # a dtype belongs to the whole array, so the refusal names it, not a subset
        rows = np.array([[0, 1], [member, 3]]) if member is not True else np.ones((2, 2), bool)
        with pytest.raises(ValueError, match=rf"members must be an integer array, "
                                             rf"got {rows.dtype}$"):
            SubsetFamily(rows)

    @pytest.mark.parametrize("member", [2**70, -2**63 - 1])
    def test_member_outside_int64_named_by_subset(self, member):
        # np.array(..., dtype=np.int64) used to raise a bare OverflowError
        with pytest.raises(ValueError, match="members must be an integer array, got object"):
            SubsetFamily(np.array([[member], [1]]))

    def test_int64_extremes_accepted(self):
        # their difference overflows int64, so rows are compared, not differenced
        fam = SubsetFamily(np.array([[-2**63, 2**63 - 1], [0, 1]]))
        np.testing.assert_array_equal(fam.members, [[-2**63, 2**63 - 1], [0, 1]])

    def test_repeated_member_named_by_subset(self):
        with pytest.raises(ValueError, match="subset 2 repeats a member"):
            SubsetFamily(np.array([[0, 1], [1, 2], [3, 3]]))

    def test_size_mismatch(self):
        # ragged rows cannot form an integer array
        with pytest.raises(ValueError, match="members must be an integer array, got object"):
            SubsetFamily(np.array([[0, 1], [1]], dtype=object))

    @pytest.mark.parametrize("members,message", [
        (np.array([[0, 1], [0.5, 3]]), "an integer array, got float64"),
        (np.array([[0, 1], [1.0, 3]]), "an integer array, got float64"),
        (np.ones((2, 1), dtype=bool), "an integer array, got bool"),
        (np.array([[2**70], [1]]), "an integer array, got object"),
        (np.array([[-2**63 - 1], [1]]), "an integer array, got object"),
        (np.array([[2**63], [1]], dtype=np.uint64), "hold 9223372036854775808, outside the int64"),
        (np.array([0, 1]), "a B x k array, got 1 dimensions"),
        # np.asarray would turn [[0, 1], [True, 3]] into int64 without a word
        ([[0, 1], [1, 2]], "an integer array, got list"),
        (np.array([[0, 1], [3, 3]]), "subset 1 repeats a member"),
    ], ids=["half", "float-one", "bool", "above-int64", "below-int64", "uint64", "1-d", "list",
            "repeat"])
    def test_refused_in_array_form(self, members, message):
        with pytest.raises(ValueError, match=message):
            SubsetFamily(members)


class TestMeanConsistency:
    def test_identical_family_is_one(self):
        fam = SubsetFamily(np.array([[0, 1]] * 4))
        assert mean_consistency(fam, 10) == 1.0

    def test_three_family_average(self):
        # pairwise CI values {1, 0, 0} -> mean 1/3
        # d=4, k=2: CI(a,a)=1; CI with overlap r=1 gives (4-4)/4 = 0
        a = frozenset({0, 1})
        b = frozenset({1, 2})
        c = frozenset({0, 3})
        fam = SubsetFamily(np.array([[0, 1], [0, 1], [1, 2]]))
        assert mean_consistency(fam, 4) == pytest.approx(1.0 / 3.0)
        assert consistency_index(a, b, 4) == 0.0
        assert consistency_index(a, c, 4) == 0.0

    def test_requires_two_subsets(self):
        with pytest.raises(ValueError):
            mean_consistency(SubsetFamily(np.array([[0]])), 4)

    @pytest.mark.parametrize("d", [np.float64(10.9), 10.0, 1, True])
    def test_d_must_be_an_integer_above_one(self, d):
        fam = SubsetFamily(np.array([[0], [1]]))
        with pytest.raises(ValueError, match=r"d must be an integer >= 2, got "):
            mean_consistency(fam, d)

    def test_numpy_integer_d_accepted(self):
        fam = SubsetFamily(np.array([[0, 1], [1, 2]]))
        assert mean_consistency(fam, np.int64(4)) == mean_consistency(fam, 4) == 0.0

    def test_chance_level_near_zero(self):
        # independently drawn subsets: chance-corrected overlap averages to 0
        rng = np.random.default_rng(123)
        fam = SubsetFamily(np.array([rng.choice(100, size=10, replace=False) for _ in range(200)]))
        assert abs(mean_consistency(fam, 100)) < 0.05


@st.composite
def subset_families(draw):
    d = draw(st.integers(min_value=2, max_value=40))
    k = draw(st.integers(min_value=1, max_value=d - 1))
    b = draw(st.integers(min_value=2, max_value=12))
    perms = draw(st.lists(st.permutations(range(d)), min_size=b, max_size=b))
    return SubsetFamily(np.array([perm[:k] for perm in perms])), d


def pairwise_mean_consistency(f, d):
    """Reference: the exact rational mean of the index over all unordered pairs,
    rounded once to a float."""
    k = f.members.shape[1]
    pairs = list(combinations(map(frozenset, f.members.tolist()), 2))
    total = sum(Fraction(len(a & b) * d - k * k, k * (d - k)) for a, b in pairs)
    return float(total / len(pairs))


class TestMeanConsistencyOracle:
    @given(subset_families())
    @settings(max_examples=200, deadline=None)
    def test_equals_pairwise_mean(self, case):
        fam, d = case
        assert mean_consistency(fam, d) == pairwise_mean_consistency(fam, d)

    @pytest.mark.parametrize("k", [10, 50, 600])
    def test_equals_pairwise_mean_on_ranked_ensemble(self, k):
        # overlaps vary widely when bootstraps share a few strong features
        rng = np.random.default_rng(k)
        weights = rng.standard_normal((150, 1000)) * np.geomspace(10.0, 0.1, 1000)
        fam = top_k_subsets(ensemble_from(weights), np.ones(1000), k)
        assert mean_consistency(fam, 1000) == pairwise_mean_consistency(fam, 1000)

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_member_rejected(self, bad):
        fam = SubsetFamily(np.array([[0, 1], [1, bad]]))
        with pytest.raises(ValueError, match="must lie in"):
            mean_consistency(fam, 5)

    def test_degenerate_k_rejected(self):
        fam = SubsetFamily(np.array([[0, 1, 2]] * 2))
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 2\], got 3"):
            mean_consistency(fam, 3)

    def test_peak_memory_far_below_one_indicator_matrix(self):
        # The pairwise form built a B x d float indicator (160 MB here) and a
        # B x B Gram; the counts need O(B*k + d).  The peak of the allocations
        # tracemalloc sees is deterministic, unlike a timing.
        b, d, k = 2000, 10000, 20
        rng = np.random.default_rng(0)
        fam = SubsetFamily(np.array([rng.choice(d, size=k, replace=False) for _ in range(b)]))
        tracemalloc.start()
        try:
            mean_consistency(fam, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * d * 8 // 100


class TestFeatureImportance:
    def test_all_zero_weights(self):
        e = ensemble_from(np.zeros((3, 4)))
        r = feature_importance(e, np.ones(4))
        np.testing.assert_array_equal(r.importance, np.zeros(4))
        np.testing.assert_array_equal(r.order, [0, 1, 2, 3])

    def test_absolute_mean_ranks(self):
        e = ensemble_from([[2.0, -3.0], [2.0, -3.0]])
        r = feature_importance(e, np.ones(2))
        np.testing.assert_array_equal(r.order, [1, 0])

    def test_zero_raw_std_zeroes_importance(self):
        e = ensemble_from([[5.0, 1.0], [5.0, 1.0]])
        r = feature_importance(e, np.array([0.0, 1.0]))
        assert r.importance[0] == 0.0
        np.testing.assert_array_equal(r.order, [1, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("reduce", [feature_importance, lambda e, s: top_k_subsets(e, s, 1)],
                             ids=["feature_importance", "top_k_subsets"])
    def test_bad_raw_std_rejected(self, reduce, value):
        e = ensemble_from(np.ones((2, 3)))
        with pytest.raises(ValueError, match=f"raw_std must be finite and >= 0, got {value} "
                                             "at feature 1"):
            reduce(e, np.array([1.0, value, 1.0]))

    def test_order_is_permutation(self):
        rng = np.random.default_rng(3)
        e = ensemble_from(rng.standard_normal((6, 9)))
        r = feature_importance(e, rng.random(9))
        assert sorted(r.order.tolist()) == list(range(9))
        assert np.all(np.diff(r.importance[r.order]) <= 0)


class TestTopKSubsets:
    def test_single_bootstrap_ranking(self):
        e = ensemble_from([[3.0, 1.0, 2.0]])
        fam = top_k_subsets(e, np.ones(3), 2)
        assert fam.subsets == (frozenset({0, 2}),)

    def test_tie_break_by_index(self):
        e = ensemble_from([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        fam = top_k_subsets(e, np.ones(3), 2)
        assert fam.subsets == (frozenset({0, 1}), frozenset({0, 1}))

    def test_k_one_below_n_drops_minimum(self):
        e = ensemble_from([[1.0, 5.0, 3.0, 0.5]])
        fam = top_k_subsets(e, np.ones(4), 3)
        assert fam.subsets[0] == frozenset({0, 1, 2})

    def test_k_out_of_range(self):
        e = ensemble_from(np.ones((2, 3)))
        with pytest.raises(ValueError):
            top_k_subsets(e, np.ones(3), 3)

    @pytest.mark.parametrize("k", [2.5, True, 0])
    def test_k_must_be_a_positive_integer(self, k):
        # 2.5 and True used to fail inside numpy without naming k
        e = ensemble_from(np.ones((2, 6)))
        with pytest.raises(ValueError, match=rf"k must be an integer in \[1, 5\], got {k!r}"):
            top_k_subsets(e, np.ones(6), k)

    def test_reduces_to_importance_order_for_single_bootstrap(self):
        rng = np.random.default_rng(9)
        weights = rng.standard_normal((1, 12))
        raw_std = rng.random(12)
        e = ensemble_from(weights)
        fam = top_k_subsets(e, raw_std, 5)
        order = feature_importance(e, raw_std).order
        assert fam.subsets[0] == frozenset(order[:5].tolist())

    def test_traced_peak_is_one_score_buffer(self):
        # the scores are partitioned in place for each row's k-th score and then
        # rewritten, so no B x d index array is held beside them
        rng = np.random.default_rng(0)
        e = ensemble_from(rng.standard_normal((500, 1000)))
        raw_std = rng.uniform(0.5, 2.0, 1000)
        fam, peak = traced_peak(lambda: top_k_subsets(e, raw_std, 20))
        assert fam.members.shape == (500, 20)
        assert peak <= 1.3 * e.weights.nbytes


def stable_argsort_top_k(weights, raw_std, k):
    """Reference: the first k of each row's stable descending order."""
    return tuple(
        frozenset(int(i) for i in np.argsort(-(np.abs(row) * raw_std), kind="stable")[:k])
        for row in weights
    )


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_top_k_matches_per_row_ranking(b, n, seed):
    # few distinct magnitudes, so ties are common and must break by index
    rng = np.random.default_rng(seed)
    weights = rng.integers(-3, 4, size=(b, n)).astype(float)
    raw_std = rng.integers(0, 3, size=n).astype(float)
    k = int(rng.integers(1, n))
    fam = top_k_subsets(ensemble_from(weights), raw_std, k)
    assert fam.subsets == stable_argsort_top_k(weights, raw_std, k)


@pytest.mark.parametrize("k", [1, 5, 20, 40, 60, 99])
def test_top_k_matches_per_row_ranking_on_sparse_ensemble(k):
    # 80% exact zeros, as in sparse fits: from k = 20 on, many rows tie at a
    # k-th score of 0 and must fill up with their lowest-index zeros
    rng = np.random.default_rng(k)
    weights = rng.standard_normal((200, 100)) * (rng.random((200, 100)) < 0.2)
    raw_std = rng.uniform(0.5, 2.0, 100) * (rng.random(100) >= 0.1)
    fam = top_k_subsets(ensemble_from(weights), raw_std, k)
    assert fam.subsets == stable_argsort_top_k(weights, raw_std, k)


@st.composite
def ranked_ensembles(draw):
    """Weights with heavy ties: few distinct integer magnitudes, or 80% zeros as
    in sparse fits; k anywhere in [1, d - 1], its ends included."""
    b = draw(st.integers(min_value=1, max_value=12))
    d = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        weights = rng.integers(-3, 4, size=(b, d)).astype(float)
        raw_std = rng.integers(0, 3, size=d).astype(float)
    else:
        weights = rng.standard_normal((b, d)) * (rng.random((b, d)) < 0.2)
        raw_std = rng.uniform(0.5, 2.0, d) * (rng.random(d) >= 0.1)
    k = draw(st.sampled_from([1, d - 1]) | st.integers(min_value=1, max_value=d - 1))
    return weights, raw_std, k


@given(ranked_ensembles())
@settings(max_examples=200, deadline=None)
def test_top_k_members_are_sorted_stable_argsort_prefix(case):
    weights, raw_std, k = case
    fam = top_k_subsets(ensemble_from(weights), raw_std, k)
    order = np.argsort(-(np.abs(weights) * raw_std), axis=1, kind="stable")
    np.testing.assert_array_equal(fam.members, np.sort(order[:, :k], axis=1))
    assert fam.members.dtype == np.int64


def test_consistency_path_builds_no_frozenset(monkeypatch):
    # top_k_subsets -> mean_consistency runs on the B x k array alone; boxing
    # each row into a frozenset took about half of the reduction's time
    def refuse(*args):
        raise AssertionError("frozenset built on the consistency path")

    monkeypatch.setattr(stability, "frozenset", refuse, raising=False)
    rng = np.random.default_rng(4)
    weights = rng.standard_normal((50, 30)) * (rng.random((50, 30)) < 0.5)
    fam = top_k_subsets(ensemble_from(weights), np.ones(30), 10)
    assert -1.0 <= mean_consistency(fam, 30) <= 1.0
    with pytest.raises(AssertionError, match="frozenset built"):
        fam.subsets


class TestSnr:
    def test_zero_variance_nonzero_mean(self):
        e = ensemble_from([[1.0], [1.0], [1.0]])
        assert snr(e)[0] == np.inf

    def test_two_value_example(self):
        e = ensemble_from([[1.0], [3.0]])
        assert snr(e)[0] == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-12)

    def test_all_zeros(self):
        e = ensemble_from(np.zeros((4, 2)))
        np.testing.assert_array_equal(snr(e), np.zeros(2))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(21)
        w = rng.standard_normal((8, 5))
        a = snr(ensemble_from(w))
        b = snr(ensemble_from(4.2 * w))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sign_preserved(self):
        e = ensemble_from([[-1.0], [-3.0]])
        assert snr(e)[0] < 0


class TestSnrAbove:
    def test_infinite_snr_counts_all(self):
        e = ensemble_from([[1.0, 2.0], [1.0, 2.0]])
        ranking = feature_importance(e, np.ones(2))
        assert snr_above(e, ranking, top=2) == 2

    def test_low_snr_counts_none(self):
        # mean 1, sample std 1 -> SNR exactly 1 < 1.96
        e = ensemble_from([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        ranking = feature_importance(e, np.ones(2))
        assert snr_above(e, ranking, top=2) == 0

    def test_constructed_mixed_counts(self):
        # five features; exactly two with tight weights across bootstraps
        rng = np.random.default_rng(5)
        base = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        noise = np.array([0.01, 0.01, 3.0, 3.0, 3.0])
        weights = base + rng.standard_normal((40, 5)) * noise
        e = ensemble_from(weights)
        ranking = feature_importance(e, np.ones(5))
        assert snr_above(e, ranking, top=5) == 2

    @pytest.mark.parametrize("top", [-1, 0, True, 2.0])
    def test_top_must_be_a_positive_integer(self, top):
        # top=-1 used to count every feature but the last, and True one feature
        e = ensemble_from([[1.0, 2.0], [1.0, 2.0]])
        ranking = feature_importance(e, np.ones(2))
        with pytest.raises(ValueError, match=rf"top must be an integer in \[1, 2\], got {top!r}"):
            snr_above(e, ranking, top=top)

    @pytest.mark.parametrize("n_ranked", [3, 8])
    def test_ranking_length_must_match_the_ensemble(self, n_ranked):
        # a 3-feature ranking used to count over 3 of 6 features, an 8-feature
        # one to raise a bare IndexError
        e = ensemble_from(np.ones((2, 6)))
        ranked = ensemble_from([np.arange(n_ranked)] * 2)  # the last feature ranks first
        ranking = feature_importance(ranked, np.ones(n_ranked))
        with pytest.raises(ValueError,
                           match=f"ranking of {n_ranked} features for an ensemble of 6"):
            snr_above(e, ranking, top=5)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, True])
    def test_threshold_must_be_finite(self, threshold):
        # a NaN threshold used to count no feature
        e = ensemble_from([[1.0, 2.0], [1.0, 2.0]])
        ranking = feature_importance(e, np.ones(2))
        with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold!r}"):
            snr_above(e, ranking, top=2, threshold=threshold)


class TestRunBootstraps:
    def small_data(self, seed=0, m=40, n=6):
        spec = SyntheticSpec(
            n_samples=m, n_groups=3, group_size=n // 3, within_group_noise=0.4,
            n_informative_groups=1, true_weight_scale=1.5, label_noise=0.0, seed=seed,
        )
        return standardize(generate(spec))

    def cfg(self, iters=150):
        return OptimizerConfig(max_iters=iters, learning_rate=0.05, rel_tol=1e-8, seed=100)

    def test_deterministic_repeat(self):
        d = self.small_data()
        spec = ModelSpec("lasso")
        h = HyperParams(alpha=0.02)
        e1 = run_bootstraps(d, spec, h, self.cfg(), n_bootstraps=2, base_seed=7)
        e2 = run_bootstraps(d, spec, h, self.cfg(), n_bootstraps=2, base_seed=7)
        assert e1.weights.tobytes() == e2.weights.tobytes()
        assert e1.seeds == e2.seeds == (7, 8)

    def test_different_base_seed_resamples_differently(self):
        m = 40
        rows_a = np.random.default_rng(7).integers(0, m, size=m)
        rows_b = np.random.default_rng(1007).integers(0, m, size=m)
        assert sorted(rows_a.tolist()) != sorted(rows_b.tolist())
        d = self.small_data()
        spec = ModelSpec("lasso")
        h = HyperParams(alpha=0.02)
        e1 = run_bootstraps(d, spec, h, self.cfg(), n_bootstraps=2, base_seed=7)
        e2 = run_bootstraps(d, spec, h, self.cfg(), n_bootstraps=2, base_seed=1007)
        assert not np.array_equal(e1.weights, e2.weights)

    def test_huge_alpha_forces_sparsity(self):
        # with a dominant L1 weight the optimum pins every coordinate near 0;
        # plain small-step descent settles below the reporting tolerance
        d = self.small_data(m=60)
        spec = ModelSpec("lasso")
        h = HyperParams(alpha=50.0, l1_epsilon=1e-10)
        cfg = OptimizerConfig(
            max_iters=400, learning_rate=1e-7, adaptive=False, rel_tol=1e-12, seed=0
        )
        e = run_bootstraps(d, spec, h, cfg, n_bootstraps=3, base_seed=1)
        frac_small = np.mean(np.abs(e.weights) < 1e-6, axis=1)
        assert np.all(frac_small >= 0.9)

    def test_requires_labels_and_b(self):
        d = self.small_data()
        unlabeled = make_dataset(d.X)
        with pytest.raises(ValueError, match="dataset has no labels"):
            run_bootstraps(unlabeled, ModelSpec("lasso"), HyperParams(), self.cfg(), 2, 0)
        with pytest.raises(ValueError, match="n_bootstraps must be an integer >= 2, got 1"):
            run_bootstraps(d, ModelSpec("lasso"), HyperParams(), self.cfg(), 1, 0)

    @pytest.mark.parametrize("n_bootstraps,base_seed,named", [
        (2.5, 0, "n_bootstraps must be an integer"),
        (2, 1.5, "base_seed must be an integer >= 0, got 1.5"),
        (2, -1, "base_seed must be an integer >= 0, got -1"),
    ])
    def test_counts_and_seeds_are_named(self, n_bootstraps, base_seed, named):
        # these used to fail in numpy or range() without naming the argument
        d, spec = self.small_data(), ModelSpec("lasso")
        with pytest.raises(ValueError, match=named):
            run_bootstraps(d, spec, HyperParams(), self.cfg(), n_bootstraps, base_seed)

    def test_divergence_names_bootstrap_and_iteration(self):
        # a step of 1e300 overflows the weights, so the first loss is non-finite
        d = self.small_data()
        cfg = OptimizerConfig(max_iters=10, learning_rate=1e300, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericalDivergenceError) as exc:
            run_bootstraps(d, ModelSpec("lasso"), HyperParams(alpha=0.02), cfg, 2, 0)
        assert str(exc.value).startswith("bootstrap 0: non-finite loss")
        assert exc.value.iteration == 1


def blas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, looked up as its setter is."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    raise LookupError("no bundled OpenBLAS")


@needs_pool
class TestBootstrapPool:
    small_data = TestRunBootstraps.small_data
    cfg = TestRunBootstraps.cfg

    @pytest.fixture
    def result_dir(self, monkeypatch, tmp_path):
        """An empty directory that every temporary directory is made in."""
        out = tmp_path / "tmp"
        out.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(out))
        return out

    def test_jobs_run_in_one_thread_workers_in_order(self, monkeypatch):
        force_workers(monkeypatch, 2)
        out = list(_pool.imap_in_order(lambda i: (i, os.getpid(), blas_threads()), 5))
        assert [i for i, _, _ in out] == list(range(5))
        assert os.getpid() not in {pid for _, pid, _ in out}
        assert {threads for _, _, threads in out} == {1}
        assert multiprocessing.active_children() == []

    def test_unpooled_jobs_run_in_the_caller(self, monkeypatch):
        # pooled=False runs the jobs here even where a pool could start
        force_workers(monkeypatch, 2)

        def no_setter():
            raise AssertionError("looked up the workers' BLAS setter")

        monkeypatch.setattr(_pool, "_worker_blas_setter", no_setter)
        out = list(_pool.imap_in_order(lambda i: (i, os.getpid()), 4, pooled=False))
        assert out == [(i, os.getpid()) for i in range(4)]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("model", ["lasso", "lasso-autoencoder-graph"])
    def test_pool_and_serial_weights_identical(self, monkeypatch, model):
        spec = SyntheticSpec(n_samples=40, n_groups=3, group_size=2, seed=3)
        d = standardize(generate(spec))
        if model == "lasso":
            ms, h = ModelSpec(model), HyperParams(alpha=0.02)
        else:
            lap = build_laplacian(make_group_graph(spec), d.feature_names)
            ms = ModelSpec(model, laplacian=lap)
            h = HyperParams(alpha=0.02, lambda_ae=10.0, lambda_l2=1e-3, lambda_fg=0.05,
                            hidden_units=3)
        ensembles = {}
        for n in (2, 1):
            force_workers(monkeypatch, n)
            ensembles[n] = run_bootstraps(d, ms, h, self.cfg(iters=60), 3, base_seed=11)
            assert multiprocessing.active_children() == []
        assert ensembles[2].weights.tobytes() == ensembles[1].weights.tobytes()
        assert ensembles[2].seeds == ensembles[1].seeds == (11, 12, 13)

    def test_fit_warnings_reach_caller(self, monkeypatch):
        # each pooled fit's warnings are issued in the parent, and a warning
        # every fit raises at one place is shown once, as it is serially
        fit_model = stability.fit_model

        def warning_fit(*args, **kwargs):
            warnings.warn("fit warned", UserWarning)
            return fit_model(*args, **kwargs)

        monkeypatch.setattr(stability, "fit_model", warning_fit)
        d, h, seen = self.small_data(), HyperParams(alpha=0.02), {}
        for n in (1, 2):
            force_workers(monkeypatch, n)
            for action in ("always", "default"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter(action)
                    run_bootstraps(d, ModelSpec("lasso"), h, self.cfg(), 3, 0)
                seen[n, action] = [(str(w.message), w.category, w.filename, w.lineno)
                                   for w in caught]
            assert multiprocessing.active_children() == []
        assert seen[2, "always"] == seen[1, "always"]
        assert [w[:2] for w in seen[1, "always"]] == [("fit warned", UserWarning)] * 3
        assert seen[2, "default"] == seen[1, "default"] == seen[1, "always"][:1]

    def test_divergence_in_a_worker_names_bootstrap_and_iteration(self, monkeypatch):
        force_workers(monkeypatch, 2)
        cfg = OptimizerConfig(max_iters=10, learning_rate=1e300, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NumericalDivergenceError) as exc:
            run_bootstraps(self.small_data(), ModelSpec("lasso"), HyperParams(alpha=0.02), cfg,
                           3, 0)
        assert str(exc.value).startswith("bootstrap 0: non-finite loss")
        assert exc.value.iteration == 1
        assert multiprocessing.active_children() == []

    @needs_pool
    def test_pooled_arrays_traced_peak(self, monkeypatch):
        # each result is read on this thread straight into the one buffer its
        # array views: 2.01-2.05 arrays; 3.13 when the executor's thread unpickled
        # a message, then the array's state bytes, then the array
        force_workers(monkeypatch, 2)
        shape = (2000, 500)
        out, peak = traced_peak(lambda: list(_pool.imap_in_order(
            lambda i: np.random.default_rng(i).normal(size=shape), 2)))
        for i, x in enumerate(out):
            assert x.tobytes() == np.random.default_rng(i).normal(size=shape).tobytes()
        assert peak <= 2.1 * out[0].nbytes

    def test_run_path_traced_peak_before_the_fits(self, monkeypatch, tmp_path):
        # each cohort is standardized in the buffer its load job filled, and the
        # validation job parks its cells on disk, so the train cohort that comes
        # back is all this process holds: 1.15 cohorts; 2.14 when validation came
        # back too, and 3.02 when both were standardized into new arrays
        spec = SyntheticSpec(n_samples=2000, n_groups=50)
        for seed, name in enumerate(("train.csv", "validation.csv")):
            write_dataset_csv(generate(replace(spec, seed=seed)), tmp_path / name)
        cfg = ExperimentConfig(train_path=str(tmp_path / "train.csv"),
                               validation_path=str(tmp_path / "validation.csv"), model="lasso")
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(experiment, "_POOLED_LOAD_BYTES", 0)

        class ReachedTheFits(Exception):
            pass

        def stub(*args):
            raise ReachedTheFits

        monkeypatch.setattr(experiment, "_bootstraps_and_final_fit", stub)

        def run_to_the_fits():
            with pytest.raises(ReachedTheFits):
                run_experiment(cfg)

        _, peak = traced_peak(run_to_the_fits)
        assert peak <= 1.3 * spec.n_samples * spec.n_features * 8
        assert multiprocessing.active_children() == []

    def test_failure_cancels_queued_jobs(self, monkeypatch, tmp_path, result_dir):
        # Executor.map cancels the jobs still queued once a result raises, so a
        # fit that fails at once does not wait for the rest of the ensemble
        force_workers(monkeypatch, 2)
        ran = tmp_path / "ran"

        def job(i):
            if i == 0:
                raise ValueError("job 0 failed")
            time.sleep(0.2)
            with open(ran, "a", encoding="utf-8") as fh:
                fh.write(f"{i}\n")
            return i

        with pytest.raises(ValueError, match="job 0 failed"):
            list(_pool.imap_in_order(job, 40))
        assert multiprocessing.active_children() == []
        assert len(ran.read_text(encoding="utf-8").split() if ran.exists() else []) < 20
        assert list(result_dir.iterdir()) == []

    def test_results_stream_before_later_jobs_finish(self, monkeypatch, tmp_path):
        # each result is yielded once it and every earlier one are done: jobs
        # 1-3 wait for a flag that the caller sets only after reading result 0
        force_workers(monkeypatch, 2)
        flag = tmp_path / "flag"

        def job(i):
            deadline = time.monotonic() + 10
            while i and not flag.exists():
                if time.monotonic() > deadline:
                    return "timed out"
                time.sleep(0.01)
            return i

        results = _pool.imap_in_order(job, 4)
        assert next(results) == 0
        flag.touch()
        assert list(results) == [1, 2, 3]
        assert multiprocessing.active_children() == []

    def test_closing_the_stream_cancels_queued_jobs(self, monkeypatch, tmp_path, result_dir):
        force_workers(monkeypatch, 2)
        ran = tmp_path / "ran"

        def job(i):
            if i:
                time.sleep(0.2)
            with open(ran, "a", encoding="utf-8") as fh:
                fh.write(f"{i}\n")
            return i

        results = _pool.imap_in_order(job, 40)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
        assert len(ran.read_text(encoding="utf-8").split()) < 20
        assert list(result_dir.iterdir()) == []

    def test_dead_worker_raises(self, monkeypatch, result_dir):
        # a worker killed from outside (say, for memory) fails the map, not hangs it
        force_workers(monkeypatch, 2)
        parent = os.getpid()

        def job(i):
            if i == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(BrokenProcessPool):
            list(_pool.imap_in_order(job, 3))
        assert multiprocessing.active_children() == []
        assert list(result_dir.iterdir()) == []

    def test_serial_inside_a_daemon_process(self, monkeypatch):
        # a pool worker may not start processes of its own
        force_workers(monkeypatch, 2)
        d, h = self.small_data(), HyperParams(alpha=0.02)

        def child(conn):
            conn.send(run_bootstraps(d, ModelSpec("lasso"), h, self.cfg(), 2, 7).weights.tobytes())

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,), daemon=True)
        proc.start()
        send.close()
        assert recv.poll(60)
        got = recv.recv()
        proc.join(60)
        assert proc.exitcode == 0
        assert got == run_bootstraps(d, ModelSpec("lasso"), h, self.cfg(), 2, 7).weights.tobytes()
