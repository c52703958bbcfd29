"""Synthetic cohort generator: correlation structure, determinism, graph shape,
the cohort bundle and the acceptance configs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from stablepred.data import build_laplacian, standardize, write_dataset_csv, write_feature_graph
from stablepred.metrics import PredictionSet, auc
from stablepred.models import ModelSpec, fit_model
from stablepred.objectives import HyperParams
from stablepred.optimizer import OptimizerConfig
from stablepred.synthetic import (
    DEFAULT_SPEC,
    SyntheticSpec,
    acceptance_configs,
    generate,
    make_group_graph,
    write_bundle,
)

from conftest import same_bits, traced_peak


def within_group_correlations(d, spec):
    out = []
    for gi in range(spec.n_groups):
        cols = d.X[:, gi * spec.group_size : (gi + 1) * spec.group_size]
        corr = np.corrcoef(cols, rowvar=False)
        iu = np.triu_indices_from(corr, k=1)
        out.extend(corr[iu].tolist())
    return np.array(out)


class TestGenerate:
    def test_zero_noise_duplicates_group_columns(self):
        spec = SyntheticSpec(n_samples=30, n_groups=2, group_size=3,
                             within_group_noise=0.0, n_informative_groups=1, seed=1)
        d = generate(spec)
        for gi in range(2):
            cols = d.X[:, gi * 3 : (gi + 1) * 3]
            assert np.all(cols == cols[:, [0]])

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, SyntheticSpec(within_group_noise=0.0)],
                             ids=["default", "no-noise"])
    def test_same_bits_as_one_expression(self, spec):
        # the expression that held the scaled noise beside the repeated latents
        rng = np.random.default_rng(spec.seed)
        z = rng.standard_normal((spec.n_samples, spec.n_groups))
        eps = rng.standard_normal((spec.n_samples, spec.n_features))
        want = np.repeat(z, spec.group_size, axis=1) + spec.within_group_noise * eps
        assert same_bits(generate(spec).X, want)

    def test_traced_peak_is_one_cohort(self):
        d, peak = traced_peak(lambda: generate(SyntheticSpec(n_samples=2000, n_groups=50)))
        assert d.X.shape == (2000, 500)
        # 2.10 with the repeated latents beside the noise, 3.12 with the scaled
        # noise as a third buffer
        assert peak <= 1.2 * d.X.nbytes

    def test_noise_point_one_high_correlation(self):
        spec = SyntheticSpec(n_samples=500, n_groups=4, group_size=5,
                             within_group_noise=0.1, n_informative_groups=2, seed=2)
        corr = within_group_correlations(generate(spec), spec)
        assert corr.mean() > 0.9

    def test_same_seed_identical(self):
        a = generate(DEFAULT_SPEC)
        b = generate(DEFAULT_SPEC)
        assert a.X.tobytes() == b.X.tobytes()
        assert np.array_equal(a.y, b.y)

    def test_unlabeled_variant_shares_features(self):
        a = generate(DEFAULT_SPEC)
        b = generate(DEFAULT_SPEC, labeled=False)
        assert b.y is None
        assert a.X.tobytes() == b.X.tobytes()

    def test_population_correlation_matches_formula(self):
        # corr = 1 / (1 + noise^2) within groups
        spec = SyntheticSpec(n_samples=1000, n_groups=5, group_size=4,
                             within_group_noise=0.5, n_informative_groups=2, seed=3)
        corr = within_group_correlations(generate(spec), spec)
        expected = 1.0 / (1.0 + 0.25)
        assert abs(corr.mean() - expected) < 0.03

    def test_cross_group_correlation_near_zero(self):
        spec = SyntheticSpec(n_samples=1000, n_groups=4, group_size=3,
                             within_group_noise=0.3, n_informative_groups=2, seed=4)
        d = generate(spec)
        a = d.X[:, 0]  # group 0
        b = d.X[:, 5]  # group 1
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_feature_names_sorted_lexicographically(self):
        d = generate(DEFAULT_SPEC)
        assert list(d.feature_names) == sorted(d.feature_names)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_informative_groups=99)
        with pytest.raises(ValueError):
            SyntheticSpec(label_noise=0.5)


    @pytest.mark.parametrize("field, value", [
        ("n_samples", 2.5), ("n_samples", float("nan")), ("n_groups", 2.5),
        ("group_size", True), ("n_informative_groups", 1.5), ("seed", 2.5), ("seed", -1),
    ])
    def test_integer_fields_rejected_with_their_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field", ["within_group_noise", "true_weight_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field", ["within_group_noise", "true_weight_scale", "label_noise"])
    @pytest.mark.parametrize("value", [True, "0.1"])
    def test_bools_and_strings_rejected_with_their_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite, got {value!r}"):
            SyntheticSpec(**{field: value})


class TestMakeGroupGraph:
    def test_two_groups_of_two(self):
        spec = SyntheticSpec(n_groups=2, group_size=2, n_informative_groups=1)
        assert len(make_group_graph(spec).edges) == 2

    def test_single_group_clique_size(self):
        spec = SyntheticSpec(n_groups=1, group_size=4, n_informative_groups=1)
        assert len(make_group_graph(spec).edges) == 6  # C(4,2)

    def test_laplacian_has_one_zero_eigenvalue_per_group(self):
        spec = SyntheticSpec(n_groups=3, group_size=4, n_informative_groups=1)
        d = generate(spec)
        lap = build_laplacian(make_group_graph(spec), d.feature_names)
        eigenvalues = np.linalg.eigvalsh(lap)
        assert int(np.sum(np.abs(eigenvalues) < 1e-8)) == spec.n_groups


class TestSignalRecovery:
    def test_lasso_auc_beats_chance_on_default_spec(self):
        # regression value recorded from a fixed-seed run: AUC ~0.73 > 0.6
        train = standardize(generate(DEFAULT_SPEC))
        holdout_spec = SyntheticSpec(**{**DEFAULT_SPEC.__dict__, "seed": DEFAULT_SPEC.seed + 1})
        holdout = standardize(generate(holdout_spec))
        cfg = OptimizerConfig(max_iters=600, learning_rate=0.02, rel_tol=1e-8, seed=0)
        fit = fit_model(ModelSpec("lasso"), train, HyperParams(alpha=0.01), cfg)
        scores = holdout.X @ fit.effective_theta + fit.bias
        value = auc(PredictionSet(scores=scores, labels=holdout.y))
        assert value > 0.6


BUNDLE = ("train.csv", "validation.csv", "augment.csv", "graph.tsv")
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


class TestBundle:
    def test_bytes_match_the_cohorts_written_one_by_one(self, tmp_path):
        spec = SyntheticSpec(n_samples=30, n_groups=3, group_size=4, seed=7)
        want = tmp_path / "want"
        want.mkdir()
        write_dataset_csv(generate(spec), want / "train.csv")
        write_dataset_csv(
            generate(dataclasses.replace(spec, seed=spec.seed + 1)), want / "validation.csv"
        )
        write_dataset_csv(
            generate(dataclasses.replace(spec, seed=spec.seed + 2), labeled=False),
            want / "augment.csv",
        )
        write_feature_graph(make_group_graph(spec), want / "graph.tsv")

        write_bundle(spec, tmp_path / "got")
        assert sorted(p.name for p in (tmp_path / "got").iterdir()) == sorted(BUNDLE)
        for name in BUNDLE:
            assert (tmp_path / "got" / name).read_bytes() == (want / name).read_bytes(), name


class TestAcceptanceConfigs:
    def test_match_the_benchmark_ordering_configs(self, tmp_path, monkeypatch):
        # perfbench states the same five configs at B = 3; a drift in either fails here
        ordering = load_workloads(monkeypatch).Ordering(0, tmp_path).setup()
        configs = acceptance_configs(tmp_path)
        assert list(configs) == list(ordering)
        for model, cfg in configs.items():
            assert dataclasses.replace(cfg, n_bootstraps=3) == ordering[model], model
