"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  The ordering experiment (criteria 6-8) runs five bootstrap
ensembles on the default synthetic cohort bundle; ``conftest.py`` runs it once
per session.
"""

import dataclasses
import functools
import time

import numpy as np

from stablepred.data import standardize
from stablepred.experiment import emit_report, run_experiment
from stablepred.metrics import auc
from stablepred.objectives import (
    HyperParams,
    autoencoder_objective,
    joint_objective,
    linear_objective,
)
from stablepred.optimizer import OptimizerConfig, init_params, minimize
from stablepred.stability import SubsetFamily, consistency_index, mean_consistency
from stablepred.synthetic import DEFAULT_SPEC, acceptance_configs, generate, write_bundle

from test_metrics import pairwise_auc, random_prediction_set
from test_objectives import (
    finite_difference,
    objective_closures,
    max_rel_err,
    random_instance,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({title}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({title}): PASS")
            return result

        return wrapper

    return decorate


@criterion(1, "gradient correctness, 7 losses x 20 instances")
def test_criterion_1_gradients():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        d, aug, lp, fp, lap, h = random_instance(seed)
        for name, kind, value_and_grad in objective_closures(d, aug, lap, h):
            x0 = (lp if kind == "linear" else fp).to_vector()
            analytic = value_and_grad(x0)[1]
            fun = lambda v: value_and_grad(v)[0]  # noqa: B023
            numeric = finite_difference(fun, x0, step=1e-5)
            err = max_rel_err(analytic, numeric)
            worst = max(worst, err)
            assert err <= 1e-4, f"{name} seed={seed}: relative error {err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"gradient checks took {elapsed:.1f}s (budget 5s)"


@criterion(2, "formula oracles: consistency index and AUC")
def test_criterion_2_formula_oracles():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 60))
        k = int(rng.integers(1, d))
        r = int(rng.integers(max(0, 2 * k - d), k + 1))
        s_i = frozenset(range(k))
        s_j = frozenset(list(range(r)) + list(range(k, 2 * k - r)))
        assert consistency_index(s_i, s_j, d) == (r * d - k * k) / (k * (d - k))

    s = frozenset({3, 1, 4})
    assert consistency_index(s, s, 9) == 1.0
    assert consistency_index(frozenset({0, 1}), frozenset({2, 3}), 4) == -1.0

    rng = np.random.default_rng(2)
    for _ in range(200):
        p = random_prediction_set(rng)
        assert auc(p) == pairwise_auc(p.scores, p.labels)


@criterion(3, "chance correction near zero")
def test_criterion_3_chance_correction():
    rng = np.random.default_rng(3)
    members = np.array([rng.choice(100, size=10, replace=False) for _ in range(200)])
    value = mean_consistency(SubsetFamily(members), 100)
    assert -0.05 <= value <= 0.05, f"mean CI of random subsets = {value:.4f}"


@criterion(4, "joint loss reduces to linear lasso at theta = W^T u")
def test_criterion_4_definitional_identity():
    for seed in range(50):
        d, _, _, fp, _, _ = random_instance(seed)
        h = HyperParams(alpha=0.2, lambda_ae=0.0, lambda_l2=0.0, hidden_units=3)
        linear = linear_objective(d, h)(np.append(fp.effective_theta(), fp.bias))[0]
        assert abs(joint_objective(d, None, h)(fp.to_vector())[0] - linear) <= 1e-12


@criterion(5, "autoencoder training reduces reconstruction tenfold")
def test_criterion_5_autoencoder_sanity():
    start = time.monotonic()
    d = standardize(generate(DEFAULT_SPEC))
    x0 = init_params(d.n_features, DEFAULT_SPEC.n_groups, seed=1).to_vector()
    value_and_grad = autoencoder_objective(d.X)
    initial = value_and_grad(x0)[0]
    cfg = OptimizerConfig(max_iters=4000, learning_rate=0.02, rel_tol=1e-9, seed=1)
    res = minimize(value_and_grad, x0, cfg)
    elapsed = time.monotonic() - start
    assert res.final_loss <= initial / 10.0, (
        f"reconstruction {res.final_loss:.4f} vs initial {initial:.4f}"
    )
    assert elapsed < 30.0, f"autoencoder sanity took {elapsed:.1f}s (budget 30s)"


@criterion(6, "stability ordering of mean consistency at k=20")
def test_criterion_6_stability_ordering(ordering_experiment):
    reports, elapsed = ordering_experiment
    (subset_k,) = acceptance_configs(".")["lasso"].k_list
    ci = {name: r.mean_ci_at(subset_k) for name, r in reports.items()}
    print("  mean CI@20:", {k: round(v, 4) for k, v in ci.items()})

    assert ci["lasso-autoencoder"] > ci["lasso"]
    assert ci["ag-lasso-autoencoder-graph"] >= ci["lasso-autoencoder-graph"]
    assert ci["lasso-autoencoder-graph"] >= ci["lasso-graph"]
    assert ci["lasso-graph"] > ci["lasso"]

    best_autoencoder = max(
        ci["lasso-autoencoder"], ci["lasso-autoencoder-graph"], ci["ag-lasso-autoencoder-graph"]
    )
    assert best_autoencoder - ci["lasso"] > 0.02
    assert elapsed < 600.0, f"ordering experiment took {elapsed:.0f}s (budget 600s)"


@criterion(7, "SNR: autoencoder models certify at least as many top features")
def test_criterion_7_snr_ordering(ordering_experiment):
    reports, _ = ordering_experiment
    baseline = reports["lasso"].snr_above_count
    for name in ("lasso-autoencoder", "lasso-autoencoder-graph", "ag-lasso-autoencoder-graph"):
        assert reports[name].snr_above_count >= baseline, (
            f"{name}: {reports[name].snr_above_count} < lasso's {baseline}"
        )


@criterion(8, "sparser augmented model without performance loss")
def test_criterion_8_sparsity_and_auc(ordering_experiment):
    reports, _ = ordering_experiment
    lasso = reports["lasso"]
    ag = reports["ag-lasso-autoencoder-graph"]
    assert ag.selected_fraction <= lasso.selected_fraction, (
        f"ag fraction {ag.selected_fraction:.3f} > lasso {lasso.selected_fraction:.3f}"
    )
    assert ag.validation_auc >= lasso.validation_auc - 0.03, (
        f"ag AUC {ag.validation_auc:.3f} < lasso {lasso.validation_auc:.3f} - 0.03"
    )


@criterion(9, "byte-identical reports for identical configs")
def test_criterion_9_determinism(tmp_path):
    out = tmp_path / "cohorts"
    write_bundle(dataclasses.replace(DEFAULT_SPEC, n_samples=80), out)
    cfg = dataclasses.replace(
        acceptance_configs(out)["lasso"],
        optimizer=OptimizerConfig(max_iters=300, learning_rate=0.02, rel_tol=1e-8, seed=2),
        n_bootstraps=8,
        k_list=(10, 20),
        top_for_snr=10,
    )
    emit_report(run_experiment(cfg), tmp_path / "run_a")
    emit_report(run_experiment(cfg), tmp_path / "run_b")
    a = (tmp_path / "run_a" / "report.json").read_bytes()
    b = (tmp_path / "run_b" / "report.json").read_bytes()
    assert a == b
