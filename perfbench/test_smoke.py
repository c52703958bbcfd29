"""Smoke test of the benchmark itself at tiny sizes.

Each workload runs once untraced and once traced.  The untraced run must
emit every end-to-end metric of BENCHMARK.json with its unit, the traced run
every per-layer metric, and the traced run's spans must cover the layers the
workload is meant to exercise (and none of the fitting layers on evaluate).

    python3 -m pytest perfbench/test_smoke.py
"""

import json

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from stablepred.synthetic import SyntheticSpec  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "ordering": workloads.OrderingSizes(
        spec=SyntheticSpec(n_samples=60, n_groups=4, group_size=5),
        n_bootstraps=2, max_iters=30, k=5, top_for_snr=5,
    ),
    "wide": workloads.WideSizes(
        n_samples=80, n_groups=6, group_size=5, n_bootstraps=2, max_iters=30,
        k_list=(5, 10), top_for_snr=5,
    ),
    "evaluate": workloads.EvaluateSizes(
        n_bootstraps=20, n_features=60, n_scores=200, k_list=(5, 10), top_for_snr=5,
        support=8,
    ),
}

FITTING = {"objectives", "optimizer", "models"}
# layers whose spans each workload must record; evaluate must record no fitting
EXPECTED_LAYERS = {
    "ordering": set(tracing.LAYERS) - {"cli"},
    "wide": set(tracing.LAYERS),
    "evaluate": {"stability", "metrics"},
}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def _traced_layers(path):
    trace = json.loads(path.read_text(encoding="utf-8"))
    return {trace["names"][span[2]].split(".", 1)[0] for span in trace["spans"]}


def test_expected_layers_cover_every_layer():
    assert set().union(*EXPECTED_LAYERS.values()) == set(tracing.LAYERS)


def test_per_layer_metrics_match_benchmark_json():
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed == {name: tracing.metric_unit(name) for name in tracing.METRICS}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_emits_end_to_end_metrics(workload, tmp_path):
    result = run.measure(workload, 0, 0.0, False, tmp_path, TINY[workload])["result"]
    assert result["correct"], result
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_emits_layer_metrics_and_spans(workload, tmp_path):
    out = run.measure(workload, 0, 0.0, True, tmp_path, TINY[workload])
    assert out["result"]["correct"], out["result"]
    assert out["provenance"]["absent"] == []
    assert _units(out["result"]["metrics"]) == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    layers = _traced_layers(tmp_path / "trace.json")
    assert EXPECTED_LAYERS[workload] <= layers
    if workload == "evaluate":
        assert not layers & FITTING


def test_missing_hook_target_drops_its_metrics(tmp_path, monkeypatch):
    import stablepred.objectives

    monkeypatch.delattr(stablepred.objectives, "lasso_loss")
    out = run.measure("evaluate", 0, 0.0, True, tmp_path, TINY["evaluate"])
    assert out["result"]["correct"]
    assert "objectives.lasso_loss" in out["provenance"]["missing_hooks"]
    assert {"objectives.value_s", "objectives.value_calls", "optimizer.self_s"} <= set(
        out["provenance"]["absent"]
    )
    assert "objectives.value_s" not in out["result"]["metrics"]
    assert "metrics.auc_s" in out["result"]["metrics"]
