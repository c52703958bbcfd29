"""In-memory span tracer that hooks stablepred's public functions from outside.

Each hook replaces a public function of a ``stablepred`` module, in every
``stablepred`` module that imported it by name, with a wrapper that records a
span: (id, parent id, name, start, end, root).  A call made while a span of the
same layer is open (``lasso_graph_loss`` calling ``lasso_loss``) records no
span, so a layer's span count is its number of entries from other layers.
Spans stay in memory until ``write`` at the end of the run; per-layer numbers
are derived from them, a layer's self time being its spans' durations minus
what their child spans cover.

A hook whose target function no longer exists is skipped, and every metric
that depends on it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "data",
    "synthetic",
    "objectives",
    "optimizer",
    "models",
    "stability",
    "metrics",
    "experiment",
    "cli",
)

# Model families the workloads fit; per-family metrics exist for each.
FAMILIES = (
    "lasso",
    "lasso-graph",
    "lasso-autoencoder",
    "lasso-autoencoder-graph",
    "ag-lasso-autoencoder-graph",
)

VALUE_FNS = ("joint_loss", "lasso_loss", "elastic_net_loss", "lasso_graph_loss")
GRAD_FNS = ("joint_grad", "lasso_grad", "elastic_net_grad", "lasso_graph_grad")

# (layer, public functions hooked in stablepred.<layer>)
HOOKS = (
    ("data", ("load_dataset", "write_dataset_csv", "write_feature_graph",
              "load_feature_graph", "align_common_features", "standardize",
              "standardize_like", "build_laplacian", "make_dataset")),
    ("synthetic", ("generate", "make_group_graph")),
    ("objectives", VALUE_FNS + GRAD_FNS),
    ("optimizer", ("minimize",)),
    ("models", ("fit_model",)),
    ("stability", ("run_bootstraps", "feature_importance", "top_k_subsets",
                   "mean_consistency", "snr", "snr_above")),
    ("metrics", ("auc", "best_f_threshold", "selected_count")),
    ("experiment", ("run_experiment", "emit_report")),
    ("cli", ("main",)),
)


def _metric_table() -> dict[str, list[str]]:
    """Every per-layer metric, mapped to the hooks ("layer.fn") it needs."""
    value = [f"objectives.{f}" for f in VALUE_FNS]
    grad = [f"objectives.{f}" for f in GRAD_FNS]
    fit = ["models.fit_model"]
    table = {f"{layer}.self_s": [f"{layer}.{f}" for f in fns] for layer, fns in HOOKS}
    # A fused objective would leave its time inside minimize, so optimizer
    # self time means "step arithmetic only" only while the objective hooks hold.
    table["optimizer.self_s"] += value + grad
    table.update({
        "data.load_s": ["data.load_dataset"],
        "data.load_mb_per_s": ["data.load_dataset"],
        "data.write_s": ["data.write_dataset_csv", "data.write_feature_graph"],
        "data.align_calls": ["data.align_common_features"],
        "synthetic.generate_s": ["synthetic.generate", "synthetic.make_group_graph"],
        "objectives.value_calls": value,
        "objectives.grad_calls": grad,
        "objectives.value_s": value,
        "objectives.grad_s": grad,
        "optimizer.self_us_per_iter": table["optimizer.self_s"] + fit,
        "models.fits": fit,
        "stability.bootstrap_self_s": ["stability.run_bootstraps"],
        "stability.topk_s": ["stability.top_k_subsets"],
        "stability.consistency_s": ["stability.mean_consistency"],
        "stability.consistency_pairs": ["stability.mean_consistency"],
        "stability.snr_s": ["stability.snr", "stability.snr_above"],
        "metrics.auc_s": ["metrics.auc"],
        "metrics.f_threshold_s": ["metrics.best_f_threshold"],
        "metrics.f_threshold_candidates": ["metrics.best_f_threshold"],
        "experiment.emit_s": ["experiment.emit_report"],
        "trace.wall_s": [],
        "trace.overhead_ratio": [],
    })
    for fam in FAMILIES:
        for key in ("optimizer.iterations", "optimizer.converged", "models.fits",
                    "models.fit_s"):
            table[f"{key}.{fam}"] = fit
    return table


METRICS = _metric_table()


def metric_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_us_per_iter"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.startswith("models.fit_s."):
        return "s"
    return "count"


class Tracer:
    """Records spans of hooked calls between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent, name index, start_ns, end_ns, root)
        self.roots: list[str] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: set[str] = set()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._root = -1
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, key: str, value: float) -> None:
        self.counts[self._root][key] += value

    def span(self, name: str, layer: str, fn, args, kwargs):
        """Call ``fn`` inside a span named ``name`` of ``layer``."""
        stack = self._stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        stack.append((sid, layer))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self._name_id(name), start - self._t0,
                               end - self._t0, self._root))
        counter = _COUNTERS.get(name)
        if counter is not None:
            counter(self, args, kwargs, result, (end - start) / 1e9)
        return result

    def root(self, kind: str, fn, *args):
        """Run ``fn`` as a new root span (one set-up or one pass)."""
        self._root = len(self.roots)
        self.roots.append(kind)
        try:
            return self.span(f"bench.{kind}", "bench", fn, args, {})
        finally:
            self._root = -1

    def install(self) -> None:
        """Wrap every hooked function wherever a stablepred module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stablepred" or n.startswith("stablepred."))]
        for layer, fns in HOOKS:
            home = importlib.import_module(f"stablepred.{layer}")
            for fname in fns:
                hook = f"{layer}.{fname}"
                target = getattr(home, fname, None)
                if not callable(target):
                    self.missing.add(hook)
                    continue
                wrapper = self._wrap(target, hook, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._patched.append((mod, attr, target))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, target in reversed(self._patched):
            setattr(mod, attr, target)
        self._patched.clear()

    def _wrap(self, fn, hook: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(hook, layer, fn, args, kwargs)

        return wrapper

    def root_totals(self) -> list[dict[str, float]]:
        """Per root: inclusive seconds and span count per name, self seconds
        per name and per layer, plus the counts recorded at hook boundaries."""
        child = defaultdict(int)
        for sid, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = [defaultdict(float) for _ in self.roots]
        for sid, parent, nid, start, end, root in self.spans:
            if root < 0:
                continue
            name = self.names[nid]
            layer = name.split(".", 1)[0]
            dur = end - start
            own = (dur - child[sid]) / 1e9
            t = totals[root]
            t[f"incl:{name}"] += dur / 1e9
            t[f"self:{name}"] += own
            t[f"self:{layer}"] += own
            t[f"spans:{name}"] += 1
        for root, counts in self.counts.items():
            if root >= 0:
                for key, value in counts.items():
                    totals[root][key] += value
        return totals

    def absent(self) -> list[str]:
        """Metrics that cannot be derived because a hook target is missing."""
        return [n for n, hooks in METRICS.items() if any(h in self.missing for h in hooks)]

    def write(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload.update(
            names=self.names,
            roots=self.roots,
            span_fields=["id", "parent", "name", "start_ns", "end_ns", "root"],
            spans=self.spans,
            missing_hooks=sorted(self.missing),
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_fit(tracer, args, kwargs, result, duration):
    fam = _arg(args, kwargs, "spec").name
    tracer.add("models.fits", 1)
    tracer.add(f"models.fits.{fam}", 1)
    tracer.add(f"models.fit_s.{fam}", duration)
    res = getattr(result, "result", None)
    if getattr(res, "iterations_used", None) is None:
        tracer.missing.add("models.fit_model")
        return
    tracer.add("optimizer.iterations", res.iterations_used)
    tracer.add(f"optimizer.iterations.{fam}", res.iterations_used)
    tracer.add(f"optimizer.converged.{fam}", int(bool(res.converged)))


def _count_load(tracer, args, kwargs, result, duration):
    tracer.add("data.load_bytes", os.path.getsize(_arg(args, kwargs, "path")))


def _count_pairs(tracer, args, kwargs, result, duration):
    b = len(_arg(args, kwargs, "f").subsets)
    tracer.add("stability.consistency_pairs", b * (b - 1) // 2)


def _count_candidates(tracer, args, kwargs, result, duration):
    import numpy as np

    scores = _arg(args, kwargs, "p").scores
    tracer.add("metrics.f_threshold_candidates", np.unique(scores).size + 1)


# Counts taken at a hook's boundary, after its span has closed.
_COUNTERS = {
    "models.fit_model": _count_fit,
    "data.load_dataset": _count_load,
    "stability.mean_consistency": _count_pairs,
    "metrics.best_f_threshold": _count_candidates,
}


def median(values):
    values = sorted(values)
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2.0


def layer_metrics(t: dict, setups: list[dict]) -> dict[str, float]:
    """Per-layer metric values of one traced pass; set-up metrics are the
    median over the traced set-ups."""

    def incl(*hooks):
        return sum(t.get(f"incl:{h}", 0.0) for h in hooks)

    out = {f"{layer}.self_s": t.get(f"self:{layer}", 0.0) for layer in LAYERS}
    load_s = incl("data.load_dataset")
    out["data.load_s"] = load_s
    out["data.load_mb_per_s"] = t.get("data.load_bytes", 0.0) / 1e6 / load_s if load_s else 0.0
    out["data.align_calls"] = t.get("spans:data.align_common_features", 0.0)
    out["objectives.value_calls"] = sum(t.get(f"spans:objectives.{f}", 0.0) for f in VALUE_FNS)
    out["objectives.grad_calls"] = sum(t.get(f"spans:objectives.{f}", 0.0) for f in GRAD_FNS)
    out["objectives.value_s"] = incl(*(f"objectives.{f}" for f in VALUE_FNS))
    out["objectives.grad_s"] = incl(*(f"objectives.{f}" for f in GRAD_FNS))
    iters = t.get("optimizer.iterations", 0.0)
    out["optimizer.self_us_per_iter"] = out["optimizer.self_s"] / iters * 1e6 if iters else 0.0
    out["models.fits"] = t.get("models.fits", 0.0)
    out["stability.bootstrap_self_s"] = t.get("self:stability.run_bootstraps", 0.0)
    out["stability.topk_s"] = incl("stability.top_k_subsets")
    out["stability.consistency_s"] = incl("stability.mean_consistency")
    out["stability.consistency_pairs"] = t.get("stability.consistency_pairs", 0.0)
    out["stability.snr_s"] = incl("stability.snr", "stability.snr_above")
    out["metrics.auc_s"] = incl("metrics.auc")
    out["metrics.f_threshold_s"] = incl("metrics.best_f_threshold")
    out["metrics.f_threshold_candidates"] = t.get("metrics.f_threshold_candidates", 0.0)
    out["experiment.emit_s"] = incl("experiment.emit_report")
    for fam in FAMILIES:
        for key in ("optimizer.iterations", "optimizer.converged", "models.fits",
                    "models.fit_s"):
            out[f"{key}.{fam}"] = t.get(f"{key}.{fam}", 0.0)

    def setup_median(*hooks):
        return median([sum(s.get(f"incl:{h}", 0.0) for h in hooks) for s in setups] or [0.0])

    out["data.write_s"] = setup_median("data.write_dataset_csv", "data.write_feature_graph")
    out["synthetic.generate_s"] = setup_median("synthetic.generate", "synthetic.make_group_graph")
    return out
