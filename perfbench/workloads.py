"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload is built from a seed and a work directory.  ``setup`` writes
its inputs there and returns what a pass needs; ``run_pass`` performs the
operations one after another (one closed-loop client) and returns one
``Outcome`` per operation; ``check`` returns one failure message per
operation whose output is wrong.

Why these three:

* ``ordering`` is the paper's headline experiment: the five acceptance
  configs through ``run_experiment``.  Small fits dominate it.  Its training
  bundle is the default one at every seed, because convergence (and with it
  the work) changes from cohort to cohort by more than the bound; the seed
  draws the validation cohort.
* ``wide`` runs ``stablepred run`` through ``cli.main`` on a generated
  2000 x 1000 cohort: the same objective and optimizer code on few
  large-matrix iterations, plus real CSV load and write.
* ``evaluate`` runs the reductions alone on stored B=500 x N=1000 ensembles
  and M=8000 scores; it bypasses fitting, so it is the control for fitting
  changes and the one workload where the reductions carry the load.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from stablepred import cli, data, experiment, metrics, stability, synthetic
from stablepred.experiment import ExperimentConfig
from stablepred.objectives import HyperParams
from stablepred.optimizer import NumericalDivergenceError, OptimizerConfig
from stablepred.stability import BootstrapEnsemble

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")
SNR_THRESHOLD = 1.96


@dataclasses.dataclass
class Outcome:
    name: str
    value: object = None
    error: str | None = None


def describe_error(exc: BaseException) -> str:
    """One line naming the exception; a divergence names its bootstrap."""
    if isinstance(exc, NumericalDivergenceError):
        m = re.search(r"bootstrap (\d+)", str(exc))
        where = f"bootstrap {m.group(1)}" if m else "final fit"
        return f"divergence at {where}, iteration {exc.iteration}: {exc}"
    return f"{type(exc).__name__}: {exc}"


def run_ops(ops) -> list[Outcome]:
    """Run (name, fn) pairs in order; an exception fails only its operation."""
    out = []
    for name, fn in ops:
        try:
            out.append(Outcome(name, fn()))
        except Exception as exc:  # noqa: BLE001 - every failure counts against error_rate
            out.append(Outcome(name, error=describe_error(exc)))
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def _close(name, got, want, tol) -> list[str]:
    got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got_a.shape != want_a.shape:
        return [f"{name}: shape {got_a.shape} != reference {want_a.shape}"]
    diff = float(np.max(np.abs(got_a - want_a))) if got_a.size else 0.0
    return [] if diff <= tol else [f"{name}: {got} differs from reference {want} by {diff:.3g} > {tol}"]


def _in_range(name, value, lo, hi) -> list[str]:
    v = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"{name}: non-finite value"]
    if np.any(v < lo) or np.any(v > hi):
        return [f"{name}: {value} outside [{lo}, {hi}]"]
    return []


# ---------------------------------------------------------------------------
# report-shaped outputs (ordering and wide)

# Tolerances against the recorded reference.  They admit a fit engine that is
# not bit-identical (one top-k swap in one bootstrap moves mean CI by about
# 1/(B-1) of a pair's step) but not a changed model.
REPORT_TOLERANCE = {
    "ci": 0.05,
    "validation_auc": 0.01,
    "f_score": 0.02,
    "selected_fraction": 0.02,
    "snr_above_count": 1,
    "mean_weights_rel_l2": 0.05,
}


def report_summary(report: dict) -> dict:
    return {
        "ci": [row["mean_ci"] for row in report["ci_curve"]],
        "validation_auc": report["validation_auc"],
        "f_score": report["f_score"],
        "selected_fraction": report["selected_fraction"],
        "snr_above_count": report["snr_above_count"],
        "mean_weights": report["mean_weights"],
    }


def check_report(report: dict, cfg: ExperimentConfig, n_features: int, ref: dict | None) -> list[str]:
    """Range checks at any seed, plus reference values when ``ref`` is given."""
    errs = []
    ks = [row["k"] for row in report["ci_curve"]]
    if ks != list(cfg.k_list):
        errs.append(f"ci_curve k values {ks} != {list(cfg.k_list)}")
    # with k <= d/2 the consistency index lies in [-1, 1]
    errs += _in_range("mean_ci", [row["mean_ci"] for row in report["ci_curve"]], -1.0, 1.0)
    errs += _in_range("validation_auc", report["validation_auc"], 0.0, 1.0)
    errs += _in_range("f_score", report["f_score"], 0.0, 1.0)
    errs += _in_range("selected_fraction", report["selected_fraction"], 0.0, 1.0)
    errs += _in_range("snr_above_count", report["snr_above_count"], 0, cfg.top_for_snr)
    errs += _in_range("importance", report["importance"], 0.0, math.inf)
    errs += _in_range("mean_weights", report["mean_weights"], -math.inf, math.inf)
    if report["n_features"] != n_features or len(report["mean_weights"]) != n_features:
        errs.append(f"n_features {report['n_features']} != {n_features}")
    seeds = [cfg.optimizer.seed + b for b in range(cfg.n_bootstraps)]
    if report["bootstrap_seeds"] != seeds:
        errs.append(f"bootstrap_seeds {report['bootstrap_seeds']} != {seeds}")
    if ref is not None:
        got = report_summary(report)
        tol = REPORT_TOLERANCE
        for key in ("ci", "validation_auc", "f_score", "selected_fraction", "snr_above_count"):
            errs += _close(key, got[key], ref[key], tol[key])
        w, w_ref = np.asarray(got["mean_weights"]), np.asarray(ref["mean_weights"])
        rel = float(np.linalg.norm(w - w_ref) / max(np.linalg.norm(w_ref), 1e-12))
        if rel > tol["mean_weights_rel_l2"]:
            errs.append(f"mean_weights: relative L2 distance {rel:.3g} from reference")
    return errs


# ---------------------------------------------------------------------------
# ordering

# The acceptance experiment's frozen settings (tests/test_acceptance.py).
EXPERIMENT_SEED = 11
ORDERING_OPTIMIZER = dict(max_iters=2500, learning_rate=0.02, adaptive=True, rel_tol=1e-7)
H_LINEAR = HyperParams(alpha=0.01)
H_LINEAR_GRAPH = HyperParams(alpha=0.01, lambda_fg=0.015)
H_AE = HyperParams(alpha=0.05, lambda_ae=100.0, lambda_l2=1e-3, hidden_units=10)
H_AE_GRAPH = HyperParams(alpha=0.05, lambda_ae=100.0, lambda_l2=1e-3, lambda_fg=0.1,
                         hidden_units=10)
ORDERING_MODELS = (
    # (model, hyperparameters, uses the graph, uses the augment cohort)
    ("lasso", H_LINEAR, False, False),
    ("lasso-graph", H_LINEAR_GRAPH, True, False),
    ("lasso-autoencoder", H_AE, False, False),
    ("lasso-autoencoder-graph", H_AE_GRAPH, True, False),
    ("ag-lasso-autoencoder-graph", H_AE_GRAPH, True, True),
)


@dataclasses.dataclass(frozen=True)
class OrderingSizes:
    spec: synthetic.SyntheticSpec = synthetic.DEFAULT_SPEC
    n_bootstraps: int = 3
    max_iters: int = ORDERING_OPTIMIZER["max_iters"]
    k: int = 20
    top_for_snr: int = 20


class Ordering:
    name = "ordering"

    def __init__(self, seed: int, workdir: Path, sizes: OrderingSizes | None = None):
        self.seed = seed
        self.dir = Path(workdir)
        self.sizes = sizes or OrderingSizes()
        self.full = sizes is None

    def inputs(self) -> dict:
        s = self.sizes
        n = s.spec.n_features
        return {
            "train": [s.spec.n_samples, n],
            "validation": [s.spec.n_samples, n],
            "augment": [s.spec.n_samples, n],
            "models": [m[0] for m in ORDERING_MODELS],
            "B": s.n_bootstraps,
            "k_list": [s.k],
            "M": s.spec.n_samples,
            "x_bytes_computed": s.spec.n_samples * n * 8,
        }

    def setup(self):
        s, d = self.sizes, self.dir
        d.mkdir(parents=True, exist_ok=True)
        spec = s.spec
        # the training bundle is the default one; the seed draws the validation cohort
        validation_spec = dataclasses.replace(spec, seed=spec.seed + 1 + 3 * self.seed)
        data.write_dataset_csv(synthetic.generate(spec), d / "train.csv")
        data.write_dataset_csv(synthetic.generate(validation_spec), d / "validation.csv")
        data.write_dataset_csv(
            synthetic.generate(dataclasses.replace(spec, seed=spec.seed + 2), labeled=False),
            d / "augment.csv",
        )
        data.write_feature_graph(synthetic.make_group_graph(spec), d / "graph.tsv")
        optimizer = OptimizerConfig(
            **dict(ORDERING_OPTIMIZER, max_iters=s.max_iters), seed=EXPERIMENT_SEED
        )
        configs = {}
        for model, h, graph, augment in ORDERING_MODELS:
            configs[model] = ExperimentConfig(
                train_path=str(d / "train.csv"),
                validation_path=str(d / "validation.csv"),
                model=model,
                hyperparams=h,
                graph_path=str(d / "graph.tsv") if graph else None,
                augment_path=str(d / "augment.csv") if augment else None,
                optimizer=optimizer,
                n_bootstraps=s.n_bootstraps,
                k_list=(s.k,),
                top_for_snr=s.top_for_snr,
            )
        return configs

    def run_pass(self, configs) -> list[Outcome]:
        def op(model, cfg):
            def run():
                report = experiment.run_experiment(cfg)
                experiment.emit_report(report, self.dir / "reports" / model)
                return report

            return run

        return run_ops([(model, op(model, cfg)) for model, cfg in configs.items()])

    def report_bytes(self, model: str) -> bytes:
        return (self.dir / "reports" / model / "report.json").read_bytes()

    def summary(self, configs, outcomes) -> dict:
        hashes = self.info(outcomes)["report_sha256"]
        return {
            o.name: dict(report_summary(json.loads(self.report_bytes(o.name))),
                         report_sha256=hashes[o.name])
            for o in outcomes
        }

    def check(self, configs, outcomes) -> list[list[str]]:
        ref = load_reference(self.name) if self.full else None
        at_reference = self.full and self.seed == DEFAULT_SEED
        failures = []
        ci = {}
        for o in outcomes:
            if o.error is not None:
                failures.append([o.error])
                continue
            report = json.loads(self.report_bytes(o.name))
            errs = check_report(report, configs[o.name], self.sizes.spec.n_features,
                                ref[o.name] if at_reference else None)
            if ref is not None and not at_reference:
                # the training bundle and bootstraps, hence the CI, are the same at every seed
                errs += _close("ci", report_summary(report)["ci"], ref[o.name]["ci"],
                               REPORT_TOLERANCE["ci"])
            ci[o.name] = report["ci_curve"][0]["mean_ci"]
            failures.append(errs)
        if self.full and len(ci) == len(ORDERING_MODELS):
            errs = criterion_6_ordering(ci)
            if errs:
                failures[-1] = failures[-1] + errs
        return failures

    def info(self, outcomes) -> dict:
        """SHA-256 of each report.json, and whether it matches the one recorded
        at the default seed.  Informational: a fit engine that is not
        bit-identical changes it without failing the run."""
        hashes = {o.name: hashlib.sha256(self.report_bytes(o.name)).hexdigest()
                  for o in outcomes if o.error is None}
        out = {"report_sha256": hashes}
        if self.full and self.seed == DEFAULT_SEED and REFERENCE_PATH.is_file():
            ref = load_reference(self.name)
            out["report_sha256_matches_reference"] = {
                name: h == ref[name]["report_sha256"] for name, h in hashes.items()
            }
        return out


def criterion_6_ordering(ci: dict) -> list[str]:
    """Acceptance criterion 6: the stability ordering of mean CI."""
    rules = [
        ("lasso-autoencoder > lasso", ci["lasso-autoencoder"] > ci["lasso"]),
        ("ag >= lasso-autoencoder-graph",
         ci["ag-lasso-autoencoder-graph"] >= ci["lasso-autoencoder-graph"]),
        ("lasso-autoencoder-graph >= lasso-graph",
         ci["lasso-autoencoder-graph"] >= ci["lasso-graph"]),
        ("lasso-graph > lasso", ci["lasso-graph"] > ci["lasso"]),
        ("best autoencoder model - lasso > 0.02",
         max(ci["lasso-autoencoder"], ci["lasso-autoencoder-graph"],
             ci["ag-lasso-autoencoder-graph"]) - ci["lasso"] > 0.02),
    ]
    return [f"criterion 6 ordering broken: {rule} ({ci})" for rule, ok in rules if not ok]


# ---------------------------------------------------------------------------
# wide

@dataclasses.dataclass(frozen=True)
class WideSizes:
    n_samples: int = 2000
    n_groups: int = 100
    group_size: int = 10
    n_bootstraps: int = 2
    max_iters: int = 400
    k_list: tuple[int, ...] = (20, 50, 100)
    top_for_snr: int = 20


class Wide:
    name = "wide"

    def __init__(self, seed: int, workdir: Path, sizes: WideSizes | None = None):
        self.seed = seed
        self.dir = Path(workdir)
        self.sizes = sizes or WideSizes()
        self.full = sizes is None

    @property
    def n_features(self) -> int:
        return self.sizes.n_groups * self.sizes.group_size

    def inputs(self) -> dict:
        s = self.sizes
        return {
            "train": [s.n_samples, self.n_features],
            "validation": [s.n_samples, self.n_features],
            "graph_edges": s.n_groups * s.group_size * (s.group_size - 1) // 2,
            "models": ["lasso-graph"],
            "B": s.n_bootstraps,
            "k_list": list(s.k_list),
            "M": s.n_samples,
            "x_bytes_computed": s.n_samples * self.n_features * 8,
        }

    def setup(self):
        s, d = self.sizes, self.dir
        d.mkdir(parents=True, exist_ok=True)
        spec = synthetic.SyntheticSpec(
            n_samples=s.n_samples, n_groups=s.n_groups, group_size=s.group_size,
            seed=2 * self.seed,
        )
        data.write_dataset_csv(synthetic.generate(spec), d / "train.csv")
        data.write_dataset_csv(
            synthetic.generate(dataclasses.replace(spec, seed=2 * self.seed + 1)),
            d / "validation.csv",
        )
        data.write_feature_graph(synthetic.make_group_graph(spec), d / "graph.tsv")
        cfg = ExperimentConfig(
            train_path=str(d / "train.csv"),
            validation_path=str(d / "validation.csv"),
            model="lasso-graph",
            graph_path=str(d / "graph.tsv"),
            hyperparams=H_LINEAR_GRAPH,
            optimizer=OptimizerConfig(
                max_iters=s.max_iters, learning_rate=0.02, rel_tol=1e-7, seed=self.seed
            ),
            n_bootstraps=s.n_bootstraps,
            k_list=s.k_list,
            top_for_snr=s.top_for_snr,
            output_dir=str(d / "report"),
        )
        path = d / "experiment.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        return cfg, path

    def run_pass(self, state) -> list[Outcome]:
        _, path = state

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", str(path)])
            if code != 0:
                raise RuntimeError(f"stablepred run exited {code}: {err.getvalue().strip()}")
            return code

        return run_ops([("stablepred run", run)])

    def _report(self) -> dict:
        with open(self.dir / "report" / "report.json", encoding="utf-8") as fh:
            return json.load(fh)

    def summary(self, state, outcomes) -> dict:
        return report_summary(self._report())

    def check(self, state, outcomes) -> list[list[str]]:
        cfg, _ = state
        ref = load_reference(self.name) if self.full and self.seed == DEFAULT_SEED else None
        failures = []
        for o in outcomes:
            if o.error is not None:
                failures.append([o.error])
                continue
            errs = []
            for fname in ("report.json", "ci_curve.csv", "snr_top.csv", "weights_mean.csv"):
                if not (self.dir / "report" / fname).is_file():
                    errs.append(f"{fname} not written")
            if not errs:
                errs = check_report(self._report(), cfg, self.n_features, ref)
            failures.append(errs)
        return failures


# ---------------------------------------------------------------------------
# evaluate

@dataclasses.dataclass(frozen=True)
class EvaluateSizes:
    n_bootstraps: int = 500
    n_features: int = 1000
    n_scores: int = 8000
    k_list: tuple[int, ...] = (10, 20, 50)
    top_for_snr: int = 20
    support: int = 40
    # one stored ensemble per noise level: more noise, less stable subsets
    noise: tuple[float, ...] = (0.3, 1.0)


EVALUATE_TOLERANCE = 1e-9


class Evaluate:
    name = "evaluate"

    def __init__(self, seed: int, workdir: Path, sizes: EvaluateSizes | None = None):
        self.seed = seed
        self.dir = Path(workdir)
        self.sizes = sizes or EvaluateSizes()
        self.full = sizes is None

    def inputs(self) -> dict:
        s = self.sizes
        return {
            "ensembles": len(s.noise),
            "B": s.n_bootstraps,
            "N": s.n_features,
            "k_list": list(s.k_list),
            "M": s.n_scores,
            "x_bytes_computed": len(s.noise) * (s.n_bootstraps * s.n_features + 2 * s.n_scores) * 8,
        }

    def setup(self):
        s, d = self.sizes, self.dir
        d.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        theta = np.zeros(s.n_features)
        support = rng.choice(s.n_features, size=s.support, replace=False)
        theta[support] = rng.normal(0.0, 1.0, s.support)
        np.save(d / "raw_std.npy", rng.uniform(0.5, 2.0, s.n_features))
        for e, noise in enumerate(s.noise):
            weights = theta + noise * rng.standard_normal((s.n_bootstraps, s.n_features))
            labels = np.where(rng.random(s.n_scores) < 0.5, 1.0, -1.0)
            scores = labels + rng.normal(0.0, 1.5, s.n_scores)
            np.save(d / f"weights_{e}.npy", weights)
            np.save(d / f"scores_{e}.npy", scores)
            np.save(d / f"labels_{e}.npy", labels)
        raw_std = np.load(d / "raw_std.npy")
        stored = [
            (np.load(d / f"weights_{e}.npy"), np.load(d / f"scores_{e}.npy"),
             np.load(d / f"labels_{e}.npy"))
            for e in range(len(s.noise))
        ]
        return raw_std, stored

    def run_pass(self, state) -> list[Outcome]:
        raw_std, stored = state
        s = self.sizes

        def op(e, weights, scores, labels):
            def run():
                ens = BootstrapEnsemble(
                    weights=weights, seeds=tuple(range(len(weights))), model_tag=f"stored-{e}"
                )
                ranking = stability.feature_importance(ens, raw_std)
                ci = [
                    stability.mean_consistency(
                        stability.top_k_subsets(ens, raw_std, k), ens.n_features
                    )
                    for k in s.k_list
                ]
                above = stability.snr_above(ens, ranking, s.top_for_snr, SNR_THRESHOLD)
                p = metrics.PredictionSet(scores=scores, labels=labels)
                thr, f = metrics.best_f_threshold(p)
                return {"ci": ci, "snr_above_count": above, "auc": metrics.auc(p),
                        "f_threshold": thr, "f_score": f}

            return run

        return run_ops([(f"ensemble {e}", op(e, *arrays)) for e, arrays in enumerate(stored)])

    def summary(self, state, outcomes) -> dict:
        return {o.name: o.value for o in outcomes}

    def check(self, state, outcomes) -> list[list[str]]:
        raw_std, stored = state
        ref = load_reference(self.name) if self.full and self.seed == DEFAULT_SEED else None
        failures = []
        for o, (weights, scores, labels) in zip(outcomes, stored):
            if o.error is not None:
                failures.append([o.error])
                continue
            v, errs = o.value, []
            oracle = evaluate_oracle(weights, raw_std, scores, labels, self.sizes)
            errs += _in_range("mean_ci", v["ci"], -1.0, 1.0)
            errs += _in_range("auc", v["auc"], 0.0, 1.0)
            errs += _in_range("f_score", v["f_score"], 0.0, 1.0)
            errs += _close("mean_ci vs closed form", v["ci"], oracle["ci"], EVALUATE_TOLERANCE)
            errs += _close("auc vs sorted count", v["auc"], oracle["auc"], EVALUATE_TOLERANCE)
            errs += _close("f_score vs cumulative counts", v["f_score"], oracle["f_score"],
                           EVALUATE_TOLERANCE)
            errs += _close("F1 at the returned threshold", v["f_score"],
                           f1_at(scores, labels, v["f_threshold"]), EVALUATE_TOLERANCE)
            if v["snr_above_count"] != oracle["snr_above_count"]:
                errs.append(f"snr_above_count {v['snr_above_count']} != "
                            f"{oracle['snr_above_count']}")
            if ref is not None:
                want = ref[o.name]
                for key in ("ci", "auc", "f_score", "f_threshold", "snr_above_count"):
                    errs += _close(key, v[key], want[key], EVALUATE_TOLERANCE)
            failures.append(errs)
        return failures


def f1_at(scores, labels, threshold) -> float:
    predicted = scores >= threshold
    tp = int(np.sum(predicted & (labels > 0)))
    n_pos = int(np.sum(labels > 0))
    return 2.0 * tp / (int(predicted.sum()) + n_pos) if tp else 0.0


def evaluate_oracle(weights, raw_std, scores, labels, s: EvaluateSizes) -> dict:
    """The evaluate outputs by independent formulas: consistency index from
    per-feature selection counts (Kuncheva's index is linear in the overlap),
    AUC by counting with sorted negatives, best F1 by cumulative counts."""
    b, d = weights.shape
    ci = []
    for k in s.k_list:
        top = np.argsort(-(np.abs(weights) * raw_std), axis=1, kind="stable")[:, :k]
        counts = np.bincount(top.ravel(), minlength=d).astype(float)
        mean_r = float(np.sum(counts * (counts - 1) / 2.0)) / (b * (b - 1) / 2.0)
        ci.append((mean_r * d - k * k) / (k * (d - k)))

    pos, neg = scores[labels > 0], np.sort(scores[labels < 0])
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    auc = float(np.sum(below + 0.5 * ties)) / (len(pos) * len(neg))

    # predicting positive at score >= u for each distinct score u, plus "none"
    order = np.argsort(-scores, kind="stable")
    s_sorted, positive = scores[order], (labels[order] > 0).astype(float)
    tp_cum = np.cumsum(positive)
    last = np.r_[s_sorted[1:] != s_sorted[:-1], True]
    n_pred = np.arange(1, len(scores) + 1)[last]
    tp = tp_cum[last]
    f1 = np.where(tp > 0, 2.0 * tp / (n_pred + positive.sum()), 0.0)

    means = weights.mean(axis=0)
    stds = weights.std(axis=0, ddof=1)
    snr = np.divide(np.abs(means), stds, out=np.where(means != 0, np.inf, 0.0), where=stds > 0)
    ranking = np.argsort(-(np.abs(means) * raw_std), kind="stable")
    above = int(np.sum(snr[ranking[: s.top_for_snr]] >= SNR_THRESHOLD))
    return {"ci": ci, "auc": auc, "f_score": float(f1.max()), "snr_above_count": above}


WORKLOADS = {w.name: w for w in (Ordering, Wide, Evaluate)}
