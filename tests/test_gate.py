"""Tolerance gate for changes meant to move numbers only in their last bits.

``gate_reference.json`` holds what such a change is measured against:

- for the six ``TestBitIdentity`` fits: iterations used, convergence, theta,
  bias and final loss;
- for the five acceptance-setting reports (``conftest.run_ordering``): the
  selected count, the SNR top features with their SNR, the CI curve, the mean
  weights, the validation AUC, F threshold and F score, and the SHA-256 of
  report.json.

The gate requires identical iterations, convergence and selected counts,
identical rankings (each fit's |theta| order, each report's SNR top order),
and every stored float within ``TOL`` of its reference.  A byte pin
(``TestBitIdentity``, ``TestReportPin``, the report SHA-256s below) may be
re-recorded only by a change that passes these checks.

Nothing reads report.json back, so ``test_report_written_consistent`` checks
the same five reports where they are written: every value has its field's
builtin type, and every count a report restates agrees with its config.
``test_written_check_refuses`` puts one defect at a time into a written report
and requires that check to name it.

Record the reference from the root of the repository with
``PYTHONPATH=src python tests/test_gate.py``.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from stablepred.experiment import StabilityReport, emit_report
from stablepred.models import MODEL_NAMES, fit_model
from stablepred.synthetic import acceptance_configs

from conftest import pin_host, run_ordering
from test_models import PIN_CFG, pin_case

REFERENCE_PATH = Path(__file__).with_name("gate_reference.json")
TOL = 1e-12
ORDERING_MODELS = [m for m in MODEL_NAMES if m != "elastic-net"]


def fit_record(model):
    train, spec, h = pin_case(model)
    fit = fit_model(spec, train, h, PIN_CFG)
    return {
        "iterations": fit.result.iterations_used,
        "converged": fit.result.converged,
        "theta": fit.effective_theta.tolist(),
        "bias": fit.bias,
        "final_loss": fit.result.final_loss,
    }


def report_record(report, out_dir):
    emit_report(report, out_dir)
    return {
        "selected_count": report.selected_count,
        "snr_top": [[name, value] for _, name, value in report.snr_top],
        "ci_curve": [list(row) for row in report.ci_curve],
        "mean_weights": list(report.mean_weights),
        "validation_auc": report.validation_auc,
        "f_threshold": report.f_threshold,
        "f_score": report.f_score,
        "report_sha256": hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest(),
    }


def assert_typed(value, hint, where):
    """``value`` is exactly the type ``hint`` names: no numpy scalar, no bool
    for an int, and each tuple entry (of a row, too) checked the same way."""
    if get_origin(hint) is not tuple:
        kind = type(value).__name__
        assert type(value) is hint, f"{where}: {value!r} is {kind}, not {hint.__name__}"
        return
    assert type(value) is tuple, f"{where}: {value!r} is not a tuple"
    args = get_args(hint)
    hints = args[:1] * len(value) if args[-1] is Ellipsis else args
    assert len(hints) == len(value), f"{where}: {value!r} holds {len(value)} entries"
    for i, (item, item_hint) in enumerate(zip(value, hints)):
        assert_typed(item, item_hint, f"{where}[{i}]")


def by_magnitude(theta):
    return np.argsort(-np.abs(np.asarray(theta)), kind="stable").tolist()


def assert_within(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def ordering_records(ordering_experiment, tmp_path_factory):
    reports, _ = ordering_experiment
    out = tmp_path_factory.mktemp("gate")
    return {name: report_record(r, out / name) for name, r in reports.items()}


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_fit_within_tolerance(reference, model):
    got, want = fit_record(model), reference["fits"][model]
    assert (got["iterations"], got["converged"]) == (want["iterations"], want["converged"])
    assert by_magnitude(got["theta"]) == by_magnitude(want["theta"])
    for key in ("theta", "bias", "final_loss"):
        assert_within(got[key], want[key])


@pytest.mark.parametrize("model", ORDERING_MODELS)
def test_report_within_tolerance(reference, ordering_records, model):
    got, want = ordering_records[model], reference["reports"][model]
    assert got["selected_count"] == want["selected_count"]
    assert [name for name, _ in got["snr_top"]] == [name for name, _ in want["snr_top"]]
    assert_within([v for _, v in got["snr_top"]], [v for _, v in want["snr_top"]])
    for key in ("ci_curve", "mean_weights", "validation_auc", "f_threshold", "f_score"):
        assert_within(got[key], want[key])


@pytest.mark.parametrize("model", ORDERING_MODELS)
def test_report_bytes_pinned(reference, ordering_records, model):
    assert (ordering_records[model]["report_sha256"]
            == reference["reports"][model]["report_sha256"]), pin_host()


def assert_written_consistent(report, cfg):
    """``report`` has its fields' builtin types, restates ``cfg``'s settings
    and counts, and agrees with itself on every count it restates."""
    for name, hint in get_type_hints(StabilityReport).items():
        assert_typed(getattr(report, name), hint, name)
    for name in ("feature_names", "mean_weights", "importance"):
        n = len(getattr(report, name))
        assert n == report.n_features, f"{name} holds {n} entries for {report.n_features} features"
    assert (report.n_bootstraps, report.base_seed) == (cfg.n_bootstraps, cfg.optimizer.seed), \
        "bootstrap count or base seed is not the config's"
    assert report.bootstrap_seeds == tuple(report.base_seed + b
                                           for b in range(report.n_bootstraps)), \
        f"bootstrap_seeds {report.bootstrap_seeds} are not base_seed + b"
    ks = tuple(k for k, _ in report.ci_curve)
    assert ks == cfg.k_list, f"ci_curve ks {ks} are not k_list {cfg.k_list}"
    ranks = [rank for rank, _, _ in report.snr_top]
    assert ranks == list(range(1, cfg.top_for_snr + 1)), f"snr_top ranks {ranks}"
    unknown = {name for _, name, _ in report.snr_top} - set(report.feature_names)
    assert not unknown, f"snr_top names unknown features {sorted(unknown)}"
    assert (report.hyperparams, report.optimizer) == (cfg.hyperparams, cfg.optimizer), \
        "settings are not the config's"


@pytest.mark.parametrize("model", ORDERING_MODELS)
def test_report_written_consistent(ordering_experiment, model):
    assert_written_consistent(ordering_experiment[0][model], acceptance_configs(".")[model])


def _snr_row(report, i, **row):
    rows = [dict(zip(("rank", "feature", "snr"), r)) for r in report.snr_top]
    rows[i].update(row)
    return tuple((r["rank"], r["feature"], r["snr"]) for r in rows)


# The defects a report.json reader once refused, and the counts nothing checked,
# each put into a written report: the check above must name every one.
@pytest.mark.parametrize("change,message", [
    (lambda r: {"n_train": "x"}, r"^n_train: 'x' is str, not int\n"),
    (lambda r: {"ci_curve": (("20", r.ci_curve[0][1]),)}, r"^ci_curve\[0\]\[0\]: '20' is str"),
    (lambda r: {"ci_curve": ((r.ci_curve[0][0], None),)},
     r"^ci_curve\[0\]\[1\]: None is NoneType, not float\n"),
    (lambda r: {"snr_top": _snr_row(r, 0, feature=3)}, r"^snr_top\[0\]\[1\]: 3 is int, not str\n"),
    (lambda r: {"n_validation": True}, r"^n_validation: True is bool, not int\n"),
    (lambda r: {"validation_auc": "0.5"}, r"^validation_auc: '0.5' is str, not float\n"),
    (lambda r: {"model": None}, r"^model: None is NoneType, not str\n"),
    (lambda r: {"bootstrap_seeds": 5}, r"^bootstrap_seeds: 5 is not a tuple\n"),
    (lambda r: {"mean_weights": (0.5, "a", *r.mean_weights[2:])},
     r"^mean_weights\[1\]: 'a' is str, not float\n"),
    (lambda r: {"snr_top": _snr_row(r, 1, snr=np.float64(r.snr_top[1][2]))},
     r"^snr_top\[1\]\[2\]: .* is float64, not float\n"),
    (lambda r: {"feature_names": r.feature_names[:3]},
     r"^feature_names holds 3 entries for \d+ features\n"),
    (lambda r: {"mean_weights": r.mean_weights[:3]},
     r"^mean_weights holds 3 entries for \d+ features\n"),
    (lambda r: {"importance": r.importance[:3]}, r"^importance holds 3 entries for \d+ features\n"),
    (lambda r: {"bootstrap_seeds": (r.base_seed + 1, *r.bootstrap_seeds[1:])},
     r"^bootstrap_seeds .* are not base_seed \+ b\n"),
    (lambda r: {"ci_curve": ((r.ci_curve[0][0] + 1, r.ci_curve[0][1]),)},
     r"^ci_curve ks \(\d+,\) are not k_list"),
    (lambda r: {"snr_top": _snr_row(r, 2, rank=9)}, r"^snr_top ranks \[1, 2, 9,"),
    (lambda r: {"snr_top": _snr_row(r, 0, feature="nope")},
     r"^snr_top names unknown features \['nope'\]\n"),
    (lambda r: {"base_seed": r.base_seed + 1, "bootstrap_seeds":
                tuple(s + 1 for s in r.bootstrap_seeds)},
     r"^bootstrap count or base seed is not the config's\n"),
    (lambda r: {"optimizer": replace(r.optimizer, max_iters=r.optimizer.max_iters + 1)},
     r"^settings are not the config's\n"),
], ids=["found", "row-k", "row-null", "row-feature", "bool", "string-number", "null-string",
        "number-tuple", "tuple-entry", "numpy-scalar", "short-feature_names",
        "short-mean_weights", "short-importance", "bootstrap-seeds", "ci-ks", "snr-ranks",
        "snr-feature", "base-seed", "settings"])
def test_written_check_refuses(ordering_experiment, change, message):
    report = ordering_experiment[0]["lasso"]
    with pytest.raises(AssertionError, match=message):
        assert_written_consistent(replace(report, **change(report)),
                                  acceptance_configs(".")["lasso"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports, _ = run_ordering(Path(tmp))
        recorded = {
            "fits": {model: fit_record(model) for model in MODEL_NAMES},
            "reports": {name: report_record(r, Path(tmp) / name) for name, r in reports.items()},
        }
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
