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

Record the reference from the root of the repository with
``PYTHONPATH=src python tests/test_gate.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from stablepred.experiment import emit_report
from stablepred.models import MODEL_NAMES, fit_model

from conftest import run_ordering
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
    assert ordering_records[model]["report_sha256"] == reference["reports"][model]["report_sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports, _ = run_ordering(Path(tmp))
        recorded = {
            "fits": {model: fit_record(model) for model in MODEL_NAMES},
            "reports": {name: report_record(r, Path(tmp) / name) for name, r in reports.items()},
        }
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
