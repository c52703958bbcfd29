"""The narrative demos run to completion as scripts.

Each runs in its own temporary directory, since demos 02-04 write their
cohorts and tables under ``demo_output/`` there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# a line of each demo's output that only a full run prints
MARKERS = {
    "01_objectives_and_gradients.py": "gradient spot-check",
    "02_synthetic_cohorts.py": "wrote train/validation/augment CSVs",
    "03_bootstrap_stability.py": "top-20 features with |SNR| >= 1.96",
    "04_model_comparison.py": "ag-lasso-autoencoder-graph",
}


@pytest.mark.parametrize("script", MARKERS)
def test_demo_exits_cleanly(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert MARKERS[script] in proc.stdout
