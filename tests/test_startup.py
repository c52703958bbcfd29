"""What importing the package costs: it must not pull in scipy.special, scipy.stats or
multiprocessing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["scipy.special", "scipy.stats", "multiprocessing"])
def test_import_does_not_load(module):
    # scipy.special takes about 0.2 s and 26 MB to import, and expit is loaded
    # from its compiled ufunc module alone; scipy.stats takes about a second and
    # 45 MB; multiprocessing is loaded only when a bootstrap pool starts.
    # Checking the loaded modules, not a timing, keeps this test deterministic
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, stablepred; print(stablepred.__file__); print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    module_file, loaded = proc.stdout.split()
    assert Path(module_file).resolve().is_relative_to(ROOT / "src")
    assert loaded == "False"
