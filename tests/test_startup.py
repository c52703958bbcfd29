"""What importing the package costs: it must not pull in scipy.special, scipy.stats or
multiprocessing; and a whole run must not pull in numpy.ma."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stablepred.experiment import ExperimentConfig
from stablepred.optimizer import OptimizerConfig
from stablepred.synthetic import SyntheticSpec, write_bundle

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["scipy.special", "scipy.stats", "multiprocessing"])
def test_import_does_not_load(module):
    # scipy.special takes about 0.2 s and 26 MB to import, and expit is loaded
    # from its compiled ufunc module alone; scipy.stats takes about a second and
    # 45 MB; multiprocessing is loaded only when a bootstrap pool starts.
    # Checking the loaded modules, not a timing, keeps this test deterministic
    module_file, loaded = run_python(
        f"import sys, stablepred; print(stablepred.__file__); print({module!r} in sys.modules)"
    ).split()
    assert Path(module_file).resolve().is_relative_to(ROOT / "src")
    assert loaded == "False"


def test_run_does_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 0.5 MB) on its first call in a process;
    # the one-class checks and the F-threshold's distinct scores do without it
    write_bundle(SyntheticSpec(n_samples=50, n_groups=3, group_size=4, seed=17), tmp_path)
    cfg = ExperimentConfig(
        train_path=str(tmp_path / "train.csv"), validation_path=str(tmp_path / "validation.csv"),
        model="lasso", optimizer=OptimizerConfig(max_iters=60, seed=5), n_bootstraps=4,
        k_list=(3,), top_for_snr=5,
    )
    (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert run_python(
        "import sys\n"
        "from stablepred.experiment import ExperimentConfig, run_experiment\n"
        f"run_experiment(ExperimentConfig.from_json({str(tmp_path / 'config.json')!r}))\n"
        "print('numpy.ma' in sys.modules)"
    ).split() == ["False"]
