"""Every script under demos/ runs to completion from a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMO_DIR.parent / "src"
# demo -> prefix of the temporary directory it writes a dataset to, if any
DEMOS = {
    "01_autodiff.py": None,
    "02_attention_block.py": None,
    "03_dataset_trap.py": "mlareid_demo_",
    "04_train_and_retrieve.py": "mlareid_e2e_",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMO_DIR.glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    """The demo exits 0, prints something and keeps its files under TMPDIR."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMO_DIR / name)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    if DEMOS[name] is not None:
        assert list(tmp_path.glob(DEMOS[name] + "*")), f"{name} wrote nothing under TMPDIR"
