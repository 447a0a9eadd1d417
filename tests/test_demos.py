"""Every demo script runs to completion and prints its walk-through, the
same bytes every time: each demo's stdout is pinned by its SHA-256, with
the directory it runs in written as ``<dir>``."""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

STDOUT_SHA256 = {
    "01_model_and_prices": "ed7349d773021152bcfbb7d7dec27943b61d7001026d133d2ac4d591c8f70045",
    "02_regime_map": "fc3c8bffb3bf7002f2bd1b6048a1fb27403b6474e736790b97b08f2ee3154dd4",
    "03_degeneracy_resolution": "60a9da7dd900431b3fecbf8323b9971b2d3f2615123e77b03118b596311c2b4c",
    "04_cost_recovery": "c4431c4210746f3757ae0bc788fe3b96a5951944b6b83c5f6c23cac4a2a92c8e",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, so that a file a demo writes next to itself lands in tmp_path
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    stdout = done.stdout.replace(str(tmp_path), "<dir>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], stdout
