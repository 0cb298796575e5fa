"""Every script under demos/ runs to completion in a fresh interpreter, with
warnings as errors as in the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), TAMPERSTORE_CACHE=str(tmp_path / "cache")
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
