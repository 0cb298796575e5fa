"""Every script under demos/ runs to completion in a fresh interpreter, with
warnings as errors as in the test suite, and prints exactly its pinned
output: tests/data/demo_<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def run_demo(tmp_path_factory):
    """Run each demo once per module; both tests below read the result."""
    runs = {}

    def run(demo):
        if demo not in runs:
            tmp = tmp_path_factory.mktemp(demo.stem)
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            runs[demo] = subprocess.run(
                [sys.executable, "-W", "error", str(demo)], env=env, cwd=tmp,
                capture_output=True, text=True, timeout=300,
            )
        return runs[demo]

    return run


def test_demos_found():
    assert len(DEMOS) >= 8
    assert {f"demo_{demo.stem}.txt" for demo in DEMOS} == {p.name for p in DATA.glob("demo_*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, run_demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_pinned(demo, run_demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (DATA / f"demo_{demo.stem}.txt").read_text()
