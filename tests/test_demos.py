"""Every demo script runs to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
