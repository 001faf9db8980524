"""Every demo script runs to completion against the library in ``src``
and writes only under its working directory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# the mesh export of each demo that writes one
EXPORTS = {
    "04_smoothing_pipeline_2d": "output/lens_smoothed.json",
    "05_smoothing_pipeline_3d": "output/three_ball_smoothed.off",
}


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
    written = [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()]
    export = EXPORTS.get(script.stem)
    assert written == ([export] if export else [])
    if export is None:
        return
    text = (tmp_path / export).read_text()
    if export.endswith(".json"):
        points = json.loads(text)["points"]
        assert points and all(len(p) == 2 for p in points)
    else:
        lines = text.splitlines()
        assert lines[0] == "OFF"
        vertices, faces, edges = map(int, lines[1].split())
        assert vertices > 0 and faces > 0 and edges == 0
        assert len(lines) == 2 + vertices + faces
        assert all(len(line.split()) == 3 for line in lines[2 : 2 + vertices])
        assert all(line.split()[0] == "3" for line in lines[2 + vertices :])
