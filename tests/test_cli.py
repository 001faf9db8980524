import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from convexsmooth import (
    body_from_json,
    boundary_mesh,
    boundary_surjectivity_probe,
    certify_body,
    extract_smoothed_body,
)
from convexsmooth.cli import RunConfig, build_parser, main, run
from helpers import off_text_reference, polyline_json_reference

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


@pytest.fixture
def lens_file(tmp_path):
    path = tmp_path / "lens.json"
    path.write_text(
        json.dumps({"dim": 2, "radius": 1.0, "centers": [[0.5, 0.0], [-0.5, 0.0]]})
    )
    return path


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({"dim": 2, "radius": 1.0, "centers": [[0.0, 0.0]]}))
    return path


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(
        json.dumps(
            {
                "halfspaces": [
                    {"normal": [1, 0], "offset": 0.5},
                    {"normal": [-1, 0], "offset": 0.5},
                    {"normal": [0, 1], "offset": 0.5},
                    {"normal": [0, -1], "offset": 0.5},
                ]
            }
        )
    )
    return path


def test_certify_ball_passes(ball_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["certify", "--input", str(ball_file), "--output", str(out), "--resolution", "240"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    conditions = {r["condition"] for r in report["reports"]}
    assert {
        "eq39",
        "ball_support_b",
        "ball_family_c",
        "gauge_sq_hessian_d",
        "level_set_e",
        "halfspace_reconstruction",
    } <= conditions


def test_certify_square_fails_with_witness(square_file, tmp_path):
    out = tmp_path / "out"
    code = main(["certify", "--input", str(square_file), "--output", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    failed = [r for r in report["reports"] if not r["passed"]]
    assert failed and all(r["condition"] == "ball_support_b" for r in failed)
    assert {r["constant"] for r in report["reports"]} == {1.0, 10.0, 100.0}
    assert failed[0]["worst_witness"]["margin"] > 0


def test_certify_passes_on_near_coincident_balls(tmp_path):
    # both spheres lie within 1e-7 of every boundary point; the normal there
    # must come from the sphere the point is on, not from both
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"dim": 2, "radius": 1.0, "centers": [[0.0, 0.0], [1e-7, 0.0]]}))
    out = tmp_path / "out"
    assert main(["certify", "--input", str(path), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert all(r["passed"] for r in report["reports"])


def test_smooth_lens_meets_epsilon(lens_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "smooth",
            "--input", str(lens_file),
            "--output", str(out),
            "--epsilon", "0.05",
            "--delta", "1e-3",
            "--order", "c2",
            "--resolution", "2048",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    summary = report["summary"]
    assert summary["symdiff_measure"] < 0.05 * summary["boundary_measure"]
    assert summary["contained"] and summary["tube_ok"]
    assert (out / report["mesh_file"]).exists()
    mesh = json.loads((out / "mesh.json").read_text())
    assert len(mesh["points"]) == 2048


def test_probe_round_trip(ball_file, tmp_path):
    probe_file = tmp_path / "probe.json"
    probe_file.write_text(
        json.dumps(
            {
                "inner": {"dim": 2, "radius": 1.0, "centers": [[0.0, 0.0]]},
                "outer": {"dim": 2, "radius": 2.0, "centers": [[0.0, 0.0]]},
            }
        )
    )
    out = tmp_path / "out"
    code = main(["probe", "--input", str(probe_file), "--output", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["max_gap"] <= 1e-6
    pair = json.loads(probe_file.read_text())
    _, expected = boundary_surjectivity_probe(
        body_from_json(pair["inner"]), body_from_json(pair["outer"]), 360
    )
    assert report["summary"] == json.loads(json.dumps(expected))


def test_measure_writes_mesh(lens_file, tmp_path):
    out = tmp_path / "out"
    assert main(["measure", "--input", str(lens_file), "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["boundary_measure"] == pytest.approx(4.1888, abs=1e-3)


@pytest.mark.parametrize(
    "name, flags",
    [("lens", []), ("lens", ["--resolution", "65536"]), ("square", []), ("three-ball", ["--resolution", "3"])],
)
def test_measure_writes_the_reference_mesh_text(name, flags, lens_file, square_file, tmp_path):
    path = {"lens": lens_file, "square": square_file}.get(name)
    if path is None:
        path = tmp_path / "three-ball.json"
        path.write_text(json.dumps(THREE_BALL))
    out = tmp_path / "out"
    assert main(["measure", "--input", str(path), "--output", str(out), *flags]) == 0
    resolution = int(flags[1]) if flags else None
    mesh = boundary_mesh(body_from_json(json.loads(path.read_text())), resolution)
    if mesh.dim == 2:
        assert (out / "mesh.json").read_text() == polyline_json_reference(mesh) + "\n"
    else:
        assert (out / "mesh.off").read_text() == off_text_reference(mesh)


def test_invalid_body_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "radius": 1.0, "centers": [[5.0, 0.0]]}))
    code = main(["certify", "--input", str(bad), "--output", str(tmp_path / "out")])
    assert code == 2
    assert "interior" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    code = main(["certify", "--input", str(missing), "--output", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("command", ["certify", "measure"])
def test_non_finite_face_exits_2_naming_the_invariant(command, square_file, tmp_path, capsys):
    # a NaN normal passed the unit-length test, and measure wrote the
    # square's perimeter as if the face were absent
    data = json.loads(square_file.read_text())
    data["halfspaces"].append({"normal": [float("nan"), 1.0], "offset": 0.5})
    square_file.write_text(json.dumps(data))
    code = main([command, "--input", str(square_file), "--output", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: halfspace normals must be finite\n"
    assert not (tmp_path / "out").exists()


def test_bad_epsilon_exits_2(lens_file, tmp_path, capsys):
    config = RunConfig(
        command="smooth",
        input=str(lens_file),
        output=str(tmp_path / "out"),
        epsilon=0.4,
    )
    assert run(config) == 2
    assert capsys.readouterr().err == "error: epsilon must lie in (0, 1/4)\n"
    assert not (tmp_path / "out").exists()


def test_reports_are_deterministic(lens_file, tmp_path):
    out = tmp_path / "out"
    args = [
        "smooth",
        "--input", str(lens_file),
        "--output", str(out),
        "--epsilon", "0.05",
        "--delta", "1e-3",
        "--order", "c2",
        "--resolution", "512",
    ]
    assert main(args) == 0
    first = (out / "report.json").read_bytes()
    (out / "report.json").unlink()
    assert main(args) == 0
    assert (out / "report.json").read_bytes() == first


@pytest.mark.parametrize("command", ["certify", "measure", "smooth"])
def test_unsupported_dimension_exits_2_with_named_error(command, tmp_path, capsys):
    body = tmp_path / "ball4.json"
    body.write_text(
        json.dumps({"dim": 4, "radius": 1.0, "centers": [[0.1, 0.0, 0.0, 0.0], [-0.1, 0.0, 0.0, 0.0]]})
    )
    code = main([command, "--input", str(body), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "meshing supports dim 2 and 3 only, got dim 4" in err


def test_duplicate_centers_exit_2_naming_the_copies(tmp_path, capsys):
    body = tmp_path / "dup-lens.json"
    body.write_text(
        json.dumps({"dim": 2, "radius": 1.0, "centers": [[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]]})
    )
    code = main(["smooth", "--input", str(body), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "balls (0, 2) have identical centers" in err and "decrease delta" not in err


def _documented_flags() -> dict[str, set[str]]:
    """The flags of each command in README's "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    flags: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "convexsmooth":
            command = words[1]
        flags.setdefault(command, set()).update(re.findall(r"--[a-z]+", line))
    return flags


def test_each_command_takes_exactly_its_documented_flags():
    documented = _documented_flags()
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(documented) == {"certify", "smooth", "measure", "probe"}
    for name, parser in sub.choices.items():
        options = {
            s
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings
        }
        assert options == documented[name], name


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--seed", "1"],
        ["probe", "--scan", "8"],
        ["certify", "--epsilon", "0.1"],
        ["smooth", "--seed", "1"],
        ["smooth", "--scan", "8"],
    ],
    ids=["measure-seed", "probe-scan", "certify-epsilon", "smooth-seed", "smooth-scan"],
)
def test_flag_the_command_does_not_read_exits_2(argv, lens_file, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*argv[:1], "--input", str(lens_file), "--output", str(out), *argv[1:]])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert err.startswith(f"usage: convexsmooth {argv[0]} ")
    assert not out.exists()


def test_reports_echo_every_config_field_at_its_default(ball_file, tmp_path):
    probe_file = tmp_path / "probe.json"
    probe_file.write_text(
        json.dumps(
            {
                "inner": {"dim": 2, "radius": 1.0, "centers": [[0.0, 0.0]]},
                "outer": {"dim": 2, "radius": 2.0, "centers": [[0.0, 0.0]]},
            }
        )
    )
    defaults = {
        "epsilon": 0.05, "delta": None, "order": "c2", "resolution": None, "seed": 0
    }
    for command, path in (("certify", ball_file), ("measure", ball_file), ("probe", probe_file)):
        out = tmp_path / command
        assert main([command, "--input", str(path), "--output", str(out)]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config == {"command": command, "input": str(path), "output": str(out), **defaults}


THREE_BALL = {
    "dim": 3,
    "radius": 1.0,
    "centers": [[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]],
}


@pytest.mark.parametrize(
    "flags", [[], ["--resolution", "100", "--seed", "7"]], ids=["defaults", "res100-seed7"]
)
@pytest.mark.parametrize("name", ["lens", "three-ball", "square"])
def test_certify_writes_the_reports_of_certify_body(
    name, flags, lens_file, square_file, tmp_path
):
    path = {"lens": lens_file, "square": square_file}.get(name)
    if path is None:
        path = tmp_path / "three-ball.json"
        path.write_text(json.dumps(THREE_BALL))
    out = tmp_path / "out"
    code = main(["certify", "--input", str(path), "--output", str(out), *flags])
    report = json.loads((out / "report.json").read_text())
    samples, seed = (100, 7) if flags else (360, 0)
    reports = certify_body(body_from_json(json.loads(path.read_text())), samples, seed)
    assert report["reports"] == json.loads(json.dumps([r.to_json() for r in reports]))
    assert code == (0 if all(r.passed for r in reports) else 1)


@pytest.mark.parametrize(
    "name, flags, verdict",
    [
        ("lens", [], (0, False)),
        ("lens", ["--resolution", "100"], (1, False)),
        ("three-ball", [], (0, True)),
    ],
    ids=["lens-defaults", "lens-100-unmet-epsilon", "three-ball-with-breakdown"],
)
def test_smooth_writes_the_verdict_of_extract_smoothed_body(name, flags, verdict, lens_file, tmp_path):
    path = lens_file
    if name == "three-ball":
        path = tmp_path / "three-ball.json"
        path.write_text(json.dumps(THREE_BALL))
    out = tmp_path / "out"
    code = main(["smooth", "--input", str(path), "--output", str(out), *flags])
    summary = json.loads((out / "report.json").read_text())["summary"]
    smoothed = extract_smoothed_body(
        body_from_json(json.loads(path.read_text())),
        delta=None,
        epsilon=0.05,
        resolution=int(flags[1]) if flags else None,
    )
    checks = smoothed.checks
    keys = {"symdiff_measure", "boundary_measure", "hessian_min_eig", "contained", "tube_ok"}
    keys |= {"symdiff_breakdown"} & set(checks)
    expected = {"delta": smoothed.gauge.delta, **{k: checks[k] for k in keys}}
    assert summary == json.loads(json.dumps(expected))
    assert code == (0 if checks["passed"] else 1)
    assert (code, "symdiff_breakdown" in summary) == verdict


@pytest.mark.parametrize("name, flags", [("lens", []), ("three-ball", ["--resolution", "3"])])
def test_smooth_writes_the_reference_mesh_text(name, flags, lens_file, tmp_path):
    path = lens_file
    if name == "three-ball":
        path = tmp_path / "three-ball.json"
        path.write_text(json.dumps(THREE_BALL))
    out = tmp_path / "out"
    main(["smooth", "--input", str(path), "--output", str(out), *flags])
    mesh = extract_smoothed_body(
        body_from_json(json.loads(path.read_text())),
        delta=None,
        epsilon=0.05,
        resolution=int(flags[1]) if flags else None,
    ).meshes[1]
    if mesh.dim == 2:
        assert (out / "mesh.json").read_text() == polyline_json_reference(mesh) + "\n"
    else:
        assert (out / "mesh.off").read_text() == off_text_reference(mesh)


def test_importing_the_package_loads_no_scipy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, convexsmooth\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
