"""Batch front end: parse body files, run pipelines, emit JSON reports.

Commands::

    convexsmooth certify --input body.json --output outdir [--resolution N --seed N]
    convexsmooth smooth  --input body.json --output outdir [--epsilon F --delta F
                         --order c11|c2 --resolution N]
    convexsmooth measure --input body.json --output outdir [--resolution N]
    convexsmooth probe   --input probe.json --output outdir [--resolution N]

Each command parses, makes one library call and writes what it returns:
``certify`` runs ``certify_body`` (eq39, ball_support_b, ball_family_c,
gauge_sq_hessian_d, level_set_e, whose radius ``certify`` sets, and
halfspace_reconstruction on a ball body; ball_support_b at R = 1, 10, 100
on a halfspace body), ``smooth`` ``extract_smoothed_body``, the level-1
body of the blended squared gauge, whose only width knob is --delta and
whose checks carry the verdict, ``measure`` ``boundary_mesh`` and
``probe`` ``boundary_surjectivity_probe``. An unset delta or mesh
resolution takes the library's default.

Exit codes: 0 all-pass/success, 1 failed certificate or unmet epsilon
bound, 2 input or validation errors, a flag the command does not read
included. Only ``certify`` samples at random, from its --seed stream, so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import certify as cert
from . import measure as meas
from . import project as proj
from . import smooth as smth
from .bodies import BallBody, body_from_json
from .errors import ConvexSmoothError, InvalidBody

# Certificate samples and probe rays when --resolution is not given.
DEFAULT_SAMPLES = 360

# The checks of extract_smoothed_body that a smooth report summarizes
# (symdiff_breakdown only when the library reports it).
_SMOOTH_SUMMARY = (
    "symdiff_measure",
    "boundary_measure",
    "hessian_min_eig",
    "contained",
    "tube_ok",
    "symdiff_breakdown",
)


@dataclass
class RunConfig:
    command: str
    input: str
    output: str
    epsilon: float = 0.05
    delta: float | None = None
    order: str = "c2"
    resolution: int | None = None
    seed: int = 0


class _CommandParser(argparse.ArgumentParser):
    """Rejects unread flags itself, so the usage line names the command."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return namespace, unread


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexsmooth",
        description="certify, smooth, measure and probe ball-intersection bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name in ("certify", "smooth", "measure", "probe"):
        # only the flags the command reads; unset ones take RunConfig's defaults
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--input", required=True, help="body (or probe pair) JSON file")
        p.add_argument("--output", required=True, help="output directory")
        if name == "smooth":
            p.add_argument("--epsilon", type=float)
            p.add_argument("--delta", type=float)
            p.add_argument("--order", choices=("c11", "c2"))
        p.add_argument("--resolution", type=int)
        if name == "certify":
            p.add_argument("--seed", type=int)
    return parser


def _write_report(config: RunConfig, report: dict) -> None:
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (outdir / "report.json").write_text(text)


def _write_mesh(config: RunConfig, mesh: meas.BoundaryMesh) -> str:
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    if mesh.dim == 2:
        path = outdir / "mesh.json"
        path.write_text(meas.polyline_json(mesh) + "\n")
    else:
        path = outdir / "mesh.off"
        path.write_text(meas.off_text(mesh))
    return path.name


def _run_certify(config: RunConfig) -> int:
    body = body_from_json(json.loads(Path(config.input).read_text()))
    reports = cert.certify_body(body, config.resolution or DEFAULT_SAMPLES, config.seed)
    passed = all(r.passed for r in reports)
    _write_report(
        config,
        {
            "command": "certify",
            "config": asdict(config),
            "reports": [r.to_json() for r in reports],
            "passed": passed,
        },
    )
    return 0 if passed else 1


def _run_smooth(config: RunConfig) -> int:
    body = body_from_json(json.loads(Path(config.input).read_text()))
    if not isinstance(body, BallBody):
        raise InvalidBody("the smoothing pipeline needs a BallBody input")
    order = "C2" if config.order == "c2" else "C11"

    smoothed = smth.extract_smoothed_body(
        body,
        delta=config.delta,
        epsilon=config.epsilon,
        order=order,
        resolution=config.resolution,
    )
    checks = smoothed.checks
    summary = {"delta": smoothed.gauge.delta}
    summary.update((key, checks[key]) for key in _SMOOTH_SUMMARY if key in checks)
    mesh_file = _write_mesh(config, smoothed.meshes[1])
    _write_report(
        config,
        {
            "command": "smooth",
            "config": asdict(config),
            "summary": summary,
            "smoothed_body": smoothed.to_json(),
            "mesh_file": mesh_file,
        },
    )
    return 0 if checks["passed"] else 1


def _run_measure(config: RunConfig) -> int:
    body = body_from_json(json.loads(Path(config.input).read_text()))
    mesh = meas.boundary_mesh(body, config.resolution)
    mesh_file = _write_mesh(config, mesh)
    _write_report(
        config,
        {
            "command": "measure",
            "config": asdict(config),
            "summary": {
                "boundary_measure": meas.hausdorff_measure(mesh),
                "directions": len(mesh.points),
                "facets": len(mesh.facets),
            },
            "mesh_file": mesh_file,
        },
    )
    return 0


def _run_probe(config: RunConfig) -> int:
    data = json.loads(Path(config.input).read_text())
    if not isinstance(data, dict) or "inner" not in data or "outer" not in data:
        raise InvalidBody('probe input must be {"inner": <body>, "outer": <body>}')
    inner = body_from_json(data["inner"])
    outer = body_from_json(data["outer"])
    if not isinstance(inner, BallBody):
        raise InvalidBody("probe inner body must be a BallBody")
    rays = config.resolution or DEFAULT_SAMPLES
    _, report = proj.boundary_surjectivity_probe(inner, outer, rays)
    _write_report(config, {"command": "probe", "config": asdict(config), "summary": report})
    return 0 if report["passed"] else 1


_RUNNERS = {
    "certify": _run_certify,
    "smooth": _run_smooth,
    "measure": _run_measure,
    "probe": _run_probe,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        return _RUNNERS[config.command](config)
    except (ConvexSmoothError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
