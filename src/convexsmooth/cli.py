"""Batch front end: parse body files, run pipelines, emit JSON reports.

Commands::

    convexsmooth certify --input body.json --output outdir [--resolution N]
    convexsmooth smooth  --input body.json --output outdir [--epsilon F --delta F --resolution N]
    convexsmooth measure --input body.json --output outdir [--resolution N]
    convexsmooth probe   --input probe.json --output outdir [--resolution N]

:func:`run` reads and parses the input once, hands it to the command's
runner, which makes one library call and returns its verdict and report
fields, and writes ``report.json`` once, after the computation; ``smooth``
and ``measure`` write their mesh just before it. ``certify`` runs
``certify_body`` (eq39, ball_support_b, ball_family_c, gauge_sq_hessian_d,
level_set_e, whose radius ``certify`` sets, and halfspace_reconstruction
on a ball body; ball_support_b at R = 1, 10, 100 on a halfspace body),
``smooth`` ``extract_smoothed_body``, the level-1 body of the blended
squared gauge, whose only width knob is --delta and whose checks carry
the verdict, ``measure`` ``boundary_mesh`` and ``probe``
``boundary_surjectivity_probe``. An unset delta or mesh resolution takes
the library's default. A mesh is streamed into its file a block of rows
at a time, as it is formatted, so the CLI never holds its text.

Exit codes: 0 all-pass/success, 1 failed certificate or unmet epsilon
bound, 2 input or validation errors, a flag the command does not read
included. ``certify`` draws eq39's points from one fixed stream, so
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path

from . import certify as cert
from . import measure as meas
from . import project as proj
from . import smooth as smth
from .bodies import body_from_json
from .errors import ConvexSmoothError, InvalidBody

# Certificate samples and probe rays when --resolution is not given.
DEFAULT_SAMPLES = 360

# The checks of extract_smoothed_body that a smooth report summarizes.
_SMOOTH_SUMMARY = (
    "symdiff_measure", "boundary_measure", "hessian_min_eig", "contained", "tube_ok"
)


@dataclass
class RunConfig:
    command: str
    input: str
    output: str
    epsilon: float = 0.05
    delta: float | None = None
    resolution: int | None = None


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
        p.add_argument("--resolution", type=int)
    return parser


def _write_mesh(config: RunConfig, mesh: meas.BoundaryMesh) -> str:
    """Stream the mesh's export into ``mesh.json`` (2D, with a closing
    newline) or ``mesh.off`` (3D) a block at a time, and return the file's
    name. The export checks the mesh before the file is opened."""
    if mesh.dim == 2:
        name, blocks = "mesh.json", chain(meas.polyline_blocks(mesh), [b"\n"])
    else:
        name, blocks = "mesh.off", meas.off_blocks(mesh)
    outdir = Path(config.output)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / name, "wb") as f:
        f.writelines(blocks)
    return name


def _sample_count(config: RunConfig) -> int:
    """certify's samples and probe's rays: --resolution, else DEFAULT_SAMPLES."""
    return DEFAULT_SAMPLES if config.resolution is None else config.resolution


def _run_certify(config: RunConfig, data) -> tuple[bool, dict]:
    reports = cert.certify_body(body_from_json(data), _sample_count(config))
    passed = all(r.passed for r in reports)
    return passed, {"reports": [r.to_json() for r in reports], "passed": passed}


def _run_smooth(config: RunConfig, data) -> tuple[bool, dict]:
    body = body_from_json(data)
    smoothed = smth.extract_smoothed_body(
        body, delta=config.delta, epsilon=config.epsilon, resolution=config.resolution
    )
    checks = smoothed.checks
    summary = {"delta": smoothed.gauge.delta}
    summary.update((key, checks[key]) for key in _SMOOTH_SUMMARY)
    mesh_file = _write_mesh(config, smoothed.meshes[1])
    return checks["passed"], {
        "summary": summary,
        "smoothed_body": smoothed.to_json(),
        "mesh_file": mesh_file,
    }


def _run_measure(config: RunConfig, data) -> tuple[bool, dict]:
    mesh = meas.boundary_mesh(body_from_json(data), config.resolution)
    summary = {
        "boundary_measure": meas.hausdorff_measure(mesh),
        "directions": len(mesh.points),
        "facets": len(mesh.facets),
    }
    return True, {"summary": summary, "mesh_file": _write_mesh(config, mesh)}


def _run_probe(config: RunConfig, data) -> tuple[bool, dict]:
    if not isinstance(data, dict) or "inner" not in data or "outer" not in data:
        raise InvalidBody('probe input must be {"inner": <body>, "outer": <body>}')
    inner = body_from_json(data["inner"])
    outer = body_from_json(data["outer"])
    _, report = proj.boundary_surjectivity_probe(inner, outer, _sample_count(config))
    return report["passed"], {"summary": report}


# Each runner takes the config and the parsed input, makes its library call and
# returns whether it passed and its report fields; run adds "command" and "config"
_RUNNERS = {
    "certify": _run_certify,
    "smooth": _run_smooth,
    "measure": _run_measure,
    "probe": _run_probe,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        data = json.loads(Path(config.input).read_text())
        passed, fields = _RUNNERS[config.command](config, data)
        report = {"command": config.command, "config": asdict(config), **fields}
        outdir = Path(config.output)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    except (ConvexSmoothError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
