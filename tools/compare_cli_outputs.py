#!/usr/bin/env python3
"""Check that two source trees give the same CLI outputs on the bench corpora.

Usage, from the repository root::

    python3 tools/compare_cli_outputs.py OLD_TREE NEW_TREE [SEED ...] [--workload NAME ...]

For every workload of ``bench/corpus.py`` (or only those named with
``--workload``, which may be repeated) and every seed (1, 2 and 3 when
none is given), each tree's ``convexsmooth.cli.run`` runs in a fresh
process over the corpus's warm-up, counted and known-defect ops, in order.
Both trees read the inputs that this checkout's ``bench/corpus.py`` draws,
so they see the same bytes. ``project`` ops are library queries, not CLI
commands: each runs ``project_body`` on its body (one body object per
body name, as ``bench/run.py`` keeps them) and query.

Each CLI op leaves its output files and an ``exit.txt`` holding the exit
code and stderr (or the type and message of an exception that escaped
``cli.run``); each ``project`` op leaves ``point.bin``, the bytes of the
returned float64 point, and an ``exit.txt`` saying that it returned (or
the exception it raised). The output directory's path is masked in
``report.json``, which echoes it, and in ``exit.txt``. Every file present
in one tree only, or differing between the trees, is listed; the exit
status is 1 if any is, else 0. Under a differing ``report.json`` go its
differing JSON paths: keys present on one side only, changed non-numbers,
and for numbers the largest relative change. The elements of a list that
holds no objects (numbers, or lists of numbers) share one path, ``[*]``.
Under a differing ``point.bin`` go the two points.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1, 2, 3)
MASKED = ("report.json", "exit.txt")
# BLAS threads, pinned as bench/run.py pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def write_outputs(tree: str, workload: str, seed: int, directory: str) -> None:
    """Run one tree's CLI over one workload's ops; outputs go to
    ``directory/out/<group>/<op>``. Runs in a fresh process, so that the
    tree's ``convexsmooth`` is the one imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(Path(tree) / "src"), str(ROOT / "bench")]
    import corpus

    from convexsmooth import body_from_json, cli, project_body

    if Path(cli.__file__).resolve().parents[1] != (Path(tree) / "src").resolve():
        raise RuntimeError(f"imported convexsmooth from {cli.__file__}, not {tree}")
    base = Path(directory)
    built = corpus.build(workload, seed, base / "corpus")
    groups = {"warmup": built.warmup, "ops": built.ops, "known": built.known_defects}
    bodies = {}
    for group, ops in groups.items():
        for op in ops:
            outdir = base / "out" / group / op.name.replace(":", "_")
            stderr = io.StringIO()
            try:
                with redirect_stderr(stderr):
                    if op.kind == "project":
                        name = op.meta["body"]
                        if name not in bodies:
                            bodies[name] = body_from_json(op.body)
                        point = project_body(bodies[name], np.asarray(op.x, dtype=float))
                        outdir.mkdir(parents=True, exist_ok=True)
                        (outdir / "point.bin").write_bytes(point.tobytes())
                        status = "returned"
                    else:
                        config = cli.RunConfig(
                            command=op.kind, input=op.input, output=str(outdir), resolution=op.resolution
                        )
                        status = f"exit {cli.run(config)}"
            except Exception as e:  # an escaped exception is an outcome to compare
                status = f"exception {type(e).__name__}: {e}"
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "exit.txt").write_text(f"{status}\n{stderr.getvalue()}")


def _files(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory/out``, by relative path, with the
    directory's own path masked in the files that echo it."""
    out = directory / "out"
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name in MASKED:
            data = data.replace(str(directory).encode(), b"<tree>")
        files[str(path.relative_to(out))] = data
    return files


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _walk(old, new, path: str, changes: dict, lines: list) -> None:
    """Collect the differences of two JSON values under ``path``: numeric
    changes into ``changes`` (path -> largest relative change), every other
    difference into ``lines``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                lines.append(f"{sub}: only in old")
            elif key not in old:
                lines.append(f"{sub}: only in new")
            else:
                _walk(old[key], new[key], sub, changes, lines)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            lines.append(f"{path}: {len(old)} items in old, {len(new)} in new")
            return
        numeric = all(not isinstance(v, dict) for v in old + new)
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{'*' if numeric else i}]", changes, lines)
    elif _is_number(old) and _is_number(new):
        if old != new:
            rel = abs(old - new) / max(abs(old), abs(new))
            changes[path] = max(changes.get(path, 0.0), rel)
    elif old != new:
        lines.append(f"{path}: {json.dumps(old)} in old, {json.dumps(new)} in new")


def json_differences(old: bytes, new: bytes) -> list[str]:
    """The JSON paths at which two JSON texts differ, one line each."""
    changes, lines = {}, []
    _walk(json.loads(old), json.loads(new), "", changes, lines)
    lines += [f"{path}: largest relative change {rel:.3g}" for path, rel in changes.items()]
    return sorted(lines)


def point_differences(old: bytes, new: bytes) -> list[str]:
    """The two float64 points of a differing ``point.bin``, one line each."""
    return [f"{side}: {np.frombuffer(data).tolist()}" for side, data in (("old", old), ("new", new))]


def compare(old: str, new: str, seeds, workloads) -> list[str]:
    """Differences between the two trees' outputs over the named workloads,
    one entry per file; a differing ``report.json`` adds an indented line
    per differing path."""
    spawn = multiprocessing.get_context("spawn")
    differences = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            for seed in seeds:
                sides = {}
                for name, tree in (("old", old), ("new", new)):
                    directory = Path(scratch) / name
                    shutil.rmtree(directory, ignore_errors=True)
                    worker = spawn.Process(
                        target=write_outputs, args=(tree, workload, seed, str(directory))
                    )
                    worker.start()
                    worker.join()
                    if worker.exitcode != 0:
                        raise RuntimeError(f"{name} tree failed on {workload} seed {seed}")
                    sides[name] = _files(directory)
                tag = f"{workload} seed {seed}"
                for path in sorted(sides["old"].keys() | sides["new"].keys()):
                    a, b = sides["old"].get(path), sides["new"].get(path)
                    if a is None or b is None:
                        differences.append(f"{tag}: {path} only in {'new' if a is None else 'old'}")
                    elif a != b:
                        if path.endswith("report.json"):
                            details = json_differences(a, b)
                        elif path.endswith("point.bin"):
                            details = point_differences(a, b)
                        else:
                            details = []
                        differences.append(
                            "\n".join([f"{tag}: {path} differs", *("    " + d for d in details)])
                        )
                print(f"{tag}: {len(sides['new'])} files compared", file=sys.stderr)
    return differences


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[2].strip())
    parser.add_argument("old", metavar="OLD_TREE")
    parser.add_argument("new", metavar="NEW_TREE")
    parser.add_argument("seeds", metavar="SEED", nargs="*", type=int)
    parser.add_argument("--workload", metavar="NAME", action="append", choices=list(corpus.BUILDERS))
    args = parser.parse_intermixed_args(argv)
    seeds = args.seeds or list(DEFAULT_SEEDS)
    differences = compare(args.old, args.new, seeds, args.workload or list(corpus.BUILDERS))
    for line in differences:
        print(line)
    print(f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
