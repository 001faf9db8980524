#!/usr/bin/env python3
"""Benchmark of the convexsmooth CLI and library, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload smooth-mix --seed 1 --seconds 30 --trace 0

Workloads (inputs drawn from ``--seed`` by ``bench/corpus.py``):

- ``smooth-mix``: CLI ``smooth`` at the CLI defaults on 2D and 3D ball
  bodies; many small gauge batches, the blend fold and the level scan.
- ``measure-hires``: CLI ``measure`` at 2D resolution 2^16 and icosphere
  level 6, writing large meshes; few huge batches.
- ``certify-project``: CLI ``certify`` and ``probe`` plus single
  ``project_body`` queries, thin lenses included; Dykstra projection and
  the per-point certificate loops.

An op is one CLI command on one input, run in-process through
``convexsmooth.cli.run``, or one ``project_body`` query. The run sets up
(imports the package, writes the inputs, runs one warm-up op of each kind;
repeated and the median kept), then runs whole passes over the op list
until ``--seconds`` is used, and checks every op's output. One process, one
thread: BLAS thread variables are pinned to 1 before numpy loads.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracing.py`` and ``layer_map.json``). The last stdout line is the result
object; the line before it carries run metadata, the corpus digest, the
per-command latencies and the outcomes of the known-defect ops. Both, and
the span dump of a traced run, are also written to
``.bench_out/<workload>-seed<seed>/``.

Known-defect ops (the duplicate-center lens for ``smooth``, queries on the
+-0.9995 lens for ``project_body``) run once per run after the passes.
Their outcomes are reported as they are, but they are not counted in
``attempted``/``failed`` and are not timed into any metric, so the counted
ops all pass on a correct build.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("smooth-mix", "measure-hires", "certify-project")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_UNTRACED_PASSES = 2
EPSILON = 0.05  # RunConfig default, which the smooth ops use
COMMANDS = ("smooth", "measure", "certify", "probe")

# On shared machines the CPU speed drifts by up to ~2x within seconds, and
# process CPU time drifts with it. A fixed Python-and-numpy kernel that
# never calls the library is timed at the start of every pass and again
# after every REFERENCE_EVERY_S of op time. The ops between two kernel runs
# are scaled by REFERENCE_NOMINAL_S / (mean of the two kernel times), so
# reported times are seconds on a machine where the kernel takes the
# nominal time. Raw times and the scales are on the detail line.
REFERENCE_NOMINAL_S = 0.01
REFERENCE_EVERY_S = 0.25


@dataclass
class OpResult:
    index: int
    seconds: float
    ok: bool
    info: dict
    bytes_written: int = 0
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.scale * self.seconds


@dataclass
class Pass:
    results: list[OpResult]
    traced: bool

    @property
    def wall(self) -> float:
        return sum(r.scaled for r in self.results)

    @property
    def raw_wall(self) -> float:
        return sum(r.seconds for r in self.results)


@functools.cache
def _reference_points():
    import numpy as np

    return np.random.default_rng(12345).standard_normal((4096, 2))


def reference_seconds() -> float:
    """Time one run of the fixed reference kernel.

    Its three parts mirror the library's work: numpy on a few thousand
    points (meshing, gauges), numpy calls on 2-vectors in a Python loop
    (alternating projections, per-point loops), and plain Python.
    """
    import numpy as np

    p = _reference_points()
    centers = np.array([[0.6, 0.0], [-0.6, 0.0]])
    start = perf_counter()
    acc = 0.0
    for k in range(40):
        a = np.array([0.1 * (k % 5), -0.05 * (k % 3)])
        pa = p @ a
        pp = np.einsum("ij,ij->i", p, p)
        root = np.sqrt(pa * pa + 0.7 * pp)
        acc += float(np.max(np.where(pa >= 0.0, pp / (root + pa), (root - pa) / 0.7)))
    x = np.array([0.0, 2.0])
    for i in range(1500):
        v = x - centers[i % 2]
        d = float(np.linalg.norm(v))
        x = centers[i % 2] + v / d if d > 1.0 else x.copy()
        acc += float(x @ v)
    for i in range(10000):
        acc += (i * i) % 7
    return perf_counter() - start


class Runner:
    """Runs ops through the library and checks what they produce."""

    def __init__(self, out: Path, cs, checks, tracer=None):
        self.out = out
        self.cs = cs
        self.checks = checks
        self.tracer = tracer
        self.ball_bodies: dict[str, object] = {}

    def prepare(self, ops) -> None:
        """Parse query bodies and points once, outside the timed region."""
        import numpy as np

        for op in ops:
            if op.kind == "project":
                if op.meta["body"] not in self.ball_bodies:
                    self.ball_bodies[op.meta["body"]] = self.cs.bodies.body_from_json(op.body)
                op.meta["point"] = np.asarray(op.x, dtype=float)

    def execute(self, index: int, op, traced: bool = False) -> OpResult:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.op_id = index
        outdir = self.out / re.sub(r"[^A-Za-z0-9_.-]", "_", op.name)
        outcome = None
        start = perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span(op.kind):
                    outcome = self._call(op, outdir)
            else:
                outcome = self._call(op, outdir)
        except self.cs.errors.ConvexSmoothError as e:
            outcome = e
        except Exception as e:  # a broken build must not stop the run
            outcome = e
            traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        try:
            ok, info = self._check(op, outdir, outcome)
        except Exception as e:
            ok, info = False, {"error": f"check failed: {type(e).__name__}: {e}"}
        finally:
            if tracer is not None:
                tracer.recording = True
        written = sum(f.stat().st_size for f in outdir.iterdir()) if op.kind != "project" and outdir.is_dir() else 0
        return OpResult(index, seconds, ok, info, written)

    def _call(self, op, outdir: Path):
        if op.kind == "project":
            return self.cs.project.project_body(self.ball_bodies[op.meta["body"]], op.meta["point"])
        config = self.cs.cli.RunConfig(
            command=op.kind, input=op.input, output=str(outdir), resolution=op.resolution
        )
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code = self.cs.cli.run(config)
        return code, stderr.getvalue().strip()

    def _check(self, op, outdir: Path, outcome) -> tuple[bool, dict]:
        checks = self.checks
        if isinstance(outcome, Exception):
            return False, {"error": f"{type(outcome).__name__}: {outcome}"}
        if op.kind == "project":
            return checks.check_projection(op.body, op.x, outcome)
        code, stderr = outcome
        if code != 0:
            return False, {"exit": code, "stderr": stderr}
        if op.kind == "smooth":
            return checks.check_smooth(outdir, op.body, EPSILON)
        if op.kind == "measure":
            return checks.check_measure(outdir, op.body, op.resolution)
        if op.kind == "certify":
            return checks.check_certify(outdir)
        return checks.check_probe(outdir)


def run_pass(ops, runner: Runner, traced: bool) -> Pass:
    gc.collect()
    results: list[OpResult] = []
    before = reference_seconds()
    segment = 0
    for i, op in enumerate(ops):
        results.append(runner.execute(i, op, traced))
        if sum(r.seconds for r in results[segment:]) >= REFERENCE_EVERY_S or i == len(ops) - 1:
            after = reference_seconds()
            for r in results[segment:]:
                r.scale = 2.0 * REFERENCE_NOMINAL_S / (before + after)
            before, segment = after, len(results)
    return Pass(results, traced)


def measure(ops, runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    """Whole passes until the next one would overrun ``seconds``.

    Untraced runs make at least two passes; traced runs alternate an
    untraced and a traced pass, at least one of each.
    """
    passes: list[Pass] = []
    begin = perf_counter()
    last_cost = {False: 0.0, True: 0.0}
    while True:
        n_traced = sum(p.traced for p in passes)
        traced = trace and n_traced < len(passes) - n_traced
        if traced:
            runner.tracer.install()
        t0 = perf_counter()
        try:
            passes.append(run_pass(ops, runner, traced))
        finally:
            if traced:
                runner.tracer.uninstall()
        last_cost[traced] = perf_counter() - t0
        n_traced = sum(p.traced for p in passes)
        n_untraced = len(passes) - n_traced
        enough = n_traced >= 1 if trace else n_untraced >= MIN_UNTRACED_PASSES
        next_traced = trace and n_traced < n_untraced
        next_cost = last_cost[next_traced] or last_cost[False]
        if enough and perf_counter() - begin + next_cost > seconds:
            return passes


def median_latencies(passes: list[Pass]) -> dict[int, float]:
    """Per-op median latency over the passes where the op succeeded."""
    samples: dict[int, list[float]] = {}
    for p in passes:
        for r in p.results:
            if r.ok:
                samples.setdefault(r.index, []).append(r.scaled)
    return {i: statistics.median(v) for i, v in samples.items()}


def high_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convexsmooth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_metadata(cs, convexsmooth_threads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "convexsmooth": cs.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "CONVEXSMOOTH_THREADS": convexsmooth_threads,
    }


def clear_icosphere_cache(cs) -> None:
    # Every set-up repetition rebuilds the icosphere grids, so setup_s keeps
    # the grid construction the first warm-up pays.
    cache = getattr(cs.grids, "_ICO_CACHE", None)
    if cache is not None:
        cache.clear()


def setup(cs, corpus_mod, workload: str, seed: int, workdir: Path, runner: Runner):
    """One set-up: write the inputs, parse the queries, warm up each kind."""
    clear_icosphere_cache(cs)
    start = perf_counter()
    corpus = corpus_mod.build(workload, seed, workdir / "corpus")
    runner.prepare(corpus.ops + corpus.known_defects)
    for op in corpus.warmup:
        runner.execute(-1, op)
    return perf_counter() - start, corpus


def figures(ops, passes, untraced, latencies, setup_s, doc_tol) -> dict:
    """Every end-to-end figure that applies to the workload, with units.

    Per-command medians and the projection tail cover successful ops only;
    fail_frac covers every counted op of every pass.
    """
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.ok for p in passes for r in p.results)
    out = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall for p in untraced), "unit": "s"},
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    for kind in COMMANDS + ("project",):
        lat = [latencies[i] for i, op in enumerate(ops) if op.kind == kind and i in latencies]
        if lat:
            out[f"{kind}_p50_s"] = {"value": statistics.median(lat), "unit": "s", "samples": len(lat)}
        if kind == "project" and high_percentile(lat):
            out["project_hi_s"] = {"unit": "s", **high_percentile(lat)}
    for key, name, unit in (
        ("symdiff_ratio", "symdiff_ratio_max", "ratio"),
        ("proj_err", "proj_err_max", "length"),
        ("radius_err", "radius_err_max", "ratio"),
    ):
        values = [r.info[key] for p in passes for r in p.results if key in r.info]
        if values:
            out[name] = {"value": max(values), "unit": unit}
    if any(op.kind == "project" for op in ops):
        over = {r.index for p in passes for r in p.results if r.info.get("proj_err", 0.0) > doc_tol}
        out["proj_over_doc_tol"] = {"value": len(over), "unit": "count"}
    return out


def per_layer_values(tracer, passes, untraced, figs, known) -> dict[str, float]:
    """Per-layer metrics: trace counts and self times, plus the per-command
    figures and output quality (zero where the workload has no such op)."""
    traced = [p for p in passes if p.traced]
    values = tracer.layer_values(len(traced))
    values["measure.export.self_s"] = values["measure.polyline_json.self_s"] + values["measure.off_text.self_s"]
    directions = values["measure.batch_ray_crossings.directions"]
    values["measure.batch_ray_crossings.level_evals_per_dir"] = (
        values["measure.batch_ray_crossings.level_evals"] / directions if directions else 0.0
    )
    queries = values["project.project_body.calls"]
    values["project.project_ball_per_query"] = values["project.project_ball.calls"] / queries if queries else 0.0
    values["cli.bytes_written"] = statistics.mean(sum(r.bytes_written for r in p.results) for p in traced)
    values["trace_overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1.0
    )
    for name, fig in [(f"cli.{c}.p50_s", f"{c}_p50_s") for c in COMMANDS] + [
        ("project.project_body.p50_s", "project_p50_s"),
        ("project.project_body.hi_s", "project_hi_s"),
        ("smooth.symdiff_ratio_max", "symdiff_ratio_max"),
        ("project.proj_err_max", "proj_err_max"),
        ("project.project_body.over_tol", "proj_over_doc_tol"),
        ("measure.radius_err_max", "radius_err_max"),
    ]:
        values[name] = figs[fig]["value"] if fig in figs else 0.0
    for layer, kinds in (("smooth", ("smooth",)), ("certify", ("certify",)), ("project", ("probe", "project"))):
        values[f"{layer}.known_defects.failed"] = sum(not k["ok"] for k in known if k["kind"] in kinds)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    convexsmooth_threads = os.environ.pop("CONVEXSMOOTH_THREADS", None)
    src = ROOT / "src"
    if not (src / "convexsmooth" / "__init__.py").is_file():
        print(f"error: no convexsmooth sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    start = perf_counter()
    import convexsmooth as cs
    import convexsmooth.cli
    import convexsmooth.errors
    import convexsmooth.project

    import_s = perf_counter() - start
    if Path(cs.__file__).resolve().parent != (src / "convexsmooth").resolve():
        print(f"error: imported convexsmooth from {cs.__file__}, not {src}", file=sys.stderr)
        return 2

    import checks
    import corpus as corpus_mod
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workdir / "out", cs, checks, tracer)

    setups, references = [], [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        seconds, corpus = setup(cs, corpus_mod, args.workload, args.seed, workdir, runner)
        setups.append(seconds)
        references.append(reference_seconds())
    setup_scale = REFERENCE_NOMINAL_S / statistics.median(references)
    setup_s = setup_scale * (import_s + statistics.median(setups))

    ops = corpus.ops
    passes = measure(ops, runner, args.seconds, bool(args.trace))
    known = []
    for op in corpus.known_defects:
        r = runner.execute(-1, op)
        known.append({"op": op.name, "kind": op.kind, "ok": r.ok, "seconds": r.seconds, **r.info})

    untraced = [p for p in passes if not p.traced]
    latencies = median_latencies(untraced)
    attempted = sum(len(p.results) for p in passes)
    failed = sum(not r.ok for p in passes for r in p.results)
    figs = figures(ops, passes, untraced, latencies, setup_s, checks.PROJECT_BODY_DOC_TOL)

    if args.trace:
        values = per_layer_values(tracer, passes, untraced, figs, known)
        tracer.dump(workdir / "spans.npz")
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": figs["wall_s"]["value"],
            "op_p50_s": statistics.median(latencies.values()),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus_sha256": corpus.digest,
        "meta": {**run_metadata(cs, convexsmooth_threads), "import_s": import_s, "setup_repeats_s": setups},
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced), "ops_per_pass": len(ops)},
        "speed": {
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "setup_scale": setup_scale,
            "pass_scales": [p.wall / p.raw_wall for p in passes],
            "raw_wall_s": [p.raw_wall for p in passes],
        },
        "metrics": figs,
        "op_median_s": {ops[i].name: v for i, v in sorted(latencies.items())},
        "known_defects": known,
        "failures": [
            {"op": ops[r.index].name, **r.info} for p in passes for r in p.results if not r.ok
        ][:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "result.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
