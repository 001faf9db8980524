#!/usr/bin/env python3
"""Minor page faults and CPU time of each CLI op of a benchmark workload.

Usage, from the repository root::

    python3 tools/op_faults.py --workload NAME [--repeats R]

The inputs are those that ``bench/corpus.py`` draws for the workload at
seed 1. The ops run in this process through
``convexsmooth.cli.run``, with the BLAS thread variables pinned to 1
before numpy loads, as ``bench/run.py`` runs them: first the corpus's
warm-up ops and one untimed pass over the counted CLI ops, then R passes
(5 when none is given). ``project`` ops are library queries, not CLI
commands, and known-defect ops are not counted, so neither runs.

One line is printed per op, in pass order: the median over the passes of
its wall time in ms, and, from ``resource.getrusage(RUSAGE_SELF)`` read
before and after the op, of its minor page faults and its user and
system CPU time in ms. A nonzero exit code is printed at the end of the
line. Only this process's own counters are read, and no setting of the
process or the machine is changed: a fault count that stays above 0 after
the warm-up is memory that the op's allocator handed back to the kernel
and took again.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import statistics
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads, pinned as bench/run.py pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_op(cli, op, outdir: Path) -> tuple[int, float, int, float, float]:
    """(exit code, wall s, minor faults, user s, system s) of one op."""
    config = cli.RunConfig(command=op.kind, input=op.input, output=str(outdir), resolution=op.resolution)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    with redirect_stderr(io.StringIO()):
        code = cli.run(config)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (
        code,
        wall,
        after.ru_minflt - before.ru_minflt,
        after.ru_utime - before.ru_utime,
        after.ru_stime - before.ru_stime,
    )


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True  # bench/ is read, never written
    import corpus

    from convexsmooth import cli

    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    parser.add_argument("--workload", required=True, choices=list(corpus.BUILDERS))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        built = corpus.build(args.workload, 1, base / "corpus")
        ops = [op for op in built.ops if op.kind != "project"]
        outdirs = [base / "out" / str(i) for i in range(len(ops))]
        for op in built.warmup:
            if op.kind != "project":
                _run_op(cli, op, base / "warmup")
        for op, outdir in zip(ops, outdirs):
            _run_op(cli, op, outdir)
        samples = [[] for _ in ops]
        for _ in range(args.repeats):
            for op, outdir, runs in zip(ops, outdirs, samples):
                runs.append(_run_op(cli, op, outdir))

    width = max(len(op.name) for op in ops)
    for op, runs in zip(ops, samples):
        codes, walls, faults, user, system = zip(*runs)
        line = (
            f"{op.name:<{width}}  {1e3 * statistics.median(walls):9.2f} ms"
            f"  faults {statistics.median(faults):7.0f}"
            f"  user {1e3 * statistics.median(user):8.2f} ms"
            f"  sys {1e3 * statistics.median(system):7.2f} ms"
        )
        if any(codes):
            line += f"  exit {max(codes, key=abs)}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
