"""The benchmark's tracer must find every function it traces.

``bench/tracing.py`` wraps library functions by name; a renamed or deleted
one would otherwise surface only as a crash of a traced benchmark run.
The tracer module is compiled from its source, so nothing is written
under ``bench/``.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _bindings(tracing):
    """Every (module, attribute, value) of the convexsmooth modules the tracer scans."""
    modules = [importlib.import_module("convexsmooth" + m) for m in tracing.MODULES]
    return [(m, attr, value) for m in modules for attr, value in vars(m).items()]


def test_every_traced_name_resolves(tracing):
    for mod_name, fns in tracing.TRACED.items():
        module = importlib.import_module(f"convexsmooth.{mod_name}")
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_every_stat_belongs_to_a_traced_name(tracing):
    traced = {f"{mod}.{fn}" for mod, fns in tracing.TRACED.items() for fn in fns}
    for stat in tracing.STATS:
        assert stat.rsplit(".", 1)[0] in traced, stat


def test_install_then_uninstall_restores_every_binding(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {(id(m), attr) for m, attr, value in before if getattr(m, attr) is not value}
        traced = {(mod, fn) for mod, fns in tracing.TRACED.items() for fn in fns}
        homes = {
            (mod, fn)
            for mod, fn in traced
            if (id(importlib.import_module(f"convexsmooth.{mod}")), fn) in wrapped
        }
        assert homes == traced
    finally:
        tracer.uninstall()
    assert all(getattr(m, attr) is value for m, attr, value in before)


# Library names that bench/run.py and bench/checks.py read, as they reach
# them from the package. A rename would surface only as a failed benchmark
# run.
BENCH_NAMES = (
    "__version__",
    "bodies.body_from_json",
    "bodies.BallBody",
    "errors.ConvexSmoothError",
    "project.project_body",
    "cli.run",
    "cli.RunConfig",
    "gauge.body_gauge_values",
)


def test_every_name_the_benchmark_uses_resolves():
    cs = importlib.import_module("convexsmooth")
    for module in ("cli", "errors", "project"):  # bench/run.py imports these itself
        importlib.import_module(f"convexsmooth.{module}")
    for path in BENCH_NAMES:
        value = cs
        for attr in path.split("."):
            value = getattr(value, attr, None)
        assert value is not None, path
    config = cs.cli.RunConfig(command="smooth", input="in.json", output="out", resolution=64)
    assert (config.command, config.input, config.output, config.resolution) == (
        "smooth", "in.json", "out", 64
    )
    # clear_icosphere_cache reads it with getattr(..., None), so a rename
    # would skip the clear silently
    assert isinstance(cs.grids._ICO_CACHE, dict)
