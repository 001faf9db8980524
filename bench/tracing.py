"""Span tracing of the library's layers from outside the library.

While installed, the tracer replaces each listed public function in every
``convexsmooth`` module namespace that binds it (``member_gauges`` lives
in ``gauge`` and is imported into ``smooth``; both bindings are wrapped),
so calls made through any import path are seen. Each call becomes a span
(name, start, end, parent span, op id) held in flat in-memory arrays and
written out once, at the end of the run. Work counts come from argument
and return shapes; bisection steps are counted by wrapping the
``level_fn`` handed to ``batch_ray_crossings``.

A span's self time is its duration minus the durations of its direct
child spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "gauge": ("member_gauges", "ball_gauge", "ball_gauge_derivatives"),
    "measure": (
        "batch_ray_crossings",
        "boundary_mesh",
        "symmetric_difference_breakdown",
        "polyline_json",
        "off_text",
    ),
    "smooth": (
        "extract_smoothed_body",
        "level_disagreement_scan",
        "blended_level_mesh",
        "blended_values",
        "agreement_many",
        "blended_gauge_sq",
    ),
    "grids": ("icosphere",),
    "project": ("project_body", "project_ball", "boundary_surjectivity_probe"),
    "certify": (
        "ball_support_check",
        "ball_family_check",
        "gauge_sq_hessian_check",
        "halfspace_reconstruction_gap",
        "subgradient_certificate",
    ),
    "bodies": ("contains", "contains_many", "outward_normal"),
    "cli": ("run",),
}

# Work counts beyond calls and self time, as "module.function.stat".
STATS = (
    "gauge.member_gauges.evals",
    "measure.batch_ray_crossings.directions",
    "measure.batch_ray_crossings.level_evals",
    "smooth.level_disagreement_scan.levels",
    "smooth.blended_values.points",
    "smooth.agreement_many.points",
    "bodies.contains_many.points",
)

MODULES = ("", ".bodies", ".certify", ".cli", ".gauge", ".grids", ".measure", ".project", ".smooth")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _npoints(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    """Records spans and work counts for the functions in ``TRACED``."""

    def __init__(self):
        self.names: list[str] = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(STATS, 0.0)
        self.op_id = -1
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._counters = {
            "gauge.member_gauges": self._count_member_gauges,
            "smooth.level_disagreement_scan": self._count_scan,
            "smooth.blended_values": self._count_points("smooth.blended_values.points"),
            "smooth.agreement_many": self._count_points("smooth.agreement_many.points"),
            "bodies.contains_many": self._count_points("bodies.contains_many.points"),
        }

    # -- spans -----------------------------------------------------------
    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, kind: str):
        """Root span of one benchmark operation."""
        sid = self._open(self._intern(f"op.{kind}"))
        try:
            yield
        finally:
            self._close(sid)

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- counters --------------------------------------------------------
    def _count_member_gauges(self, args, kwargs):
        body = _arg(args, kwargs, 0, "body")
        self.counts["gauge.member_gauges.evals"] += _npoints(_arg(args, kwargs, 1, "x")) * body.num_balls

    def _count_scan(self, args, kwargs):
        self.counts["smooth.level_disagreement_scan.levels"] += _arg(args, kwargs, 2, "scan")

    def _count_points(self, key: str):
        def counter(args, kwargs):
            self.counts[key] += _npoints(_arg(args, kwargs, 1, "points"))

        return counter

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, fn):
        name_id = self._name_id[name]
        counter = self._counters.get(name)
        tracer = self

        if name == "measure.batch_ray_crossings":

            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return fn(*args, **kwargs)
                level_fn = _arg(args, kwargs, 0, "level_fn")
                directions = _arg(args, kwargs, 1, "directions")

                def counted(points):
                    tracer.counts["measure.batch_ray_crossings.level_evals"] += len(points)
                    return level_fn(points)

                tracer.counts["measure.batch_ray_crossings.directions"] += len(directions)
                kwargs.pop("level_fn", None)
                sid = tracer._open(name_id)
                try:
                    return fn(counted, *args[1:], **kwargs)
                finally:
                    tracer._close(sid)

            return wrapper

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(args, kwargs)
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every traced function."""
        modules = [importlib.import_module("convexsmooth" + m) for m in MODULES]
        originals = {}
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"convexsmooth.{mod_name}")
            for fn_name in fns:
                originals[id(getattr(home, fn_name))] = f"{mod_name}.{fn_name}"
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def layer_values(self, passes: int) -> dict[str, float]:
        """Per-pass calls, self time and work counts for every traced name."""
        name, start, end, parent = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        values = {}
        for i, n in enumerate(self.names):
            values[f"{n}.calls"] = calls[i] / passes
            values[f"{n}.self_s"] = self_time[i] / passes
        for key, v in self.counts.items():
            values[key] = v / passes
        return values

    def dump(self, path: Path) -> None:
        name, start, end, parent = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32),
        )
