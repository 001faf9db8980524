"""Seeded inputs for the benchmark workloads.

Everything here is plain numpy and JSON: the generator never calls the
library it feeds, so the inputs do not move when the library changes.
One ``numpy`` generator seeded from ``--seed`` draws every random body and
query; the pinned fixtures (the lens, the three-ball body, the thin
lenses) are the same for every seed.

Random inputs are stratified (jittered ring angles, jittered query angles
and offsets) so that the total work of a workload depends on its structure
(ball counts, resolutions, query counts), not on the luck of one seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LENS = {"dim": 2, "radius": 1.0, "centers": [[0.5, 0.0], [-0.5, 0.0]]}
THREE_BALL = {
    "dim": 3,
    "radius": 1.0,
    "centers": [[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]],
}
# One center listed twice: the copies tie everywhere, so the CLI rejects
# the body with ShrinkDelta whatever delta is (a known defect).
DUP_LENS = {"dim": 2, "radius": 1.0, "centers": [[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]]}


def thin_lens(a: float) -> dict:
    return {"dim": 2, "radius": 1.0, "centers": [[a, 0.0], [-a, 0.0]]}


# Dykstra needs many sweeps on these; the +-0.9995 lens is where its stop
# rule misses the documented tolerance or hits the iteration cap.
THIN_99 = thin_lens(0.99)
THIN_995 = thin_lens(0.995)
THIN_9995 = thin_lens(0.9995)
PINNED_9995_QUERY = [0.0, 1.0]

MEASURE_RES_2D = 2**16
MEASURE_LEVEL_3D = 6
# Timed queries all project onto a vertex of one thin lens, where Dykstra
# needs hundreds to thousands of sweeps. Mixing in queries that converge in
# a sweep or two, or queries on a second lens, would put the median op on
# the boundary between two groups, where it jumps from seed to seed.
THIN_995_QUERIES = 120
RING_QUERIES = 30
THIN_9995_QUERIES = 2  # seeded, besides the pinned query


@dataclass
class Op:
    """One benchmark operation: a CLI command on one input file, or one
    ``project_body`` query (``kind == "project"``)."""

    name: str
    kind: str
    body: dict
    input: str | None = None
    resolution: int | None = None
    x: list | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Corpus:
    ops: list[Op]
    warmup: list[Op]
    known_defects: list[Op]
    digest: str


def _radius(rng) -> float:
    return float(rng.uniform(0.8, 1.25))


def ring_body_2d(rng, m: int) -> dict:
    """m balls on a jittered ring, centers at least 0.18 R apart.

    The separation keeps the ridge tubes thin enough for the default blend
    width; whole configurations are redrawn in batches until one fits.
    """
    R = _radius(rng)
    k = np.arange(m)
    while True:
        theta = rng.uniform(0.0, 2.0 * np.pi, (256, 1)) + 2.0 * np.pi * (
            k + rng.uniform(0.0, 0.6, (256, m))
        ) / m
        r = rng.uniform(0.25, 0.6, (256, m))
        c = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        gap = np.linalg.norm(c[:, :, None] - c[:, None], axis=-1) + 9.0 * np.eye(m)
        ok = np.flatnonzero(gap.min(axis=(1, 2)) >= 0.18)
        if len(ok):
            return {"dim": 2, "radius": R, "centers": (R * c[ok[0]]).tolist()}


def random_body_3d(rng, m: int) -> dict:
    """m balls with centers in random directions, at least 0.25 R apart."""
    R = _radius(rng)
    while True:
        u = rng.standard_normal((256, m, 3))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        c = u * rng.uniform(0.2, 0.45, (256, m, 1))
        gap = np.linalg.norm(c[:, :, None] - c[:, None], axis=-1) + 9.0 * np.eye(m)
        ok = np.flatnonzero(gap.min(axis=(1, 2)) >= 0.25)
        if len(ok):
            return {"dim": 3, "radius": R, "centers": (R * c[ok[0]]).tolist()}


def _rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def polygon_2d(rng, k: int = 7) -> dict:
    """Halfspace polygon; jittered normal angles keep every gap below pi."""
    theta = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    offsets = rng.uniform(0.5, 1.0, k)
    return _halfspaces(normals, offsets)


def box(rng, dim: int, lo: float, hi: float) -> dict:
    """Randomly rotated box with offsets in [lo, hi]."""
    q = _rotation(rng, dim)
    normals = np.vstack([q.T, -q.T])
    return _halfspaces(normals, rng.uniform(lo, hi, 2 * dim))


def _halfspaces(normals: np.ndarray, offsets: np.ndarray) -> dict:
    return {
        "halfspaces": [
            {"normal": n.tolist(), "offset": float(o)} for n, o in zip(normals, offsets)
        ]
    }


def outer_extent(body: dict) -> float:
    """R + max|a_i|: the body lies in the origin ball of this radius."""
    return body["radius"] + float(np.max(np.linalg.norm(body["centers"], axis=1)))


def outer_ball(rng, body: dict) -> dict:
    """A ball enclosing the body with a margin, slightly off-center."""
    radius = rng.uniform(1.5, 2.0) * outer_extent(body)
    shift = rng.standard_normal(body["dim"])
    shift *= rng.uniform(0.0, 0.1) * radius / np.linalg.norm(shift)
    return {"dim": body["dim"], "radius": float(radius), "centers": [shift.tolist()]}


def outer_box(rng, body: dict) -> dict:
    ext = outer_extent(body)
    return box(rng, body["dim"], 1.3 * ext, 1.8 * ext)


def radial_2d(body: dict, u: np.ndarray) -> np.ndarray:
    """Exact boundary radius of a 2D ball body along unit rows of u."""
    a = np.asarray(body["centers"], dtype=float)
    R = body["radius"]
    au = u @ a.T
    return np.min(au + np.sqrt(au * au + R * R - np.sum(a * a, axis=1)), axis=1)


def exterior_queries(rng, body: dict, count: int) -> np.ndarray:
    """Exterior points at jittered angles and Latin-hypercube offsets.

    Each query sits 0.02 R to 1.0 R beyond the boundary along its ray, so
    every one is outside the body and its projection is nontrivial.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * (np.arange(count) + rng.random(count)) / count
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    frac = (rng.permutation(count) + rng.random(count)) / count
    offset = body["radius"] * (0.02 + 0.98 * frac)
    return u * (radial_2d(body, u) + offset)[:, None]


def vertex_queries(rng, body: dict, count: int) -> np.ndarray:
    """Exterior points of a symmetric lens whose projection is a vertex.

    Queries alternate between the two vertices (0, +-h); each sits 0.02 R
    to 1.0 R from its vertex, in a direction strictly inside the vertex's
    normal cone, with stratified angles and Latin-hypercube distances.
    """
    a, R = body["centers"][0][0], body["radius"]
    h = np.sqrt(R * R - a * a)
    edge = np.arctan2(h, abs(a))  # the arcs' normals at the vertex
    half = (count + 1) // 2
    k = np.arange(count) // 2
    phi = edge + (np.pi - 2.0 * edge) * (k + rng.random(count)) / half
    dist = R * (0.02 + 0.98 * (rng.permutation(count) + rng.random(count)) / count)
    side = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    return np.column_stack([dist * np.cos(phi), side * (h + dist * np.sin(phi))])


def _smooth_mix(rng):
    bodies = {
        "lens": LENS,
        "ring2d-m3": ring_body_2d(rng, 3),
        "ring2d-m8": ring_body_2d(rng, 8),
        "three-ball": THREE_BALL,
    }
    ops = [Op(f"smooth:{name}", "smooth", body, input=name) for name, body in bodies.items()]
    warmup = [Op("smooth:three-ball", "smooth", THREE_BALL, input="three-ball")]
    known = [Op("smooth:dup-lens", "smooth", DUP_LENS, input="dup-lens")]
    return {**bodies, "dup-lens": DUP_LENS}, ops, warmup, known


def _measure_hires(rng):
    bodies = {
        "lens": LENS,
        "ring2d-m4": ring_body_2d(rng, 4),
        "ring2d-m16": ring_body_2d(rng, 16),
        "polygon2d": polygon_2d(rng),
        "three-ball": THREE_BALL,
        "rand3d-m5": random_body_3d(rng, 5),
        "box3d": box(rng, 3, 0.5, 1.0),
    }

    def res(body):
        return MEASURE_RES_2D if _dim(body) == 2 else MEASURE_LEVEL_3D

    ops = [
        Op(f"measure:{name}", "measure", body, input=name, resolution=res(body))
        for name, body in bodies.items()
    ]
    warmup = [Op("measure:three-ball", "measure", THREE_BALL, input="three-ball", resolution=MEASURE_LEVEL_3D)]
    return bodies, ops, warmup, []


def _certify_project(rng):
    certified = {"lens": LENS, "thin99": THIN_99, "thin995": THIN_995, "three-ball": THREE_BALL}
    probes = {
        "probe-lens": {"inner": LENS, "outer": outer_ball(rng, LENS)},
        "probe-thin99": {"inner": THIN_99, "outer": outer_ball(rng, THIN_99)},
        "probe-thin995": {"inner": THIN_995, "outer": outer_box(rng, THIN_995)},
        "probe-three-ball": {"inner": THREE_BALL, "outer": outer_box(rng, THREE_BALL)},
    }

    # Random multi-ball bodies hit two known defects on some seeds: Dykstra
    # stops up to ~1e-2 away from the true projection near vertices (probe
    # and query errors), and the halfspace-reconstruction certificate's
    # discretization bound fails at sharp corners. They run as known-defect
    # ops so those outcomes are reported without making the counted ops
    # seed-dependent.
    ring5, ring10, ring6 = (ring_body_2d(rng, m) for m in (5, 10, 6))
    rand3d = random_body_3d(rng, 4)
    watched = {"ring2d-m5": ring5, "ring2d-m10": ring10, "rand3d-m4": rand3d}
    watched_probe = {"probe-ring2d-m6": {"inner": ring6, "outer": outer_box(rng, ring6)}}

    ops = [Op(f"certify:{name}", "certify", body, input=name) for name, body in certified.items()]
    ops += [Op(f"probe:{name}", "probe", pair["inner"], input=name) for name, pair in probes.items()]
    ops += _queries("thin995", THIN_995, vertex_queries(rng, THIN_995, THIN_995_QUERIES))

    known = [Op(f"certify:{name}", "certify", body, input=name) for name, body in watched.items()]
    known += [Op(f"probe:{name}", "probe", pair["inner"], input=name) for name, pair in watched_probe.items()]
    known += _queries("ring2d-m6", ring6, exterior_queries(rng, ring6, RING_QUERIES))
    known += [Op("project:thin9995#pinned", "project", THIN_9995, x=PINNED_9995_QUERY, meta={"body": "thin9995"})]
    known += _queries("thin9995", THIN_9995, exterior_queries(rng, THIN_9995, THIN_9995_QUERIES))

    warmup = [
        Op("certify:three-ball", "certify", THREE_BALL, input="three-ball"),
        Op("probe:probe-lens", "probe", LENS, input="probe-lens"),
        next(op for op in ops if op.kind == "project"),
    ]
    files = {**certified, **probes, **watched, **watched_probe, "ring2d-m6": ring6, "thin9995": THIN_9995}
    return files, ops, warmup, known


def _queries(name: str, body: dict, points: np.ndarray) -> list[Op]:
    return [
        Op(f"project:{name}#{i}", "project", body, x=x.tolist(), meta={"body": name})
        for i, x in enumerate(points)
    ]


def _dim(body: dict) -> int:
    if "halfspaces" in body:
        return len(body["halfspaces"][0]["normal"])
    return body["dim"]


BUILDERS = {
    "smooth-mix": _smooth_mix,
    "measure-hires": _measure_hires,
    "certify-project": _certify_project,
}


def build(workload: str, seed: int, directory: Path) -> Corpus:
    """Draw the workload's inputs from ``seed`` and write them as JSON.

    Body and probe files go to ``directory/<name>.json``; the project
    queries go to ``directory/queries.json``. The digest is a SHA-256 over
    every written file, so two runs can be checked to share inputs.
    """
    rng = np.random.default_rng(seed)
    files, ops, warmup, known = BUILDERS[workload](rng)
    directory.mkdir(parents=True, exist_ok=True)
    texts = {f"{name}.json": json.dumps(data, sort_keys=True) for name, data in files.items()}
    queries = [
        {"name": op.name, "body": op.meta["body"], "x": op.x}
        for op in ops + known
        if op.kind == "project"
    ]
    texts["queries.json"] = json.dumps(queries)
    digest = hashlib.sha256()
    for fname in sorted(texts):
        (directory / fname).write_text(texts[fname] + "\n")
        digest.update(fname.encode() + b"\0" + texts[fname].encode() + b"\0")
    for op in ops + warmup + known:
        if op.input is not None:
            op.input = str(directory / f"{op.input}.json")
    return Corpus(ops=ops, warmup=warmup, known_defects=known, digest=digest.hexdigest())
