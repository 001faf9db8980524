"""Shared oracles and fixture builders for the test suite.

Everything here is deliberately independent of the code paths it checks:
the gauge oracle runs a membership bisection, the projection oracle scans
a dense boundary cloud, and derivatives come from finite differences.
"""

from __future__ import annotations

import json
import math
import sys
import types
from functools import cache
from itertools import combinations
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from convexsmooth import Ball, BallBody, ball_gauge_derivatives, contains
from convexsmooth._text import _BLOCK_ROWS
from convexsmooth.bodies import MEMBERSHIP_SLACK, NORMAL_ATOL, _dot, _norm, _row_dots, farthest_point
from convexsmooth.gauge import body_gauge_values
from convexsmooth.measure import boundary_samples, facet_centroids
from convexsmooth.project import project_body
from convexsmooth.smooth import RIDGE_GUARD, _phi_terms, agreement_many


def gauge_by_bisection(ball: Ball, x, rel_tol: float = 1e-13) -> float:
    """Gauge via bisection on the membership predicate |x/lam - a| <= R."""
    x = np.asarray(x, dtype=float)
    if float(x @ x) == 0.0:
        return 0.0

    def member(lam: float) -> bool:
        return np.linalg.norm(x / lam - ball.center) <= ball.radius

    hi = 1.0
    while not member(hi):
        hi *= 2.0
    lo = hi / 2.0
    while lo > 1e-300 and member(lo):
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def random_ball_body(
    rng: np.random.Generator,
    dim: int,
    num_balls: int,
    radius_range=(0.8, 1.3),
    center_frac: float = 0.35,
    min_sep_frac: float = 0.15,
) -> BallBody:
    """Random body with well-separated centers (keeps ridge tubes thin)."""
    radius = rng.uniform(*radius_range)
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < num_balls:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("could not place separated centers")
        c = rng.uniform(-1.0, 1.0, size=dim) * center_frac * radius
        if np.linalg.norm(c) > center_frac * radius:
            continue
        if any(np.linalg.norm(c - o) < min_sep_frac * radius for o in centers):
            continue
        centers.append(c)
    return BallBody(radius=radius, centers=np.array(centers), dim=dim)


def _unit_vector(dim: int, z: float, angle: float) -> np.ndarray:
    """The unit vector at height z (0 in 2D) and polar angle ``angle``."""
    rho = math.sqrt(1.0 - z * z)
    xy = [rho * math.cos(angle), rho * math.sin(angle)]
    return np.array(xy if dim == 2 else xy + [z])


@st.composite
def ball_bodies(draw, dims=(2, 3), max_balls: int = 5, min_interior: float = 1e-4):
    """Hypothesis strategy for ball bodies, degenerate corners included.

    Each center is free (|a| <= 0.9 R), close to the sphere of radius R
    (|a| -> R, down to an interior radius of ``min_interior`` R), a near
    copy of an earlier center (near-coincident balls, whose tie region
    covers much of the boundary), or nearly opposite an earlier one (two
    balls close to external tangency, a thin lens).
    """
    dim = draw(st.sampled_from(dims))
    radius = draw(st.floats(0.5, 2.0))
    # unit vectors with no rejected draws: an angle in 2D, a height and an
    # angle in 3D
    height = st.just(0.0) if dim == 2 else st.floats(-1.0, 1.0)
    unit = st.tuples(height, st.floats(0.0, 2.0 * math.pi)).map(lambda za: _unit_vector(dim, *za))
    limit = radius * (1.0 - min_interior)
    centers: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, max_balls))):
        kinds = ["free", "near_R"] + (["near_copy", "opposite"] if centers else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "free":
            c = draw(unit) * draw(st.floats(0.0, 0.9)) * radius
        elif kind == "near_R":
            c = draw(unit) * (1.0 - 10.0 ** -draw(st.floats(1.0, 4.0))) * radius
        else:
            base = centers[draw(st.integers(0, len(centers) - 1))]
            if kind == "opposite":
                base = -base
            c = base + draw(unit) * 10.0 ** draw(st.floats(-7.0, -2.0)) * radius
        norm = np.linalg.norm(c)
        if norm > limit:
            c = c * (limit / norm)
        centers.append(c)
    return BallBody(radius=radius, centers=np.array(centers), dim=dim)


def many_ball_body(count: int = 16, seed: int = 0) -> BallBody:
    """A 3D body of R = 1 whose centers lie in random directions at 0.2-0.6 R,
    drawn from ``default_rng(seed)``: any count succeeds, and 16 balls give
    677 intersection spheres."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((count, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return BallBody(radius=1.0, centers=u * rng.uniform(0.2, 0.6, count)[:, None], dim=3)


def extreme_queries(body: BallBody, seed: int) -> np.ndarray:
    """Points around a body at scales from 0.01 R to 3 R, the centers, the
    origin with either sign of zero, and points with a negative-zero
    coordinate."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((24, body.dim)) * rng.uniform(0.01, 3.0, (24, 1)) * body.radius
    signed = x[:4].copy()
    signed[:, 0] = -0.0
    zeros = np.array([np.zeros(body.dim), np.full(body.dim, -0.0)])
    return np.vstack([x, signed, zeros, body.centers])


# Degenerate bodies for farthest points, where a naive candidate rule breaks.
# c = a_i puts c on the axis of every sphere through a_i, which is then
# equally far from c everywhere
AXIS_CASE = BallBody(
    radius=0.625, centers=[[0.5625, 0.0, 0.0], [-0.15483108, 0.33831209, 0.421875]], dim=3
)
# collinear centers, 1e-7 apart: c - c_S has a tiny part off the pair axes
TINY_W_CASE = BallBody(
    radius=1.0,
    centers=[[0.270151153, 0.420735492], [5.40302306e-08, 8.41470985e-08], [0.0, 0.0]],
    dim=2,
)
# centers 1e-4 apart: normalizing c - c_S outside the complement basis puts
# candidates off their spheres by more than the membership slack
NEAR_COPY_CASE = BallBody(
    radius=1.0, centers=[[0.9, 0.0], [-0.3745321528924282, 0.8183676841431136], [0.9001, 0.0]], dim=2
)


def gauge_condition(body: BallBody, points: np.ndarray) -> np.ndarray:
    """Relative condition number of each member gauge in <x, a_i>, (N, m).

    The gauge's relative error per unit relative error of <x, a> is about
    |x| |a| / s with s = sqrt(<x, a>^2 + k |x|^2). Two correct evaluations
    that sum <x, a> in different orders differ by up to a few ulp times
    1 + |x| |a| / s, which grows like |a|/sqrt(k) as |a| -> R.
    """
    xa = points @ body.centers.T
    xx = np.einsum("ij,ij->i", points, points)[:, None]
    k = body.radius**2 - np.einsum("ij,ij->i", body.centers, body.centers)
    s = np.sqrt(xa * xa + k * xx)
    return 1.0 + np.sqrt(xx) * np.linalg.norm(body.centers, axis=1) / s


def blended_gauge_sq_reference(gauge, x):
    """Blended squared gauge, gradient and Hessian at one point, folded
    member by member from per-ball :func:`ball_gauge_derivatives` calls
    (the scalar form of the batched fold)."""
    evs = [ball_gauge_derivatives(Ball(c, gauge.body.radius), x) for c in gauge.body.centers]
    vals = np.array([e.value**2 for e in evs])
    order_idx = np.argsort(-vals, kind="stable")
    i0 = order_idx[0]
    acc_v = float(vals[i0])
    acc_g = 2.0 * evs[i0].value * evs[i0].grad
    acc_h = evs[i0].hess_sq.copy()
    for i in order_idx[1:]:
        b_v = float(vals[i])
        t = acc_v - b_v
        if t >= gauge.delta:
            continue
        b_g = 2.0 * evs[i].value * evs[i].grad
        phi, dphi, d2 = _phi_terms(t, gauge.delta)
        w = 0.5 * (1.0 + float(dphi))
        diff = acc_g - b_g
        acc_v = 0.5 * (acc_v + b_v + float(phi))
        acc_g = w * acc_g + (1.0 - w) * b_g
        acc_h = w * acc_h + (1.0 - w) * evs[i].hess_sq + 0.5 * float(d2) * np.outer(diff, diff)
    return acc_v, acc_g, acc_h


def member_gauges_reference(body: BallBody, points: np.ndarray) -> np.ndarray:
    """Member gauges (N, m) in the two-branch np.where form, one temporary
    per operation (the plain form of ``gauge._gauge_kernel``)."""
    xs = np.asarray(points, dtype=float)
    xa = _row_dots(xs, body.centers)
    xx = np.einsum("...i,...i->...", xs, xs)[..., None]
    k = body.radius**2 - np.array([float(c @ c) for c in body.centers])
    s = np.sqrt(xa * xa + k * xx)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = xx / (s + xa)
        neg = (s - xa) / k
    val = np.where(xa >= 0.0, pos, neg)
    return np.where(xx == 0.0, 0.0, val)


def contains_many_reference(body: BallBody, points: np.ndarray) -> np.ndarray:
    """Ball-body membership from the (N, m) np.linalg.norm table of every
    point-center distance (the one-pass form of ``contains_many``)."""
    d = np.linalg.norm(points[:, None, :] - body.centers[None, :, :], axis=2)
    return np.all(d <= body.radius + MEMBERSHIP_SLACK * body.radius, axis=1)


def outward_normal_reference(body: BallBody, y: np.ndarray) -> np.ndarray:
    """Ball-body outward normals at the rows of y with np.linalg.norm (the
    library's rule, in its (N, m, n) form)."""
    diff = y[:, None, :] - body.centers
    d = np.linalg.norm(diff, axis=2)
    active = np.abs(d - body.radius) <= NORMAL_ATOL * body.radius
    active |= ~np.any(active, axis=1, keepdims=True) & (
        d >= np.max(d, axis=1, keepdims=True) - NORMAL_ATOL * body.radius
    )
    n = np.sum(np.where(active[..., None], diff / body.radius, 0.0), axis=1)
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _lattice_rows(body: BallBody):
    """The body's sphere lattice with the sphere index first, (S, ...), each
    array C-contiguous, as np.einsum's summation order depends on strides."""
    L = body._lattice
    return tuple(np.ascontiguousarray(np.moveaxis(a, -1, 0)) for a in (L.centres, L.span, L.normal))


def sphere_lattice_reference(body: BallBody):
    """``bodies._sphere_lattice``'s centres, radii, span and normal arrays,
    the span and normal blocks of each subset size padded with np.pad (the
    padded form of the enumeration)."""
    R, A = body.radius, body.centers
    m, n = A.shape
    centres, radii, spans = [A], [np.full(m, R)], [np.zeros((m, n - 1, n))]
    normals = [np.broadcast_to(np.eye(n), (m, n, n))]
    for k in range(2, min(m, n) + 1):
        S = np.array(list(combinations(range(m), k)))
        a0 = A[S[:, 0]]
        D = A[S[:, 1:]] - a0[:, None, :]
        U, sig, Vt = np.linalg.svd(D, full_matrices=False)
        ok = sig[:, -1] > 1e-14 * R
        a0, D, U, sig, Vt = a0[ok], D[ok], U[ok], sig[ok], Vt[ok]
        y = np.einsum("sji,sj->si", U, 0.5 * np.einsum("sjd,sjd->sj", D, D)) / sig
        r2 = R * R - np.einsum("si,si->s", y, y)
        meet = r2 >= 0.0
        centres.append(a0[meet] + np.einsum("si,sid->sd", y[meet], Vt[meet]))
        radii.append(np.sqrt(r2[meet]))
        spans.append(np.pad(Vt[meet], ((0, 0), (0, n - k), (0, 0))))
        perp = np.linalg.svd(Vt[meet], full_matrices=True)[2][:, k - 1 :]
        normals.append(np.pad(perp, ((0, 0), (0, k - 1), (0, 0))))
    parts = [np.concatenate(p) for p in (centres, radii, spans, normals)]
    return [np.ascontiguousarray(np.moveaxis(p, 0, -1)) for p in parts]


def extreme_points_reference(body: BallBody, W: np.ndarray, mode: str):
    """Every candidate of ``bodies._extreme_points`` per row of W, (N,
    spheres, n) or (N, 2 spheres, n) in farthest mode, and whether each is
    feasible: the all-candidates form with np.einsum and np.linalg.norm."""
    R, A = body.radius, body.centers
    C, span, normal = _lattice_rows(body)
    r = body._lattice.radii
    if mode == "farthest":
        z = np.einsum("sjd,nsd->nsj", normal, W[:, None, :] - C)
        norm = np.linalg.norm(z, axis=2, keepdims=True)
        axis = norm <= 4.0 * np.finfo(float).eps * R
        z = np.where(axis, np.eye(A.shape[1])[0], z)
        u = np.einsum("nsj,sjd->nsd", z / np.where(axis, 1.0, norm), normal)
        cand = np.concatenate([C + r[:, None] * u, C - r[:, None] * u], axis=1)
    else:
        w = W[:, None, :] - C if mode == "nearest" else np.repeat(W[:, None, :], len(C), axis=1)
        w -= np.einsum("sjd,nsj->nsd", span, np.einsum("sjd,nsd->nsj", span, w))
        norm = np.linalg.norm(w, axis=2, keepdims=True)
        unit = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0.0)
        cand = C + r[:, None] * unit
    feasible = np.all(
        [np.linalg.norm(cand - a, axis=2) <= R + MEMBERSHIP_SLACK * R for a in A], axis=0
    )
    return cand, feasible


def extreme_picks_reference(body: BallBody, W: np.ndarray, mode: str):
    """``bodies._extreme_points``' picks and scores, reduced from every
    candidate of :func:`extreme_points_reference` at once. In nearest mode
    a row in the body (:func:`contains_many_reference`) is its own pick, at
    distance 0.0."""
    cand, feasible = extreme_points_reference(body, W, mode)
    if mode == "support":
        score = np.where(feasible, np.einsum("nsd,nd->ns", cand, W), -np.inf)
    else:
        dist = np.linalg.norm(cand - W[:, None, :], axis=2)
        score = np.where(feasible, dist, np.inf if mode == "nearest" else -np.inf)
    pick = np.argmin(score, axis=1) if mode == "nearest" else np.argmax(score, axis=1)
    i = np.arange(len(W))
    points, scores = cand[i, pick], score[i, pick]
    if mode == "nearest":
        inside = contains_many_reference(body, W)
        points[inside], scores[inside] = W[inside], 0.0
    return points, scores


def project_body_reference(body: BallBody, x: np.ndarray) -> np.ndarray:
    """``project_body`` on an (N, n) batch from the reference membership and picks."""
    out = x.copy()
    outside = ~contains_many_reference(body, x)
    if np.any(outside):
        out[outside] = extreme_picks_reference(body, x[outside], "nearest")[0]
    return out


def support_value_reference(body: BallBody, u: np.ndarray) -> np.ndarray:
    """``support_value`` on an (N, n) batch of nonzero directions from the
    reference picks."""
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    return extreme_picks_reference(body, u, "support")[1] + 1e-12 * body.radius


def ray_exits_reference(body: BallBody, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``project._ray_exits`` on a ball body with np.einsum."""
    w = x[:, None, :] - body.centers
    b = np.einsum("nmd,nd->nm", w, v)
    c = np.einsum("nmd,nmd->nm", w, w) - body.radius**2
    root = np.sqrt(np.maximum(b * b - c, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(b > 0.0, -c / (b + root), root - b)
    return np.maximum(np.min(t, axis=1), 0.0)


def halfspace_radii_reference(body, dirs: np.ndarray) -> np.ndarray:
    """Boundary radii of a halfspace body from the (N, k) table of every
    face's candidate offset/<normal, u>, reduced by np.min (the all-faces
    form of ``measure.radial_function``'s face loop); inf where no face
    meets the ray."""
    denom = dirs @ body.normals.T
    with np.errstate(divide="ignore"):
        cand = np.where(denom > 1e-14, body.offsets / denom, np.inf)
    return np.min(cand, axis=1)


def level_flags_reference(gauge, w_mesh, mus, level: float, radii: np.ndarray) -> np.ndarray:
    """Facet agreement flags (F,) of the level set with radii (N,) over the
    grid of a ``smooth._original_mesh`` (its mesh ``w_mesh`` and member
    gauges ``mus``), tested on the level's own mesh: a facet agrees when
    every vertex takes the closed-form radius level/mu(u), its top two
    member values read off a full sort, and ``agreement_many`` passes at
    the facet's centroid (the level-t form of ``smooth._level_mesh``'s
    flags, which test the original mesh's centroids)."""
    closed = np.ones(radii.shape, dtype=bool)
    if mus.shape[-1] > 1:
        sq = -np.sort(-(mus * mus), axis=-1)
        r = level / np.max(mus, axis=-1)
        closed = r * r * (sq[:, 0] - sq[:, 1]) >= gauge.delta * (1.0 + RIDGE_GUARD)
    centroids = facet_centroids(radii[:, None] * w_mesh.directions, w_mesh.facets)
    return closed[w_mesh.facets].all(axis=1) & agreement_many(gauge, centroids)


def facet_measures_reference(points: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Facet lengths or areas of one mesh, (N, n) points, through np.cross
    and np.linalg.norm."""
    pts = points[facets]
    if points.shape[1] == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    cross = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def subdivide_reference(verts: np.ndarray, faces: np.ndarray):
    """One icosphere subdivision, edge by edge through a midpoint dict (the
    loop form of ``grids._subdivide``)."""
    vlist = [v for v in verts]
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        idx = midpoint.get(key)
        if idx is None:
            m = vlist[i] + vlist[j]
            m /= np.linalg.norm(m)
            idx = len(vlist)
            vlist.append(m)
            midpoint[key] = idx
        return idx

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
    return np.array(vlist), np.array(new_faces, dtype=np.int64)


def polyline_json_reference(mesh) -> str:
    """Polyline JSON text of a 2D mesh through ``json.dumps`` (the
    reference form of ``measure.polyline_json``)."""
    return json.dumps({"points": mesh.points.tolist()})


# row counts around the formatter's block size: one row, a block short by
# one, one block, one row over, and two blocks and a partial third
BLOCK_ROW_COUNTS = [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
# floats the formatter sends through repr: signed zeros, powers of two and
# values below the fixed range
REPR_FALLBACK_FLOATS = [0.0, -0.0, 0.5, -(2.0**40), 2.0**-20, 3.5e-5, -1.25e-7]


def block_end_rows(rows: int) -> np.ndarray:
    """The first and the last row of each of the formatter's blocks."""
    starts = np.arange(0, rows, _BLOCK_ROWS)
    return np.unique(np.concatenate([starts, np.minimum(starts + _BLOCK_ROWS, rows) - 1]))


def off_text_reference(mesh) -> str:
    """OFF text of a 3D mesh built line by line (the loop form of
    ``measure.off_text``)."""
    lines = ["OFF", f"{len(mesh.points)} {len(mesh.facets)} 0"]
    lines.extend(" ".join(repr(c) for c in p) for p in mesh.points.tolist())
    lines.extend("3 " + " ".join(str(i) for i in f) for f in mesh.facets.tolist())
    return "\n".join(lines) + "\n"


def boundary_projection_accepts(body: BallBody, x) -> bool:
    """Whether x lies in ``project.boundary_projection``'s domain: outside
    the body, or inside with its two smallest depths d_i = R - |x - a_i|
    over the distinct spheres satisfying d_1 < R/2 and d_2 >= 3 d_1."""
    if not contains(body, x):
        return True
    centers = np.unique(body.centers, axis=0)
    depths = np.sort(body.radius - np.linalg.norm(x - centers, axis=1))
    d2 = depths[1] if len(depths) > 1 else np.inf
    return bool(depths[0] < 0.5 * body.radius and d2 >= 3.0 * depths[0])


def halfspace_vertices_reference(body: BallBody, samples: int) -> np.ndarray:
    """Vertices of the sampled-halfspace intersection from scipy's
    ``HalfspaceIntersection`` in any dimension (the form
    ``certify._reconstruction_vertices`` falls back to in 3D)."""
    from scipy.spatial import HalfspaceIntersection

    pts, normals = boundary_samples(body, samples)
    halfspaces = np.column_stack([normals, -_dot(normals.T, pts.T)])
    return HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections


def halfspace_body_vertices_reference(body) -> np.ndarray:
    """Vertices of a bounded :class:`HalfspaceBody` from scipy's
    ``HalfspaceIntersection`` (the enumeration ``farthest_point`` made before
    it solved the face subsets itself)."""
    from scipy.spatial import HalfspaceIntersection

    halfspaces = np.column_stack([body.normals, -body.offsets])
    return HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections


@cache
def bench_corpus() -> types.ModuleType:
    """``bench/corpus.py``, the benchmark's seeded body generators, compiled
    from its source, so that nothing is written under ``bench/``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    module = types.ModuleType("bench_corpus")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def halfspace_gap_reference(body: BallBody, samples: int) -> float:
    """``halfspace_reconstruction_gap`` from the projections of every
    vertex of :func:`halfspace_vertices_reference` (the unpruned qhull
    form)."""
    vertices = halfspace_vertices_reference(body, samples)
    return float(np.max(_norm((vertices - project_body(body, vertices)).T)))


def eq39_points_reference(dim: int, radius: float) -> np.ndarray:
    """eq39's 48 points, each drawn from ``np.random.default_rng(0)`` and
    scaled by the radius in one expression (the per-point form of
    ``certify._eq39_points``)."""
    rng = np.random.default_rng(0)
    x = np.empty((48, dim))
    for k in range(48):
        u = rng.standard_normal(dim)
        x[k] = u / np.linalg.norm(u) * rng.uniform(0.3, 1.6) * radius
    return x


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jacobian(vf, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function (rows d(vf)/dx_i)."""
    cols = []
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((vf(x + e) - vf(x - e)) / (2.0 * h))
    return np.array(cols).T


def boundary_cloud(body: BallBody, count: int) -> np.ndarray:
    """Dense boundary points via the exact radial gauge (2D only)."""
    theta = 2.0 * np.pi * np.arange(count) / count
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return dirs / body_gauge_values(body, dirs)[:, None]


def ball_support_margins_reference(body, R: float, samples: int):
    """Each boundary sample's margin of the enclosing-ball condition at
    radius R, (N,), and the body's farthest point from the ball's centre,
    (N, n): the farthest-point form of ``certify.ball_support_check``,
    which the library keeps for halfspace bodies and for radii below a
    ball body's own. The centres are y - R v with the normals v that
    :func:`boundary_samples` returns."""
    pts, normals = boundary_samples(body, samples)
    centers = pts - R * normals
    far = farthest_point(body, centers)
    return _norm((far - centers).T) - R, far


def pairwise_ball_support_margin(body, R: float, samples: int) -> float:
    """Largest margin of the enclosing-ball condition over sampled pairs:
    every boundary sample against the ball of radius R rolled to every
    other, an s x s distance matrix (the sampled form of
    ``certify.ball_support_check``, which tests the whole body)."""
    pts, normals = boundary_samples(body, samples)
    centers = pts - R * normals
    d = np.linalg.norm(pts[None, :, :] - centers[:, None, :], axis=2)
    return float(np.max(d - R))


def brute_distance(body: BallBody, cloud: np.ndarray, x: np.ndarray) -> float:
    """Distance oracle: zero inside, else nearest dense boundary point."""
    if contains(body, x):
        return 0.0
    return float(np.min(np.linalg.norm(cloud - x[None, :], axis=1)))


class QuadraticPatch:
    """Strongly convex graph patch: (eta/2)|t|^2 + <tilt, t> on |t| < r.

    Carries exact values for its slope bound, value range and a certified
    diameter bound of the graph piece.
    """

    def __init__(self, rng: np.random.Generator, domain_dim: int):
        self.eta = float(rng.uniform(0.4, 3.0))
        self.r = float(rng.uniform(0.4, 1.2))
        tilt = rng.standard_normal(domain_dim)
        norm = np.linalg.norm(tilt)
        scale = rng.uniform(0.0, 1.5)
        self.tilt = tilt / norm * scale if norm > 0 else tilt
        self.domain_dim = domain_dim

    def value(self, t: np.ndarray) -> float:
        t = np.asarray(t, dtype=float)
        return 0.5 * self.eta * float(t @ t) + float(self.tilt @ t)

    def grad(self, t: np.ndarray) -> np.ndarray:
        return self.eta * np.asarray(t, dtype=float) + self.tilt

    @property
    def lipschitz(self) -> float:
        return self.eta * self.r + float(np.linalg.norm(self.tilt))

    @property
    def diam_bound(self) -> float:
        b = float(np.linalg.norm(self.tilt))
        umax = 0.5 * self.eta * self.r**2 + b * self.r
        if b / self.eta <= self.r:
            umin = -(b * b) / (2.0 * self.eta)
        else:
            umin = 0.5 * self.eta * self.r**2 - b * self.r
        return math.hypot(2.0 * self.r, umax - umin)

    def sample_domain(self, rng: np.random.Generator, count: int) -> np.ndarray:
        pts = []
        while len(pts) < count:
            t = rng.uniform(-self.r, self.r, size=self.domain_dim)
            if np.linalg.norm(t) < self.r * 0.999:
                pts.append(t)
        return np.array(pts)


def unit_square(half: float = 0.5):
    from convexsmooth import HalfspaceBody

    return HalfspaceBody(
        normals=[[1, 0], [-1, 0], [0, 1], [0, -1]],
        offsets=[half] * 4,
    )
