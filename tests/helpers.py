"""Shared oracles and fixture builders for the test suite.

Everything here is deliberately independent of the code paths it checks:
the gauge oracle runs a membership bisection, the projection oracle scans
a dense boundary cloud, and derivatives come from finite differences.
"""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import strategies as st

from convexsmooth import Ball, BallBody, ball_gauge_derivatives, contains
from convexsmooth._text import _BLOCK_ROWS
from convexsmooth.bodies import _row_dots
from convexsmooth.gauge import body_gauge_values
from convexsmooth.measure import boundary_samples, facet_centroids
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
        phi, dphi, d2 = _phi_terms(t, gauge.delta, gauge.order)
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


def halfspace_radii_reference(body, dirs: np.ndarray) -> np.ndarray:
    """Boundary radii of a halfspace body from the (N, k) table of every
    face's candidate offset/<normal, u>, reduced by np.min (the all-faces
    form of ``measure.radial_function``'s face loop); inf where no face
    meets the ray."""
    denom = dirs @ body.normals.T
    with np.errstate(divide="ignore"):
        cand = np.where(denom > 1e-14, body.offsets / denom, np.inf)
    return np.min(cand, axis=1)


def level_flags_reference(gauge, grid, level: float, radii: np.ndarray) -> np.ndarray:
    """Facet agreement flags (F,) of the level set with radii (N,) over a
    ``smooth._level_grid`` grid, tested on the level's own mesh: a facet
    agrees when every vertex takes the closed-form radius level/mu(u) and
    ``agreement_many`` passes at the facet's centroid (the per-level form
    of ``smooth._level_mesh``'s flags, which scale the level-1 gaps)."""
    dirs, facets, mu, sq = grid[:4]
    closed = np.ones(radii.shape, dtype=bool)
    if sq is not None:
        r = level / mu
        closed = r * r * (sq[:, 0] - sq[:, 1]) >= gauge.delta * (1.0 + RIDGE_GUARD)
    centroids = facet_centroids(radii[:, None] * dirs, facets)
    return closed[facets].all(axis=1) & agreement_many(gauge, centroids)


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


def normal_lipschitz_reference(mesh) -> float:
    """Normal Lipschitz estimate of a mesh with its adjacent facets paired
    edge by edge through a dict (the loop form of
    ``project.normal_lipschitz_estimate``)."""
    pts = mesh.points[mesh.facets]
    if mesh.dim == 2:
        e = pts[:, 1] - pts[:, 0]
        normals = np.column_stack([e[:, 1], -e[:, 0]])
    else:
        normals = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    flip = np.einsum("ij,ij->i", normals, mesh.facet_centroids) < 0
    normals[flip] *= -1.0
    nf = len(mesh.facets)
    if mesh.dim == 2:
        i = np.arange(nf)
        pairs = np.column_stack([i, (i + 1) % nf])
    else:
        edges: dict[tuple[int, int], int] = {}
        found = []
        for fi, (a, b, c) in enumerate(mesh.facets):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                other = edges.pop(key, None)
                if other is None:
                    edges[key] = fi
                else:
                    found.append((other, fi))
        pairs = np.array(found, dtype=np.int64)
    dn = np.linalg.norm(normals[pairs[:, 0]] - normals[pairs[:, 1]], axis=1)
    centroids = mesh.facet_centroids
    dc = np.linalg.norm(centroids[pairs[:, 0]] - centroids[pairs[:, 1]], axis=1)
    return 1.1 * float(np.max(dn / dc))


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
