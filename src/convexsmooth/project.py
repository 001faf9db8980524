"""Metric projections onto a body and onto its boundary, and a probe that
projecting an enclosing boundary covers the body's boundary.

All are closed forms, exact up to rounding, with no iteration and no
tolerance. The nearest point of the body is active on at most n spheres,
so it is the nearest feasible candidate on the body's intersection
spheres, which are enumerated once per body and cached on it
(:func:`convexsmooth.bodies._extreme_points`). The nearest
boundary point of an interior point is its radial projection onto the
sphere of the ball whose boundary is closest. That interior branch is
exact wherever one sphere is nearest. On a face cell (the points whose
farthest center is a given a_i) it is the radial map onto that sphere, and
on the cell's points within boundary distance d it is R/(R - d)-Lipschitz.
Across the medial axis, where the nearest sphere changes, the map jumps
and no Lipschitz constant holds: at a ridge such as a lens tip, two
interior points a tiny distance apart land on different spheres. Outside
the body the map is the metric projection onto a convex set, hence
1-Lipschitz. The interior branch is offered only on a tube whose width
comes from a mesh estimate of the boundary normal field's Lipschitz
constant. The probe follows each outward normal ray of the inner body to
where it leaves the outer body, a quadratic root per ball or a ratio per
face, and projects it back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import (
    Ball,
    BallBody,
    Body,
    _as_rows,
    _as_vector,
    _extreme_points,
    _require_ball,
    _row_dots,
    contains,
    contains_many,
)
from .errors import InvalidBody, OutsideDomain, RayMiss
from .measure import BoundaryMesh, boundary_samples

# Largest gap at which the surjectivity probe passes.
PROBE_GAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class ProjectionDomain:
    """Neighborhood of the boundary where boundary projection is offered.

    ``width`` = 1 / (2 * lip_normal), from the mesh estimate of the normal
    field's Lipschitz constant; :func:`boundary_projection` accepts the
    whole exterior and interior points closer to the boundary than
    ``width``. On that domain the map is exact where one sphere is
    nearest, and R/(R - d)-Lipschitz on the points of one face cell (one
    farthest center) within boundary distance d. It has no Lipschitz
    constant across the medial axis, where the nearest sphere changes:
    near a ridge, interior points arbitrarily close together project to
    points a fixed distance apart.
    """

    width: float
    lip_normal: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")


def project_ball(ball: Ball, x) -> np.ndarray:
    """Nearest point of a closed ball; the identity inside."""
    x = _as_vector(x, ball.dim)
    v = x - ball.center
    d = np.linalg.norm(v)
    if d <= ball.radius:
        return x.copy()
    return ball.center + (ball.radius / d) * v


def project_body(body: BallBody, x) -> np.ndarray:
    """Nearest point of the ball intersection, exact up to rounding.

    Accepts one point or an (N, n) batch. Points in the body (within
    ``MEMBERSHIP_SLACK``) come back unchanged, so the map is idempotent bit
    for bit. Any other point goes to the nearest candidate of
    :func:`convexsmooth.bodies._extreme_points` that lies in the body; by
    KKT the true projection is one of them. There is no iteration, so no
    tolerance and no :class:`NonConvergence`. A body other than a ball body
    raises :class:`NotBallBody`.
    """
    _require_ball(body, "projection onto the body")
    pts, single = _as_rows(x, body.dim)
    out = pts.copy()
    outside = ~contains_many(body, pts)
    if np.any(outside):
        q = pts[outside]
        cand, feasible = _extreme_points(body, q, "nearest")
        dist = np.where(feasible, np.linalg.norm(cand - q[:, None, :], axis=2), np.inf)
        out[outside] = cand[np.arange(len(q)), np.argmin(dist, axis=1)]
    return out[0] if single else out


def normal_lipschitz_estimate(mesh: BoundaryMesh) -> float:
    """Estimated Lipschitz constant of the outward normal field.

    Maximum of |normal difference| / |centroid difference| over adjacent
    facet pairs, inflated by 10% as a discretization guard. Corners blow
    the estimate up (the true constant is infinite there), which correctly
    shrinks the safe projection tube.
    """
    if len(mesh.facets) < 8:
        raise ValueError("mesh needs at least 8 facets")
    # outward unit facet normals, outward meaning away from the origin
    pts = mesh.points[mesh.facets]
    if mesh.dim == 2:
        e = pts[:, 1] - pts[:, 0]
        normals = np.column_stack([e[:, 1], -e[:, 0]])
    else:
        normals = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[np.einsum("ij,ij->i", normals, mesh.facet_centroids) < 0] *= -1.0
    # facets sharing an edge: consecutive segments in 2D; in 3D each edge
    # of the closed grid has two facets, adjacent once edges sort by key
    if mesh.dim == 2:
        i = np.arange(len(mesh.facets))
        pairs = np.column_stack([i, (i + 1) % len(i)])
    else:
        edges = np.sort(mesh.facets[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        key = edges[:, 0] * len(mesh.points) + edges[:, 1]
        pairs = (np.argsort(key, kind="stable") // 3).reshape(-1, 2)
    dn = np.linalg.norm(normals[pairs[:, 0]] - normals[pairs[:, 1]], axis=1)
    dc = np.linalg.norm(
        mesh.facet_centroids[pairs[:, 0]] - mesh.facet_centroids[pairs[:, 1]], axis=1
    )
    return 1.1 * float(np.max(dn / dc))


def projection_domain(mesh: BoundaryMesh) -> ProjectionDomain:
    lip = normal_lipschitz_estimate(mesh)
    return ProjectionDomain(width=1.0 / (2.0 * lip), lip_normal=lip)


def boundary_projection(body: BallBody, mesh: BoundaryMesh, x) -> np.ndarray:
    """Nearest boundary point, on the domain where that is guaranteed.

    Exterior points delegate to the body projection, which lands on the
    boundary. An interior point x lies at distance d = min_i (R - |x - a_i|)
    from the boundary, and B(x, d) is inside every ball, so its nearest
    boundary point is the radial projection onto the sphere of a minimizing
    ball: exact up to rounding. Interior points with d at or above the
    mesh-estimated safe width raise :class:`OutsideDomain` -- a violated
    hypothesis, not a numerical failure. A body other than a ball body
    raises :class:`NotBallBody`.
    """
    _require_ball(body, "boundary projection")
    x = _as_vector(x, body.dim)
    if not contains(body, x):
        return project_body(body, x)
    v = x - body.centers
    dist = np.linalg.norm(v, axis=1)
    i = int(np.argmax(dist))
    depth = body.radius - float(dist[i])
    width = projection_domain(mesh).width
    if depth >= width:
        raise OutsideDomain(
            f"interior point at boundary distance {depth:.6g} >= "
            f"safe width {width:.6g}"
        )
    return body.centers[i] + (body.radius / dist[i]) * v[i]


def _ray_exits(body: Body, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Where each ray x + t v (rows x in the body, unit rows v) leaves the body.

    A ball body: the smallest over balls of the positive root of
    |x + t v - a_i|^2 = R^2, t = -b + sqrt(b^2 - c) with b = <v, x - a_i>
    and c = |x - a_i|^2 - R^2, taken as -c / (b + sqrt(b^2 - c)) when b > 0
    to avoid cancellation. A halfspace body: the smallest
    (o - <n, x>)/<n, v> over the faces the ray meets, <n, v> > 1e-14 as in
    :func:`convexsmooth.measure.radial_function`, and inf when there is
    none. Points within the membership slack outside have c > 0 or a
    negative numerator; b^2 - c and t are clamped at 0 for them.
    """
    if isinstance(body, BallBody):
        w = x[:, None, :] - body.centers
        b = np.einsum("nmd,nd->nm", w, v)
        c = np.einsum("nmd,nmd->nm", w, w) - body.radius**2
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(b > 0.0, -c / (b + root), root - b)
    else:
        rate = _row_dots(v, body.normals)
        with np.errstate(divide="ignore"):
            t = np.where(
                rate > 1e-14, (body.offsets - _row_dots(x, body.normals)) / rate, np.inf
            )
    return np.maximum(np.min(t, axis=1), 0.0)


def boundary_surjectivity_probe(
    inner: BallBody,
    outer: Body,
    samples: int,
) -> tuple[float, dict]:
    """Check that projecting the outer boundary covers the inner boundary.

    Each sampled inner boundary point x (see
    :func:`convexsmooth.measure.boundary_samples`) with outward normal v
    casts the ray x + t v to the point z where it leaves the outer body, in
    closed form, so z lies on the outer boundary; projecting z back must
    return (numerically) x. The report's max gap certifies desk-scale
    surjectivity; the report also carries ``threshold``
    (``PROBE_GAP_THRESHOLD``) and ``passed``, whether the max gap is at
    most the threshold. Raises :class:`RayMiss` when a sampled inner boundary
    point lies outside the outer body (beyond ``MEMBERSHIP_SLACK``) or a
    ray never leaves it: the outer body does not enclose the inner one, or
    is unbounded; ValueError unless ``samples`` is positive, and
    :class:`NotBallBody` for an inner body other than a ball body.
    """
    _require_ball(inner, "the probe's inner body")
    if samples < 1:
        raise ValueError("samples must be positive")
    if outer.dim != inner.dim:
        raise InvalidBody(f"outer body has dim {outer.dim}, inner body dim {inner.dim}")
    points, normals = boundary_samples(inner, samples)
    outside = ~contains_many(outer, points)
    if np.any(outside):
        k = int(np.argmax(outside))
        raise RayMiss(f"inner boundary point {points[k].tolist()} lies outside the outer body")
    t = _ray_exits(outer, points, normals)
    if not np.all(np.isfinite(t)):
        k = int(np.argmin(np.isfinite(t)))
        raise RayMiss(f"ray from {points[k].tolist()} never leaves the outer body")
    hits = points + t[:, None] * normals
    gaps = np.linalg.norm(project_body(inner, hits) - points, axis=1)

    worst = int(np.argmax(gaps))
    report = {
        "rays": len(gaps),
        "hits": len(gaps),
        "max_gap": float(gaps[worst]),
        "mean_gap": float(np.mean(gaps)),
        "worst_point": points[worst].tolist(),
        "threshold": PROBE_GAP_THRESHOLD,
        "passed": bool(gaps[worst] <= PROBE_GAP_THRESHOLD),
    }
    return float(gaps[worst]), report
