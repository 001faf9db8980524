"""Metric projections onto a body and onto its boundary.

Both are closed forms, exact up to rounding, with no iteration and no
tolerance. The nearest point of the body is active on at most n spheres,
so it is the nearest feasible candidate of a short enumeration over
sphere subsets (:func:`convexsmooth.bodies._extreme_points`). The nearest
boundary point of an interior point is its radial projection onto the
sphere of the ball whose boundary is closest. Projection onto the boundary
is only guaranteed well defined on a tube whose width is set by the
Lipschitz constant of the boundary normal field; inside that tube (and
everywhere outside the body) it is 2-Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grids
from .bodies import (
    Ball,
    BallBody,
    _as_rows,
    _as_vector,
    _extreme_points,
    contains,
    contains_many,
    outward_normal,
)
from .errors import OutsideDomain, RayMiss
from .measure import BoundaryMesh, boundary_mesh


@dataclass(frozen=True)
class ProjectionDomain:
    """Neighborhood of the boundary where boundary projection is safe.

    ``width`` = 1 / (2 * lip_normal); boundary projection is well defined
    and 2-Lipschitz on points closer to the boundary than ``width`` plus
    the whole exterior.
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
    tolerance and no :class:`NonConvergence`.
    """
    pts, single = _as_rows(x, body.dim)
    out = pts.copy()
    outside = ~contains_many(body, pts)
    if np.any(outside):
        q = pts[outside]
        cand, feasible = _extreme_points(body, q, anchored=True)
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
    pairs = mesh.adjacent_facet_pairs
    dn = np.linalg.norm(
        mesh.facet_normals[pairs[:, 0]] - mesh.facet_normals[pairs[:, 1]], axis=1
    )
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
    hypothesis, not a numerical failure.
    """
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


def _ray_segments_2d(origin, direction, mesh: BoundaryMesh) -> float:
    """Smallest positive ray parameter crossing a 2D polyline mesh."""
    p1 = mesh.points[mesh.facets[:, 0]]
    p2 = mesh.points[mesh.facets[:, 1]]
    e = p2 - p1
    q = p1 - origin

    def cross2(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    denom = cross2(direction, e)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross2(q, e) / denom
        s = cross2(q, direction) / denom
        valid = (
            (np.abs(denom) > 1e-300)
            & (s >= -1e-12)
            & (s <= 1.0 + 1e-12)
            & (t > 1e-9)
        )
    if not np.any(valid):
        return np.nan
    return float(np.min(t[valid]))


def _ray_triangles_3d(origin, direction, mesh: BoundaryMesh) -> float:
    """Smallest positive ray parameter crossing a triangle mesh."""
    tri = mesh.points[mesh.facets]
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    e1, e2 = v1 - v0, v2 - v0
    h = np.cross(direction[None, :], e2)
    a = np.einsum("ij,ij->i", e1, h)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 / a
        s = origin[None, :] - v0
        u = f * np.einsum("ij,ij->i", s, h)
        q = np.cross(s, e1)
        v = f * (q @ direction)
        t = f * np.einsum("ij,ij->i", e2, q)
        valid = (
            (np.abs(a) > 1e-300)
            & (u >= -1e-12)
            & (v >= -1e-12)
            & (u + v <= 1.0 + 1e-12)
            & (t > 1e-9)
        )
    if not np.any(valid):
        return np.nan
    return float(np.min(t[valid]))


def boundary_surjectivity_probe(
    inner: BallBody,
    outer_mesh: BoundaryMesh,
    samples: int,
) -> tuple[float, dict]:
    """Check that projecting the outer boundary covers the inner boundary.

    For each sampled inner boundary point x with outward normal v, the ray
    x + t v crosses the outer mesh at some z; projecting z back must
    return (numerically) x. The report's max gap certifies desk-scale
    surjectivity. Raises :class:`RayMiss` when an outer-mesh vertex lies
    inside the body or a ray fails to cross the outer mesh; both signal
    that the outer body does not enclose the inner one (or the mesh has a
    hole).
    """
    inside = contains_many(inner, outer_mesh.points)
    if np.any(inside):
        k = int(np.argmax(inside))
        raise RayMiss(
            f"outer mesh vertex {outer_mesh.points[k].tolist()} lies inside the body"
        )

    if inner.dim == 2:
        resolution = max(int(samples), 16)
    else:
        resolution = grids.icosphere_level_for(int(samples))
    inner_mesh = boundary_mesh(inner, resolution)
    cross = _ray_segments_2d if inner.dim == 2 else _ray_triangles_3d

    hits = np.empty_like(inner_mesh.points)
    for k, x in enumerate(inner_mesh.points):
        nu = outward_normal(inner, x)
        t = cross(x, nu, outer_mesh)
        if not np.isfinite(t):
            raise RayMiss(f"ray from {x.tolist()} missed the outer mesh")
        hits[k] = x + t * nu
    gaps = np.linalg.norm(project_body(inner, hits) - inner_mesh.points, axis=1)

    worst = int(np.argmax(gaps))
    report = {
        "rays": len(gaps),
        "hits": len(gaps),
        "max_gap": float(gaps[worst]),
        "mean_gap": float(np.mean(gaps)),
        "worst_point": inner_mesh.points[worst].tolist(),
    }
    return float(gaps[worst]), report
