"""Metric projections onto a body and onto its boundary, and a probe that
projecting an enclosing boundary covers the body's boundary.

All are closed forms, exact up to rounding, with no iteration and no
tolerance. The nearest point of the body is active on at most n spheres,
so it is the nearest feasible candidate on the body's intersection
spheres, which are enumerated once per body and cached on it. A batch is
projected block by block, each block in one pass of
:func:`convexsmooth.bodies._extreme_points`: membership first, and
candidates only for the block's exterior rows, so interior points cost a
membership test and nothing more. The nearest
boundary point of an interior point is its radial projection onto the
nearest sphere. Across the medial axis, where the nearest sphere changes,
that map jumps, so the boundary projection takes interior points only
where the nearest sphere lies less than R/2 deep and the next one at
least three times as deep: a domain read off the body alone, on which the map is
2-Lipschitz (:func:`boundary_projection` gives the proof). Outside the
body it is the metric projection onto a convex set, hence 1-Lipschitz.
The probe follows each outward normal ray of the inner body to
where it leaves the outer body, a quadratic root per ball or a ratio per
face, and projects it back.
"""

from __future__ import annotations

import numpy as np

from .bodies import (
    MEMBERSHIP_SLACK,
    Ball,
    BallBody,
    Body,
    _as_points,
    _as_rows,
    _dot,
    _extreme_points,
    _face_exits,
    _norm,
    _require_ball,
    contains_many,
)
from .errors import InvalidBody, OutsideDomain, RayMiss
from .measure import boundary_samples

# Largest gap at which the surjectivity probe passes.
PROBE_GAP_THRESHOLD = 1e-6


def project_ball(ball: Ball, x) -> np.ndarray:
    """Nearest point of a closed ball; the identity inside."""
    x = _as_points(x, ball.dim, 1)
    v = x - ball.center
    d = np.linalg.norm(v)
    if d <= ball.radius:
        return x.copy()
    return ball.center + (ball.radius / d) * v


def project_body(body: BallBody, x) -> np.ndarray:
    """Nearest point of the ball intersection, exact up to rounding.

    Accepts one point or an (N, n) batch, resolved block by block in one
    pass of :func:`convexsmooth.bodies._extreme_points` in nearest mode.
    Each block's points in the body (within ``MEMBERSHIP_SLACK`` R) come
    back unchanged, so the map is idempotent bit for bit, and cost no
    candidates. Any other point goes to the nearest candidate on the
    body's intersection spheres that lies in the body; by KKT the true
    projection is one of them. There is no iteration, so no tolerance and
    no :class:`NonConvergence`. A point with a coordinate that is not
    finite, or whose squared distances overflow (beyond about 1e154),
    raises ``ValueError`` naming its row, and a body other than a ball
    body :class:`NotBallBody`.
    """
    _require_ball(body, "projection onto the body")
    pts, single = _as_rows(x, body.dim)
    out = _extreme_points(body, pts, "nearest")[0]
    return out[0] if single else out


def boundary_projection(body: BallBody, x) -> np.ndarray:
    """Nearest boundary point, on a domain D where the map is 2-Lipschitz.

    An exterior point goes to :func:`project_body`, which lands on the
    boundary. An interior point x has sphere depths d_i = R - |x - a_i|.
    B(x, d_1), d_1 the smallest, lies in every ball, so the nearest
    boundary point is the radial projection
    p(x) = a_i + R (x - a_i)/|x - a_i| onto a sphere i of depth d_1, exact
    up to rounding, and |p(x) - x| = d_1. d_2 >= d_1 is the smallest depth
    of the other spheres (a repeated center is the same sphere), inf if
    there are none. D holds every exterior point and each interior point
    with d_1 < R/2 and d_2 >= 3 d_1, so it is read off the body alone. Any
    other interior point raises :class:`OutsideDomain`, a violated
    hypothesis, not a numerical failure.

    p is 2-Lipschitz on D for every pair x, y, however close:

    1. x and y interior, on the same sphere i: the radial map onto a
       sphere of radius R is R/r-Lipschitz on the points at least r from
       its center, and |x - a_i|, |y - a_i| > R/2.
    2. x interior on sphere i, y interior on sphere j != i: f = d_j - d_i
       is 2-Lipschitz, f(x) >= d_2(x) - d_1(x) >= 2 d_1(x) and
       f(y) <= -2 d_1(y). So d_1(x) + d_1(y) <= |x - y|, and
       |p(x) - p(y)| <= d_1(x) + |x - y| + d_1(y) <= 2 |x - y|.
    3. x interior, y exterior: the segment from x to y crosses the
       boundary at a point z of D that both branches fix. p is 2-Lipschitz
       from x to z by 1 or 2, and 1-Lipschitz from z to y, where it is the
       projection onto a convex set; z lies on the segment, so
       |p(x) - p(y)| <= 2 |x - z| + |z - y| <= 2 |x - y|. On two
       exterior points p is that projection, hence 1-Lipschitz.

    Near the medial axis, where d_2 - d_1 -> 0, no constant holds: two
    interior points a tiny distance apart on either side of a lens tip's
    axis land on different arcs. No tube about the boundary avoids this, since the
    boundary has reach 0 from inside at every ridge. A body other than a
    ball body raises :class:`NotBallBody`.
    """
    _require_ball(body, "boundary projection")
    x = _as_points(x, body.dim, 1)
    v = x - body.centers
    dist = _norm(v.T)
    # contains_many's rule and summation order, on the distances at hand
    if not np.all(dist <= body.radius + MEMBERSHIP_SLACK * body.radius):
        return project_body(body, x)
    i = int(np.argmax(dist))
    depths = body.radius - dist
    d1 = float(depths[i])
    other = np.any(body.centers != body.centers[i], axis=1)
    d2 = float(np.min(depths[other], initial=np.inf))
    if not (d1 < 0.5 * body.radius and d2 >= 3.0 * d1):
        raise OutsideDomain(
            f"interior point with sphere depths {d1:.6g} (nearest) and {d2:.6g} "
            f"(next) is outside the projection domain: it needs nearest < R/2 = "
            f"{0.5 * body.radius:.6g} and next >= 3 x nearest"
        )
    return body.centers[i] + (body.radius / dist[i]) * v[i]


def _ray_exits(body: Body, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Where each ray x + t v (rows x in the body, unit rows v) leaves the body.

    A ball body: the smallest over balls of the positive root of
    |x + t v - a_i|^2 = R^2, t = -b + sqrt(b^2 - c) with b = <v, x - a_i>
    and c = |x - a_i|^2 - R^2, taken as -c / (b + sqrt(b^2 - c)) when b > 0
    to avoid cancellation. A halfspace body: the nearest face, by
    :func:`convexsmooth.bodies._face_exits` as in :func:`.radial_function`,
    so rays from the origin get its radii to the bit. Points within the
    membership slack outside have c > 0 or a negative numerator; b^2 - c
    and t are clamped at 0 for them.
    """
    if isinstance(body, BallBody):
        w = x.T[:, :, None] - body.centers.T[:, None, :]
        b = _dot(w, v.T[:, :, None])
        c = _dot(w, w) - body.radius**2
        root = np.sqrt(np.maximum(b * b - c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.min(np.where(b > 0.0, -c / (b + root), root - b), axis=1)
    else:
        t = _face_exits(body.normals, body.offsets[:, None] - body.normals @ x.T, v)
    return np.maximum(t, 0.0)


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
    most the threshold. Raises :class:`RayMiss` when a sampled inner
    boundary point lies outside the outer body (beyond the relative
    ``MEMBERSHIP_SLACK`` of :func:`contains_many`) or a ray never leaves
    it: the outer body does not enclose the inner one, or is unbounded;
    ValueError unless ``samples`` is a positive integer, and
    :class:`NotBallBody` for an inner body other than a ball body.
    """
    _require_ball(inner, "the probe's inner body")
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
    gaps = _norm((project_body(inner, hits) - points).T)

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
