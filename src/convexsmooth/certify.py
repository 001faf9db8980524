"""Numerical certificates for strong convexity of compact bodies.

Each certificate tests one of the equivalent characterizations of a
strongly convex body and reports pass/fail with the worst witness found:

- the quadratic-growth subgradient inequality for functions (id "eq39"),
- the rolling enclosing ball of common radius at every boundary point
  (id "ball_support_b"),
- the equal-radius ball-family representation itself (id "ball_family_c"),
- the curvature floor 1/(2 R^2) of the squared gauge (id
  "gauge_sq_hessian_d"),
- sublevel sets of coercive strongly convex functions via the radius
  L/eta (id "level_set_e"); for the squared gauge at level 1 that is
  16 R^2/rho, with eta = 1/(2 R^2) and L = 2 * 2 * gauge_lipschitz_bound
  = 8/rho, its slope where the gauge stays below 2,
- reconstruction of the body from sampled supporting halfspaces
  (reported as "halfspace_reconstruction").

:func:`certify_body` is the ``certify`` command's suite: all six on a ball
body, on a halfspace body ball_support_b at R = 1, 10 and 100 (a flat
face fails every R). ball_support_b tests each sampled boundary point's
rolled ball against the whole body: on a ball body by the closed-form
supporting-ball bound of ball-polyhedra, from the spheres active at the
point, and on a halfspace body exactly, through the body's farthest point
from the ball's centre; gauge_sq_hessian_d evaluates each member where its
proven minimum lies; level_set_e follows from the ball_support_b report;
the reconstruction gap takes the vertices of the sampled halfspaces in
closed form in 2D and, in 3D, from the icosphere's triangles made convex
by edge flips, and its witness says which; the others sample. Only when
the flips prove no hull does the 3D gap fall back to qhull, the one path
of the suite that loads scipy. Margins are compared against ``CERT_TOL``
relative to the body's scale. Every report carries its sample count and
minimum margin so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import grids
from .bodies import (
    MEMBERSHIP_SLACK,
    BallBody,
    Body,
    HalfspaceBody,
    _active_spheres,
    _cross,
    _dot,
    _norm,
    _require_ball,
    farthest_point,
)
from .errors import DomainViolation, InsufficientData
from .gauge import attaining_members, gauge_lipschitz_bound, member_gauge_derivatives
from .measure import boundary_samples, sample_directions
from .project import project_body

# Margin below which a sampled inequality counts as violated, relative to
# the scale R of what is tested: length margins are compared against
# CERT_TOL R, the squared gauge's curvature against CERT_TOL/R^2 and a cap
# graph's against CERT_TOL/R, and eq39's dimensionless margin against
# CERT_TOL itself. Closed forms are accurate to ~1e-12 relative, leaving
# headroom; an absolute tolerance failed the three-ball body scaled to
# R = 1e8 on rounding alone (one ulp of 1e8 is 1.5e-8).
CERT_TOL = 1e-9


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate.

    ``constant`` is the quantitative constant the condition was tested
    with (an enclosing radius, a curvature floor, ...); ``worst_witness``
    records the point(s) and margin achieving the minimum margin, so a
    failure can be replayed.
    """

    condition: str
    passed: bool
    constant: float
    worst_witness: dict
    samples: int

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "constant": self.constant,
            "worst_witness": self.worst_witness,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class PatchParams:
    """Measured constants of a family of strongly convex graph patches.

    ``lipschitz`` bounds every patch's slope, ``eta`` is the worst
    strong-convexity modulus, ``r`` and ``r0`` are the largest and
    smallest patch radii, and ``diam`` bounds the diameter of the body the
    patches cover.
    """

    lipschitz: float
    eta: float
    r: float
    r0: float
    diam: float

    def __post_init__(self):
        for name in ("lipschitz", "eta", "r", "r0", "diam"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.r0 > self.r:
            raise ValueError("r0 must not exceed r")


def enclosing_radius(p: PatchParams) -> float:
    """Radius of balls that enclose the body while touching each boundary point.

    sqrt(1 + L^2) * max{ (1 + (eta r)^2/4 + L^2 + eta L r)/eta,
                         diam, diam^2/(eta r0^2) }
    evaluated exactly; each term is nondecreasing in L, r and diam, so
    overestimated inputs are safe.
    """
    L, eta, r, r0, diam = p.lipschitz, p.eta, p.r, p.r0, p.diam
    return math.sqrt(1.0 + L * L) * max(
        (1.0 + 0.25 * eta * eta * r * r + L * L + eta * L * r) / eta,
        diam,
        diam * diam / (eta * r0 * r0),
    )


def subgradient_certificate(points, eta: float) -> CertificateReport:
    """Check the quadratic-growth subgradient inequality on sampled data.

    ``points`` is a sequence of (x, value, subgradient) triples; the
    certificate requires value(y) >= value(x) + <g(x), y - x> +
    (eta/2)|y - x|^2 for every ordered pair. One subgradient per point
    suffices: if the inequality holds for some subgradient at each point
    it holds for all of them.

    Every x and subgradient must have the first x's length, and every
    entry must be finite; otherwise :class:`ValueError` names the first
    offending triple. A non-finite eta raises :class:`ValueError` too.
    """
    if not math.isfinite(eta):
        raise ValueError("eta must be finite")
    pts = list(points)
    if len(pts) < 2:
        raise InsufficientData("need at least 2 sample points")
    xs = [np.asarray(p[0], dtype=float).ravel() for p in pts]
    gs = [np.asarray(p[2], dtype=float).ravel() for p in pts]
    dim = len(xs[0])
    for k, (x, g) in enumerate(zip(xs, gs)):
        if len(x) != dim or len(g) != dim:
            raise ValueError(
                f"triple {k}: expected x and subgradient of length {dim}, got lengths {len(x)} and {len(g)}"
            )
    X, G = np.array(xs), np.array(gs)
    U = np.array([float(p[1]) for p in pts])
    finite = np.isfinite(X).all(axis=1) & np.isfinite(U) & np.isfinite(G).all(axis=1)
    if not finite.all():
        raise ValueError(f"triple {int(np.argmin(finite))}: x, value and subgradient must be finite")

    diff = X[None, :, :] - X[:, None, :]  # diff[i, j] = x_j - x_i
    lin = np.einsum("ik,ijk->ij", G, diff)
    sqn = np.einsum("ijk,ijk->ij", diff, diff)
    margins = U[None, :] - U[:, None] - lin - 0.5 * eta * sqn
    np.fill_diagonal(margins, np.inf)
    i, j = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[i, j])
    return CertificateReport(
        condition="eq39",
        passed=worst >= -CERT_TOL,
        constant=float(eta),
        worst_witness={
            "x": X[i].tolist(),
            "y": X[j].tolist(),
            "margin": worst,
        },
        samples=len(pts),
    )


def ball_support_check(body: Body, R: float, samples: int) -> CertificateReport:
    """Check of the enclosing-ball condition at radius R, at sampled
    boundary points, against the whole body.

    For each sampled boundary point y with outward normal v, the ball of
    radius R centered at c = y - R v must contain the whole body; the
    margin is max over x in the body of |x - c|, minus R, and the check
    passes when every margin is at most ``CERT_TOL`` R.

    On a ball body with R at least its radius r the margin has a closed
    form bound, the supporting-ball property of ball-polyhedra (Bezdek,
    Langi, Naszodi, Papez, "Ball-polyhedra", DCG 38, 2007). Take the set
    A of the k spheres that :func:`convexsmooth.bodies.outward_normal`
    averages at y, d_i = |y - a_i|, n = mean over A of (y - a_i)/r and
    v = n/|n|. Then c = y - r v = (1 - 1/|n|) y + (1/|n|) g, with g the
    mean of the centers in A, and for every x in the body, where
    |x - a_i| <= r,
        |x - c|^2 <= r^2 - (1/|n| - 1)|x - y|^2
                     + (1/(k|n|)) sum_A (r^2 - d_i^2)
    (expand the affine combination and use |x - g|^2 = mean_A |x - a_i|^2
    - mean_A |a_i - g|^2). So the margin at r is at most E/(2r), with
    E = (1/(k|n|)) sum_A (r^2 - d_i^2)_+ + (1 - 1/|n|)_+ (r + min_A d_i)^2,
    the last term for a y rounded just outside its spheres, where |n| can
    exceed 1 and |x - y| <= r + d_i. The margin does not increase in R for
    a unit v (see :func:`certify_body`'s level_set_e comment), so the
    bound at r holds at every R >= r, and it is what is reported. v is the
    exact normalized mean, which ``outward_normal`` returns rounded.
    :func:`_supporting_ball_margins` derives the rounding of the computed
    bound, a few ulp of r times k/|n| and the dimension. The witness is y,
    the indices of A, 1/|n| (``inverse_normal``) and the margin.

    On a halfspace body, and on a ball body at R below its radius, the
    margin is taken exactly instead, through the body's farthest point
    from each c (:func:`convexsmooth.bodies.farthest_point`), so the body
    is tested everywhere, not only at the other samples; the witness is y,
    that farthest point and the margin. Bodies with a flat face fail for
    every R: a face corner leaves the ball by about s^2/(2R) at distance s
    along the face.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if samples < 8:
        raise ValueError("samples must be >= 8")
    pts, normals = boundary_samples(body, samples)
    if isinstance(body, BallBody) and R >= body.radius:
        margins, active, inverse = _supporting_ball_margins(body, pts)
        j = int(np.argmax(margins))
        witness = {
            "boundary_point": pts[j].tolist(),
            "active": np.flatnonzero(active[j]).tolist(),
            "inverse_normal": float(inverse[j]),
        }
    else:
        centers = pts - R * normals
        far = farthest_point(body, centers)
        margins = _norm((far - centers).T) - R
        j = int(np.argmax(margins))
        witness = {"boundary_point": pts[j].tolist(), "tested_point": far[j].tolist()}
    worst = float(margins[j])
    return CertificateReport(
        condition="ball_support_b",
        passed=worst <= CERT_TOL * R,
        constant=float(R),
        worst_witness={**witness, "margin": worst},
        samples=len(pts),
    )


def _supporting_ball_margins(body: BallBody, Y: np.ndarray):
    """Upper bounds on the margins of the supporting balls of radius r at
    the rows y of Y (see :func:`ball_support_check`), (N,), each sample's
    active set, (N, m), and its computed 1/|n|, (N,).

    The bound is E/(2r) for E evaluated in floats from upper bounds on
    each exact term, with u = eps/2 the unit roundoff. Each computed d_i
    is within (n/2 + 2) u d_i of the exact |y - a_i| (one rounding of each
    offset, n squares summed, a square root), so r^2 - d_i^2, computed as
    (r - d_i)(r + d_i), is within (n + 4) u d_i^2 of exact, and the term
    (n + 4) eps D^2 r^2, D = max_A d_i/r, covers it twice over. The sum S
    of the k terms (y - a_i)/r is computed with error at most
    (k + 1) u sum_A d_i/r (two roundings per term, k - 1 additions; the
    inactive spheres add exact zeros), so 1/|n| = k/|S| is within a
    relative (k + 1) u D/|n| + (n/2 + 2) u of exact; ``slack`` is twice
    that. The remaining roundings, of the sums, products and the final
    division, are relative and below (k + n + 4) eps. Every bound is a
    multiple of r, so the bound scales with the body.
    """
    r, eps = body.radius, np.finfo(float).eps
    dim = body.dim
    diff, d, active = _active_spheres(body, Y)
    k = np.count_nonzero(active, axis=1)
    inverse = k / _norm(np.sum(np.where(active[..., None], diff / r, 0.0), axis=1).T)
    top = np.max(np.where(active, d, 0.0), axis=1) / r
    near = np.min(np.where(active, d, np.inf), axis=1)
    slack = eps * ((k + 1) * inverse * np.maximum(top, 1.0) + dim + 4)
    defect = np.sum(np.where(active, np.maximum((r - d) * (r + d), 0.0), 0.0), axis=1) / k
    outside = np.maximum(1.0 - inverse * (1.0 - slack), 0.0) * (r + near) ** 2
    E = inverse * (1.0 + slack) * (defect + (dim + 4) * eps * top**2 * r * r) + outside
    return E * (1.0 + (k + dim + 4) * eps) / (2.0 * r), active, inverse


def ball_family_check(body: BallBody, samples: int) -> CertificateReport:
    """Consistency of the equal-radius family with its own boundary.

    Every sampled boundary point must lie on at least one generating
    sphere and inside all of them; the margin is the worse of those two
    defects. A body other than a ball body raises :class:`NotBallBody`.
    """
    _require_ball(body, "the ball-family check")
    pts, _ = boundary_samples(body, samples)
    d = _norm(pts.T[:, :, None] - body.centers.T[:, None, :])
    on_sphere = np.min(np.abs(d - body.radius), axis=1)
    inside = np.max(d - body.radius, axis=1)
    margins = np.maximum(on_sphere, inside)
    k = int(np.argmax(margins))
    worst = float(margins[k])
    return CertificateReport(
        condition="ball_family_c",
        passed=worst <= CERT_TOL * body.radius,
        constant=float(body.radius),
        worst_witness={"boundary_point": pts[k].tolist(), "margin": worst},
        samples=len(pts),
    )


def gauge_sq_hessian_check(body: Body) -> CertificateReport:
    """Minimum eigenvalue of the squared-gauge Hessian, at its proven minimizers.

    At ridge-free points the body gauge locally equals one member gauge,
    whose squared Hessian must stay at or above the floor 1/(2 R^2). Member
    i's smallest eigenvalue over all x != 0 is 2/(R + |a_i|)^2 >= 1/(2 R^2),
    attained at u_i = a_i/|a_i| (e_1 when a_i = 0; see :mod:`.gauge`), so
    each member is evaluated once, at u_i: ``samples`` is the member count
    and the witness the u_i of the smallest. Raises :class:`NotBallBody`
    for polyhedral bodies, which have no ball gauge to differentiate.
    """
    _require_ball(body, "squared-gauge curvature")
    floor = 1.0 / (2.0 * body.radius**2)
    m = len(body.centers)
    norms = np.linalg.norm(body.centers, axis=1)
    u = np.zeros((m, body.dim))
    u[:, 0] = 1.0
    off = norms > 0.0
    u[off] = body.centers[off] / norms[off, None]
    _, _, hess_sq = member_gauge_derivatives(body, u)
    lam = np.linalg.eigvalsh(hess_sq[np.arange(m), np.arange(m)])[:, 0]
    k = int(np.argmin(lam))
    worst = float(lam[k])
    return CertificateReport(
        condition="gauge_sq_hessian_d",
        passed=worst >= floor - CERT_TOL / body.radius**2,
        constant=floor,
        worst_witness={"x": u[k].tolist(), "min_eigenvalue": worst, "margin": worst - floor},
        samples=m,
    )


def level_set_radius(lipschitz: float, eta: float) -> float:
    """Enclosing-ball radius for sublevel sets: L/eta.

    Any sublevel set of a coercive, eta-strongly convex, L-Lipschitz
    function admits enclosing balls of this radius at every boundary
    point.
    """
    if lipschitz <= 0 or eta <= 0:
        raise ValueError("lipschitz and eta must be positive")
    return lipschitz / eta


def cap_graph_height(R: float, xi_y, z) -> float:
    """Height of the spherical-cap graph touching the origin with slope data xi_y.

    In graph coordinates anchored at the touching point, the enclosing
    sphere of radius R is locally the graph of
        f(z) = R sqrt(1 - |xi|^2) - sqrt(R^2 - |z + R xi|^2),
    which vanishes at z = 0.
    """
    xi = np.asarray(xi_y, dtype=float)
    z = np.asarray(z, dtype=float)
    xin = float(xi @ xi)
    if xin >= 1.0:
        raise DomainViolation("|xi_y| must be < 1")
    w = z + R * xi
    rad = R * R - float(w @ w)
    if rad <= 0.0:
        raise DomainViolation("offset leaves the open cap |z + R xi| < R")
    return R * math.sqrt(1.0 - xin) - math.sqrt(rad)


def cap_graph_hessian(R: float, xi_y, z) -> np.ndarray:
    """Closed-form Hessian of the spherical-cap graph at offset z."""
    xi = np.asarray(xi_y, dtype=float)
    z = np.asarray(z, dtype=float)
    w = z + R * xi
    rad = R * R - float(w @ w)
    if rad <= 0.0:
        raise DomainViolation("offset leaves the open cap |z + R xi| < R")
    n = len(w)
    return (np.outer(w, w) + rad * np.eye(n)) / rad**1.5


def cap_graph_hessian_check(R: float, xi_y, z_offsets) -> CertificateReport:
    """Curvature floor 1/R of spherical-cap graphs at the given offsets.

    Uses the two closed-form eigenvalue families of the cap Hessian,
    R^2/(R^2 - |w|^2)^{3/2} along w = z + R xi and (R^2 - |w|^2)^{-1/2}
    orthogonally; both stay at or above 1/R on the open cap.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    xi = np.asarray(xi_y, dtype=float)
    if float(xi @ xi) >= 1.0:
        raise DomainViolation("|xi_y| must be < 1")
    offsets = [np.asarray(z, dtype=float) for z in z_offsets]
    if not offsets:
        raise InsufficientData("need at least 1 offset")
    floor = 1.0 / R
    worst = np.inf
    witness: dict = {}
    for z in offsets:
        w = z + R * xi
        rad = R * R - float(w @ w)
        if rad <= 0.0:
            raise DomainViolation("offset leaves the open cap |z + R xi| < R")
        radial = R * R / rad**1.5
        tangential = 1.0 / math.sqrt(rad)
        lam = min(radial, tangential) if len(w) > 1 else radial
        if lam < worst:
            worst = lam
            witness = {
                "offset": z.tolist(),
                "min_eigenvalue": lam,
                "margin": lam - floor,
            }
    return CertificateReport(
        condition="cap_graph_a",
        passed=worst >= floor - CERT_TOL / R,
        constant=floor,
        worst_witness=witness,
        samples=len(offsets),
    )


def halfspace_reconstruction_gap(body: BallBody, normal_samples: int) -> float:
    """One-sided Hausdorff gap from a sampled-halfspace hull back to the body.

    The body always sits inside the intersection of its sampled supporting
    halfspaces; the gap is how far that intersection's farthest point is
    from the body, and it shrinks to zero as the samples densify (for a
    unit ball it is the circumscribed-polygon excess sec(pi/m) - 1). The
    farthest point is a vertex v of the intersection, so the gap is the
    largest distance |v - p(v)| to its projection p(v) = project_body(v).

    In 2D the vertices are closed forms (:func:`_reconstruction_vertices`),
    the meeting points of adjacent support lines; in 3D they are the
    meeting points of the planes of each triangle of a triangulation of
    the samples, from the icosphere's own triangles made convex by edge
    flips, with scipy's ``HalfspaceIntersection`` as the fallback when that
    proves no hull. The returned float carries, as ``how``, the vertex
    count, the count projected, the flips made and the enumeration
    (``"adjacent_lines"``, ``"flips"`` or ``"qhull"``), which
    :func:`certify_body` reports in its witness.

    Only the vertices that can attain it are projected. With
    s(v) = max_i (|v - a_i| - R)_+, every ball holds the body W, so
    dist(v, W) >= s(v). And B(0, rho) lies in W, rho = ``interior_radius``,
    so for s > 0 the point rho/(rho + s) v lies in every ball B_i: it is
    rho/(rho + s) q_i + s/(rho + s) w with q_i the nearest point of B_i to
    v, |v - q_i| <= s, and w = rho/s (v - q_i) in B(0, rho). Hence
    dist(v, W) <= u(v) = |v| s/(rho + s). The gap is at least the largest
    s, S, so no vertex with u < S can attain it. And as
    |v - a_i| - R <= |v| - rho, s <= |v| - rho, so u(v) >= s(v): the vertex
    of largest s has u >= S and always survives the pruning.

    Computed, u takes s + tol and rho - tol, tol = 1e-12 (R + max |v|),
    so that it bounds the exact u, and a vertex is left out when it falls
    below S - (MEMBERSHIP_SLACK R + 2 tol + 1e-9 S); the comment in the code
    derives that margin from the rounding of each term. Each kept row
    projects to the same bits as in a projection of every vertex, as rows
    are independent, so the gap is the same float as the full one. When
    rho - tol <= 0 every vertex is projected. A body other than a ball
    body raises :class:`NotBallBody`, and 2D samples whose halfspaces bound
    no polygon :class:`DomainViolation`.
    """
    _require_ball(body, "the reconstruction gap")
    if normal_samples < 4:
        raise ValueError("normal_samples must be >= 4")
    vertices, flips, enumeration = _reconstruction_vertices(*boundary_samples(body, normal_samples))
    count = len(vertices)
    V = np.ascontiguousarray(vertices.T)
    length = _norm(V)
    s = np.maximum(_norm(V[:, None, :] - body.centers.T[:, :, None]).max(axis=0) - body.radius, 0.0)
    S = float(np.max(s))
    # Margin. Every coordinate is at most scale = R + max |v|, and each
    # computed s, |v|, rho and projection distance is within a few ulp of
    # scale of its exact value: tol = 1e-12 scale covers each of them more
    # than a hundredfold. u is increasing in s and decreasing in rho, so
    # u computed from s + tol and rho - tol is an upper bound on the
    # exact u, up to a relative few ulp of its own rounding. A pruned
    # vertex then has a computed distance below u + a few ulp of scale
    # (its projection is exact up to rounding) < S - margin + 1e-15 S +
    # 1e-15 scale. The kept vertex of largest s projects to a candidate
    # within MEMBERSHIP_SLACK R plus rounding of its farthest ball, so its
    # computed distance is at least S - tol - MEMBERSHIP_SLACK R - 1e-15
    # scale. margin = MEMBERSHIP_SLACK R + 2 tol + 1e-9 S covers the two
    # sides with room to spare, so no pruned vertex reaches the computed gap.
    tol = 1e-12 * (body.radius + float(np.max(length)))
    rho = body.interior_radius - tol
    if rho > 0.0:
        u = length * (s + tol) / (rho + s + tol)
        vertices = vertices[u >= S - (MEMBERSHIP_SLACK * body.radius + 2.0 * tol + 1e-9 * S)]
    gap = float(np.max(_norm((vertices - project_body(body, vertices)).T)))
    return _Gap(gap, {"vertices": count, "projected": len(vertices), "flips": flips, "enumeration": enumeration})


class _Gap(float):
    """A reconstruction gap, a float like any other, that also carries how
    it was found in ``how``: the vertex count, the count projected, the
    edge flips made and the enumeration (see
    :func:`_reconstruction_vertices`). :func:`certify_body` reads it into
    its witness, and still calls :func:`halfspace_reconstruction_gap` by
    name, so that whatever wraps that name sees the call."""

    how: dict

    def __new__(cls, value: float, how: dict):
        gap = super().__new__(cls, value)
        gap.how = how
        return gap


def _reconstruction_vertices(pts: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, int, str]:
    """Vertices of the intersection of the supporting halfspaces
    <v_i, x> <= <v_i, y_i> at boundary samples y_i with normals v_i, (V, n),
    the edge flips made, and how they were found: ``"adjacent_lines"``,
    ``"flips"`` or ``"qhull"``.

    In 2D the samples of :func:`convexsmooth.measure.boundary_samples` go
    counterclockwise and their normals turn monotonically, so vertex i is
    where support lines i and i + 1 meet (wrapping around), in the local
    form y_i + t tau_i, tau_i = v_i turned by +90 degrees and
    t = <v_{i+1}, y_{i+1} - y_i>/<v_{i+1}, tau_i>. The denominator is the
    sine of the turn from v_i to v_{i+1}; when it is not positive the
    samples are not in convex position (with few samples a turn can pass
    pi, and the halfspaces are then unbounded), and
    :class:`DomainViolation` names the pair. Every term is an O(|y_{i+1} - y_i|) difference, so a vertex
    carries a few ulp of R however fine the sampling, where the same
    vertex solved from the O(R) offsets <v_i, y_i> (Cramer's rule) loses
    their rounding over the small turn.

    In 3D the samples are the vertices of an icosphere, and each vertex is
    where the planes of one triangle of a triangulation meet, found by
    :func:`_flipped_hull_vertices` from the icosphere's own triangles. When
    that proves nothing, scipy's ``HalfspaceIntersection`` enumerates
    them, imported here, so that only that fallback loads scipy.
    """
    if pts.shape[1] != 2:
        vertices, _, flips = _flipped_hull_vertices(pts, normals)
        if vertices is not None:
            return vertices, flips, "flips"
        from scipy.spatial import HalfspaceIntersection

        halfspaces = np.column_stack([normals, -_dot(normals.T, pts.T)])
        return HalfspaceIntersection(halfspaces, np.zeros(pts.shape[1])).intersections, flips, "qhull"
    tangent = np.column_stack([-normals[:, 1], normals[:, 0]])
    following = np.roll(normals, -1, axis=0)
    turn = _dot(following.T, tangent.T)
    if not np.all(turn > 0.0):
        i = int(np.argmin(turn > 0.0))
        raise DomainViolation(
            f"boundary samples {i} and {(i + 1) % len(pts)} are not in convex position: "
            f"the sine of the turn between their normals is {turn[i]:.3g}, so the "
            "sampled halfspaces bound no polygon"
        )
    t = _dot(following.T, (np.roll(pts, -1, axis=0) - pts).T) / turn
    return pts + t[:, None] * tangent, 0, "adjacent_lines"


def _flipped_hull_vertices(pts: np.ndarray, normals: np.ndarray):
    """The 3D reconstruction vertices, (F, 3), by Lawson edge flips, the
    sample triples (F, 3) whose planes meet at them, and the flips made;
    None in place of the vertices and triples when no hull is proven.

    By polar duality the halfspaces' intersection P has a vertex for each
    triangle of the convex hull of the points v_i/<v_i, y_i>, so its
    vertices are those of any triangulation of the samples whose triangles
    are the hull's. The samples are the icosphere's vertices in grid
    order, and its triangles are the starting guess. Each triangle (i, j, l)
    gives the point x where its three planes meet (:func:`_face_vertices`).
    Across the edge it shares with a triangle whose third sample is o, the
    dual surface is convex when x lies in halfspace o:
    <v_o, x> - <v_o, y_o> <= tau. Every edge that is not is flipped (Lawson,
    1977: the triangles (i, j, l) and (j, i, o) become (i, o, l) and
    (o, j, l)), a set sharing no triangle at a time; the new triangles are
    solved and the edges of the faces they touch are tested again, until
    none fails.

    The result is accepted only as a proof. Every determinant
    <v_i, v_j x v_l> exceeds ``_PROVEN_DET``, so each triangle keeps its
    orientation, and the triangles' solid angles sum to 4 pi. Positive
    triangles cover the sphere of directions a whole number of times, and
    the sum, 4 pi times that number, says once, so the dual surface is
    embedded and star-shaped about the origin. A closed surface that is
    convex at every edge bounds a convex body (Tietze-Nakajima), here the
    dual hull, so the triangles' vertices are P's. A sample count that is
    not an icosphere's, a determinant not proven positive, more flips than
    triangles or another covering count return None, and the caller falls
    back to qhull.

    tau bounds the rounding of the computed test at x. By
    :func:`_face_vertices`, x is within eps (|x| + (13 + 10 kappa) Q/det) of
    the exact meeting point. Each dot product <v_o, .> of three terms
    rounds within 3 u of its length, u = eps/2, and the difference a u of
    its size, which stays below the rest where it matters, so the test adds
    2 eps (|x| + max |y|). An edge whose exact test passes is never
    flipped, and one left standing fails by at most that rounding. Every
    term is a length, so tau scales with the body.
    """
    level = grids.icosphere_level_for(len(pts))
    if 10 * 4**level + 2 != len(pts):
        return None, None, 0
    faces, across = grids.icosphere_adjacency(level)
    Y, Nm = np.ascontiguousarray(pts.T), np.ascontiguousarray(normals.T)
    offsets = _dot(Nm, Y)
    reach = float(np.max(_norm(Y)))
    X, det, angle, tau = _face_vertices(Y, Nm, faces, reach)
    flips, rows = 0, np.arange(len(faces))
    while True:
        if not np.all(det > _PROVEN_DET):
            return None, None, flips
        # <v_o, x_t> - <v_o, y_o> at each face t of rows and edge k, o the
        # vertex across the edge
        o = np.take(faces, across[rows])
        excess = _dot(np.take(Nm, o, axis=1), X[:, rows, None]) - np.take(offsets, o)
        row, side = np.nonzero(excess > tau[rows, None])
        failing = 3 * rows[row] + side
        if not failing.size:
            break
        if flips == 0:
            faces, across = faces.copy(), across.copy()
        flipped: set[int] = set()
        for edge in failing.tolist():
            t, g = edge // 3, int(across.flat[edge]) // 3
            if t not in flipped and g not in flipped:
                if not _flip(faces, across, edge):
                    return None, None, flips
                flipped.update((t, g))
        flips += len(flipped) // 2
        if flips > len(faces):
            return None, None, flips
        changed = np.fromiter(flipped, dtype=np.int64, count=len(flipped))
        X[:, changed], det[changed], angle[changed], tau[changed] = _face_vertices(Y, Nm, faces[changed], reach)
        # the tests that read a changed face: its own, and its neighbours'
        rows = np.unique(np.concatenate([changed, across[changed].ravel() // 3]))
    if abs(float(np.sum(angle)) - 4.0 * math.pi) > math.pi:
        return None, None, flips
    return np.ascontiguousarray(X.T), faces, flips


# A determinant <v_i, v_j x v_l> above this is proven positive: computed as
# <e_j, e_l x v_i> it rounds within 10 u |e_j| |e_l| (see _face_vertices),
# and |e| <= 2 for unit normals, so 20 eps bounds the rounding; twice that.
_PROVEN_DET = 40.0 * np.finfo(float).eps


def _face_vertices(Y: np.ndarray, Nm: np.ndarray, faces: np.ndarray, reach: float):
    """Where the planes <v_k, x> = <v_k, y_k> of each face (i, j, l) meet,
    (3, F), coordinates first like Y and Nm; each face's determinant
    det = <v_i, v_j x v_l>, (F,); the solid angle of its triangle of
    normals, (F,); and the edge-test tolerance tau at its vertex, (F,)
    (see :func:`_flipped_hull_vertices`; ``reach`` is max |y_k|).

    In the local form x = y_i + (b_j v_l x v_i + b_l v_i x v_j)/det, with
    b_j = <v_j, y_j - y_i> and b_l = <v_l, y_l - y_i>, like the 2D vertices,
    so no O(R) offset is rounded. The normals enter through e_j = v_j - v_i
    and e_l = v_l - v_i: v_l x v_i = e_l x v_i, v_i x v_j = -(e_j x v_i)
    and det = <e_j, e_l x v_i>, the same quantities without the
    cancellation of O(1) products down to the small turn between
    neighbours. The solid angle is 2 atan2(det, 1 + <v_i, v_j> + <v_j, v_l>
    + <v_l, v_i>) (Van Oosterom and Strackee), that denominator being
    (|v_i + v_j + v_l|^2 - 1)/2 for unit normals.

    Rounding, to first order in u = eps/2, with a = |e| and s = |y - y_i|:
    each e and each y - y_i is within u of its size per coordinate; b_j is
    within 4 u s_j (the difference, three products, two sums), each cross
    product within 3 sqrt(3) u a, and det within (3 sqrt(3) + 4) u a_j a_l
    <= 10 u a_j a_l. The numerator q = b_j e_l x v_i - b_l e_j x v_i is
    within 12 u Q, Q = s_j a_l + s_l a_j, and |q| <= Q. So q/det is within
    u (Q/det)(13 + 10 kappa), kappa = a_j a_l/det, and x, after the sum,
    within u (|x| + (13 + 10 kappa) Q/det); tau takes twice that.
    """
    n, y = np.take(Nm, faces.T, axis=1), np.take(Y, faces.T, axis=1)  # coordinate, corner, face
    ni, yi = n[:, 0], y[:, 0]
    e, dy = n[:, 1:] - ni[:, None], y[:, 1:] - yi[:, None]  # coordinate, (j, l), face
    lateral = _cross(e, ni[:, None])
    b = _dot(n[:, 1:], dy)
    det = _dot(e[:, 0], lateral[:, 1])
    # a determinant that is not proven positive is caught by the caller
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = yi + (b[0] * lateral[:, 1] - b[1] * lateral[:, 0]) / det
        a, s = _norm(e), _norm(dy)
        spread = (13.0 + 10.0 * a[0] * a[1] / det) * (s[0] * a[1] + s[1] * a[0]) / det
        tau = np.finfo(float).eps * (3.0 * _norm(x) + 2.0 * reach + spread)
    total = ni + n[:, 1] + n[:, 2]
    return x, det, 2.0 * np.arctan2(det, 0.5 * (_dot(total, total) - 1.0)), tau


def _flip(faces: np.ndarray, across: np.ndarray, edge: int) -> bool:
    """Flip edge ``edge`` = 3 t + k in place (see
    :func:`convexsmooth.grids.icosphere_adjacency` for the tables): face
    t = (i, j, l), with the edge from i to j, and the face g = (j, i, o)
    across it become (i, o, l) and (o, j, l), and each of their edges gets
    the corner across it, and gives that face its new corner. When o is l
    the two faces share a second edge, and no flip is made: False."""
    f, a = faces.ravel(), across.ravel()
    t, k = divmod(edge, 3)
    g, c = divmod(int(a[edge]), 3)
    i, j, l = (int(f[3 * t + (k + s) % 3]) for s in range(3))
    o = int(f[3 * g + c])
    if o == l:
        return False
    jl, li = int(a[3 * t + (k + 1) % 3]), int(a[3 * t + (k + 2) % 3])
    io, oj = int(a[3 * g + (c + 2) % 3]), int(a[3 * g + c])
    f[3 * t : 3 * t + 3] = (i, o, l)
    f[3 * g : 3 * g + 3] = (o, j, l)
    for face, side, corner in ((t, 0, io), (t, 1, 3 * g + 1), (t, 2, li), (g, 0, oj), (g, 1, jl)):
        a[3 * face + side] = corner
        a[corner - corner % 3 + (corner % 3 + 1) % 3] = 3 * face + (side + 2) % 3
    return True


@cache
def _eq39_points(dim: int) -> np.ndarray:
    """eq39's 48 seeded points for R = 1, (48, dim), read-only and built
    once per dimension: u r with u uniform on the sphere and r uniform in
    [0.3, 1.6), each point drawing its direction and then its radius from
    ``np.random.default_rng(0)``. Scaled by R they are the points
    (u/|u| r) R, in that order of operations."""
    rng = np.random.default_rng(0)
    x = np.empty((48, dim))
    for k in range(48):
        u = rng.standard_normal(dim)
        x[k] = u / np.linalg.norm(u) * rng.uniform(0.3, 1.6)
    x.setflags(write=False)
    return x


def certify_body(body: Body, samples: int) -> list[CertificateReport]:
    """The certificate suite of the ``certify`` command (see the module
    docstring), ``samples`` boundary samples each; eq39's points come from
    ``np.random.default_rng(0)``, so the reports are deterministic.
    level_set_e passes exactly when ball_support_b does. Fewer than 8
    samples raise :class:`ValueError` before any certificate runs."""
    if samples < 8:
        raise ValueError("samples must be >= 8")
    if isinstance(body, HalfspaceBody):
        return [ball_support_check(body, R, samples) for R in (1.0, 10.0, 100.0)]
    floor = 1.0 / (2.0 * body.radius**2)

    # the squared gauge and, as its subgradient, that of the first attaining
    # member, at eq39's 48 points
    x = _eq39_points(body.dim) * body.radius
    values, grads, _ = member_gauge_derivatives(body, x)
    member = np.argmax(attaining_members(values), axis=1)
    value = values[np.arange(48), member]
    squared = np.max(values, axis=1) ** 2
    subgrads = 2.0 * value[:, None] * grads[np.arange(48), member]
    reports = [subgradient_certificate(zip(x, squared, subgrads), eta=floor)]

    report_b = ball_support_check(body, body.radius, samples)
    reports += [report_b, ball_family_check(body, samples), gauge_sq_hessian_check(body)]

    # sublevel realization: the squared gauge at level 1 gives back the
    # body, and its slope where the gauge stays below 2 is at most 8/rho.
    # That radius is at least R. At a boundary sample y with unit normal v
    # the margin max over x in the body of |x - y + r v| - r is a maximum of
    # functions of r with slope <x - y + r v, v>/|x - y + r v| - 1 <= 0, so
    # it does not increase in r: ball_support_b's margin, a bound at R for
    # the exact unit normal, rounding included, bounds those at this
    # radius too, and it is at most CERT_TOL R <= CERT_TOL radius_e when
    # ball_support_b passes
    radius_e = level_set_radius(2.0 * 2.0 * gauge_lipschitz_bound(body), floor)
    margin_b = report_b.worst_witness["margin"]
    reports.append(
        CertificateReport(
            condition="level_set_e",
            passed=report_b.passed,
            constant=radius_e,
            worst_witness={"implied_by": "ball_support_b", "margin_bound": margin_b},
            samples=report_b.samples,
        )
    )

    found = halfspace_reconstruction_gap(body, samples)
    gap = float(found)
    _, cover = sample_directions(body.dim, samples)
    bound = 4.0 * body.radius**2 * cover**2 / body.interior_radius
    reports.append(
        CertificateReport(
            condition="halfspace_reconstruction",
            passed=gap <= bound,
            constant=gap,
            worst_witness={"gap": gap, "discretization_bound": bound, **found.how},
            samples=samples,
        )
    )
    return reports
