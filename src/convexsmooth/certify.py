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
rolled ball against the whole body, exactly, through the body's farthest
point from its centre; gauge_sq_hessian_d evaluates each member where its
proven minimum lies; level_set_e follows from the ball_support_b report;
the others sample. Every report carries its sample count and minimum
margin so failures are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bodies import (
    MEMBERSHIP_SLACK,
    BallBody,
    Body,
    HalfspaceBody,
    _dot,
    _norm,
    _require_ball,
    farthest_point,
)
from .errors import DomainViolation, InsufficientData
from .gauge import attaining_members, gauge_lipschitz_bound, member_gauge_derivatives
from .measure import boundary_samples, sample_directions
from .project import project_body

# Absolute margin below which a sampled inequality counts as violated.
# Closed forms are accurate to ~1e-12, leaving headroom.
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
    """Exact check of the enclosing-ball condition at radius R, at sampled
    boundary points.

    For each sampled boundary point y with outward normal v, the ball of
    radius R centered at c = y - R v must contain the whole body. The
    margin is max over x in the body of |x - c|, minus R, with x the
    farthest point of the body from c (:func:`convexsmooth.bodies.farthest_point`):
    exact up to rounding, so the body is tested everywhere, not only at the
    other samples. The witness is y, that farthest point and the margin.
    Bodies with a flat face fail for every R: a face corner leaves the ball
    by about s^2/(2R) at distance s along the face.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if samples < 8:
        raise ValueError("samples must be >= 8")
    pts, normals = boundary_samples(body, samples)
    centers = pts - R * normals
    far = farthest_point(body, centers)
    margins = _norm((far - centers).T) - R
    j = int(np.argmax(margins))
    worst = float(margins[j])
    return CertificateReport(
        condition="ball_support_b",
        passed=worst <= CERT_TOL,
        constant=float(R),
        worst_witness={
            "boundary_point": pts[j].tolist(),
            "tested_point": far[j].tolist(),
            "margin": worst,
        },
        samples=len(pts),
    )


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
        passed=worst <= CERT_TOL,
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
        passed=worst >= floor - CERT_TOL,
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
        passed=worst >= floor - CERT_TOL,
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
    below S - (MEMBERSHIP_SLACK + 2 tol + 1e-9 S); the comment in the code
    derives that margin from the rounding of each term. Each kept row
    projects to the same bits as in a projection of every vertex, as rows
    are independent, so the gap is the same float as the full one. When
    rho - tol <= 0 every vertex is projected.
    """
    # imported here, so that importing the package loads no scipy
    from scipy.spatial import HalfspaceIntersection

    if normal_samples < 4:
        raise ValueError("normal_samples must be >= 4")
    pts, normals = boundary_samples(body, normal_samples)
    offsets = _dot(normals.T, pts.T)
    halfspaces = np.column_stack([normals, -offsets])
    vertices = HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections
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
    # within MEMBERSHIP_SLACK plus rounding of its farthest ball, so its
    # computed distance is at least S - tol - MEMBERSHIP_SLACK - 1e-15
    # scale. margin = MEMBERSHIP_SLACK + 2 tol + 1e-9 S covers the two sides
    # with room to spare, so no pruned vertex reaches the computed gap.
    tol = 1e-12 * (body.radius + float(np.max(length)))
    rho = body.interior_radius - tol
    if rho > 0.0:
        u = length * (s + tol) / (rho + s + tol)
        vertices = vertices[u >= S - (MEMBERSHIP_SLACK + 2.0 * tol + 1e-9 * S)]
    return float(np.max(_norm((vertices - project_body(body, vertices)).T)))


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
    # That radius is at least R. At a boundary sample y with normal v the
    # margin max over x in the body of |x - y + r v| - r is a maximum of
    # functions of r with slope <x - y + r v, v>/|x - y + r v| - 1 <= 0, so
    # it does not increase in r either: ball_support_b's margins bound
    # those at this radius. Computed margins add rounding, a few ulp of the
    # radius, and the farthest pick's membership rule, which takes
    # candidates up to s = MEMBERSHIP_SLACK outside a ball. At this radius
    # the farthest point of the body is y itself, so the pick may be such
    # a candidate near y. With n the mean unit normal of the spheres active
    # at y, v = n/|n|, and c = y - R v is an affine combination of y and
    # their centers, so every x within s of all balls has
    #   |x - c|^2 <= R^2 + (2 R s + s^2)/|n| - (1/|n| - 1)|x - y|^2.
    # At a smooth sample, where |n| = 1, a margin at this radius is thus at
    # most s plus rounding. ball_support_b's worst margin is exactly 0,
    # attained by a candidate, so computed it is at least minus rounding,
    # and the two differ by at most MEMBERSHIP_SLACK plus rounding. At a
    # ridge sample the slack term grows by up to 1/|n| for picks near y
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

    gap = halfspace_reconstruction_gap(body, samples)
    _, cover = sample_directions(body.dim, samples)
    bound = 4.0 * body.radius**2 * cover**2 / body.interior_radius
    reports.append(
        CertificateReport(
            condition="halfspace_reconstruction",
            passed=gap <= bound,
            constant=gap,
            worst_witness={"gap": gap, "discretization_bound": bound},
            samples=samples,
        )
    )
    return reports
