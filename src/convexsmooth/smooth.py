"""Smoothing pipeline: blended squared gauge and its level-1 body.

The squared body gauge is a maximum of smooth strongly convex member
functions; it is smooth except on the ridge set where two members tie.
Blending the maximum with an even convex profile phi that equals |t|
outside (-delta, delta) produces a function g that

- dominates the squared gauge everywhere (phi >= |t|),
- EQUALS it wherever the top two member values differ by at least delta
  (the blend reduces to an exact maximum there, same floats),
- keeps the members' strong-convexity constant (the blend is a convex
  combination of members plus a positive-semidefinite rank-one term),
- is C^{1,1} or C^2 across the blend boundary depending on the profile.

The sublevel set {g <= 1} is then an inscribed smooth strongly convex
body whose boundary coincides with the original boundary outside a thin
ridge tube. Level 1 is a regular value: g is strongly convex with its
minimum inside the body, so its gradient vanishes nowhere on the level
set. No other level is worth choosing. Both profiles are scale families,
phi_delta(s) = delta * Phi(s/delta), and member squared gauges are
2-homogeneous, so a shrunken level set (1/t) {sqrt(g_delta) <= t} is
exactly {g_(delta/t^2) <= 1}: a level in (1, 1 + eps) only picks a blend
width in (delta/(1 + eps)^2, delta), which delta sets directly. And g
grows with delta, so {g <= 1} only grows toward the body as delta
shrinks.

Level sets are meshed without bisection. Member gauges are 1-homogeneous,
so along a ray r u every member squared gauge is r^2 q_i(u): off the tube
the level-t crossing is exactly t/mu(u), and inside it the crossing solves
a convex increasing equation in s = r^2, done by a monotone Newton
iteration that reuses q(u); the level's tube directions go through one
Newton solve. Agreement flags need no per-level gauges either. A facet
whose vertices all sit at t/mu(u) has its level-t centroid at t times its
level-1 centroid c_1, and member squared gauges are 2-homogeneous, so the
top-two gap there is t^2 gap(c_1): one gauge pass over the level-1
centroids flags the facets of any level, and a facet with a tube vertex
disagrees anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .bodies import BallBody, _as_vector, contains_many, body_to_json
from .errors import DegenerateEpsilon, NonConvergence, ShrinkDelta
from .gauge import body_gauge_values, member_gauge_derivatives, member_gauges
from . import measure as _measure

Order = Literal["C11", "C2"]

# Relative inflation of delta in the agreement test; gaps above
# delta * (1 + RIDGE_GUARD) are strictly outside every blend zone.
RIDGE_GUARD = 1e-9

# Default blend width is DEFAULT_DELTA_FACTOR * R^2 (squared-gauge units).
DEFAULT_DELTA_FACTOR = 1e-3

# Iteration cap of the tube solve; monotone Newton from the right
# converges in well under ten steps for any blend width.
_NEWTON_MAX_STEPS = 64


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 0.25):
        raise DegenerateEpsilon("epsilon must lie in (0, 1/4)")


def _phi_terms(t, delta: float, order: Order, derivs: int = 2):
    """Blend profile phi(t) and its first ``derivs`` derivatives, vectorized.

    Returns a tuple of ``derivs + 1`` arrays, so each caller builds only
    the terms it reads. phi is even, convex, C^1 (C11) or C^2 (C2),
    satisfies phi(t) = |t| for |t| >= delta and |t| <= phi(t) <= |t| +
    delta/2 inside.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    inside = at < delta
    c2 = order == "C2"
    d3 = delta**3
    if c2:
        phi_in = -(t**4) / (8.0 * d3) + 3.0 * t * t / (4.0 * delta) + 3.0 * delta / 8.0
    else:
        phi_in = t * t / (2.0 * delta) + 0.5 * delta
    terms = [np.where(inside, phi_in, at)]
    if derivs >= 1:
        if c2:
            dphi_in = -(t**3) / (2.0 * d3) + 3.0 * t / (2.0 * delta)
        else:
            dphi_in = t / delta
        terms.append(np.where(inside, dphi_in, np.sign(t)))
    if derivs >= 2:
        if c2:
            d2_in = -3.0 * t * t / (2.0 * d3) + 3.0 / (2.0 * delta)
        else:
            d2_in = np.full_like(t, 1.0 / delta)
        terms.append(np.where(inside, d2_in, 0.0))
    return tuple(terms)


def smooth_max(a: float, b: float, delta: float, order: Order = "C11"):
    """Smoothed maximum of two scalars with an exact outer branch.

    Returns ``(value, weight_a)``. Outside the blend zone (|a - b| >=
    delta) the exact maximum is returned, bit for bit, with weight 0 or 1.
    Inside, value = (a + b + phi(a - b))/2 lies between max(a, b) and
    max(a, b) + delta/4, and weight_a = (1 + phi'(a - b))/2 is in [0, 1].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if order not in ("C11", "C2"):
        raise ValueError("order must be 'C11' or 'C2'")
    t = a - b
    if abs(t) >= delta:
        return (a, 1.0) if t > 0 else (b, 0.0)
    phi, dphi = _phi_terms(t, delta, order, derivs=1)
    return (a + b + float(phi)) / 2.0, (1.0 + float(dphi)) / 2.0


@dataclass(frozen=True)
class BlendedGauge:
    """Blended squared gauge of a ball body.

    ``delta`` is the blend width in squared-gauge units. The blended value
    always dominates the squared body gauge and equals it exactly wherever
    the top-two member gap is at least delta.
    """

    body: BallBody
    delta: float
    order: Order = "C2"

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.order not in ("C11", "C2"):
            raise ValueError("order must be 'C11' or 'C2'")

    @property
    def dim(self) -> int:
        return self.body.dim


def _fold(sq, delta: float, order: Order, grad=None, hess=None):
    """Fold member values, sorted descending on the last axis, pairwise
    through the smoothed maximum; returns (value, grad, hess).

    ``grad`` (..., m, p) and ``hess`` (..., m, p, p) optionally carry each
    member's derivatives through the chain rule: child weights
    w = (1 + phi')/2 and 1 - w, plus the PSD rank-one term
    phi''/2 (g_acc - g_b)(g_acc - g_b)^T per blend. A step whose gap is at
    least delta keeps the accumulator as is, so off-tube values reproduce
    the exact maximum to the last bit. Profile derivatives are built only
    for the derivatives carried.
    """
    derivs = 0 if grad is None else 1 if hess is None else 2
    acc = sq[..., 0]
    acc_g = None if grad is None else grad[..., 0, :]
    acc_h = None if hess is None else hess[..., 0, :, :]
    for k in range(1, sq.shape[-1]):
        b = sq[..., k]
        t = acc - b  # >= 0: the accumulator dominates every later member
        exact = t >= delta
        phi, *slopes = _phi_terms(t, delta, order, derivs)
        if acc_g is not None:
            w = (0.5 * (1.0 + slopes[0]))[..., None]
            b_g = grad[..., k, :]
            if acc_h is not None:
                diff = acc_g - b_g
                blend_h = (
                    w[..., None] * acc_h
                    + (1.0 - w)[..., None] * hess[..., k, :, :]
                    + (0.5 * slopes[1])[..., None, None] * (diff[..., :, None] * diff[..., None, :])
                )
                acc_h = np.where(exact[..., None, None], acc_h, blend_h)
            acc_g = np.where(exact[..., None], acc_g, w * acc_g + (1.0 - w) * b_g)
        acc = np.where(exact, acc, 0.5 * (acc + b + phi))
    return acc, acc_g, acc_h


def blended_values(gauge: BlendedGauge, points: np.ndarray) -> np.ndarray:
    """Blended squared gauge over an (N, n) batch of points.

    Member squared gauges are sorted descending and folded pairwise through
    the smoothed maximum; the exact branch is taken with np.where, so
    off-tube values reproduce the squared body gauge to the last bit.
    """
    sq = member_gauges(gauge.body, np.asarray(points, dtype=float)) ** 2
    return _fold(-np.sort(-sq, axis=-1), gauge.delta, gauge.order)[0]


def blended_gauge_sq_many(gauge: BlendedGauge, points: np.ndarray):
    """Blended squared gauge with gradients and Hessians over (N, n) points.

    Returns arrays of shapes (N,), (N, n) and (N, n, n). The fold's chain
    rule keeps child weights in [0, 1] summing to one and adds a PSD
    rank-one curvature term per blend, so every Hessian inherits the
    members' strong-convexity floor min_i 2/(R + |a_i|)^2 = 2/(2R - rho)^2,
    rho the interior radius.
    """
    pts = np.asarray(points, dtype=float)
    mu, grad, hess = member_gauge_derivatives(gauge.body, pts)
    sq = mu**2
    idx = np.argsort(-sq, axis=-1, kind="stable")
    sq_grad = 2.0 * mu[..., None] * grad
    return _fold(
        np.take_along_axis(sq, idx, axis=-1),
        gauge.delta,
        gauge.order,
        grad=np.take_along_axis(sq_grad, idx[..., None], axis=-2),
        hess=np.take_along_axis(hess, idx[..., None, None], axis=-3),
    )


def blended_gauge_sq(gauge: BlendedGauge, x):
    """Blended squared gauge with gradient and Hessian at one point
    (:func:`blended_gauge_sq_many` on a batch of one)."""
    x = _as_vector(x, gauge.dim)
    value, grad, hess = blended_gauge_sq_many(gauge, x[None, :])
    return float(value[0]), grad[0], hess[0]


def blended_h_values(gauge: BlendedGauge, points: np.ndarray) -> np.ndarray:
    """h = sqrt of the blended squared gauge, batched."""
    return np.sqrt(blended_values(gauge, points))


def agreement_indicator(gauge: BlendedGauge, x) -> bool:
    """True when the blend provably equals the squared body gauge at x.

    Sufficient, exact by construction: the top-two member gap (in squared
    gauge values) is at least delta * (1 + RIDGE_GUARD), which forces every
    fold step onto its exact branch.
    """
    return bool(agreement_many(gauge, _as_vector(x, gauge.dim)[None, :])[0])


def _top_two_gap(sq: np.ndarray) -> np.ndarray:
    """First minus second largest member value over the last axis (m >= 2).

    A running max/min over the members keeps exact copies of the two
    largest values, so the gap is one subtraction of stored floats.
    """
    cols = np.ascontiguousarray(np.moveaxis(sq, -1, 0))
    first, second = np.maximum(cols[0], cols[1]), np.minimum(cols[0], cols[1])
    for x in cols[2:]:
        second = np.maximum(second, np.minimum(first, x))
        first = np.maximum(first, x)
    return first - second


def agreement_many(gauge: BlendedGauge, points: np.ndarray) -> np.ndarray:
    """:func:`agreement_indicator` over points of shape (..., n)."""
    sq = member_gauges(gauge.body, np.asarray(points, dtype=float)) ** 2
    if sq.shape[-1] == 1:
        return np.ones(sq.shape[:-1], dtype=bool)
    return _top_two_gap(sq) >= gauge.delta * (1.0 + RIDGE_GUARD)


class _LevelGrid(NamedTuple):
    """What every level set over one direction grid shares.

    ``dirs`` and ``facets`` are the grid, ``mu`` the body gauge mu(u) of
    every direction and ``sq`` its member squared gauges q_i(u), sorted
    descending (None for a single ball). ``gap`` is the top-two gap of the
    member squared gauges at the facet centroids of the level-1 set, whose
    vertices are u/mu(u) (inf for a single ball).
    """

    dirs: np.ndarray
    facets: np.ndarray
    mu: np.ndarray
    sq: np.ndarray | None
    gap: np.ndarray


def _level_grid(gauge: BlendedGauge, resolution: int) -> _LevelGrid:
    """The :class:`_LevelGrid` of a resolution: one member gauge pass over
    the directions and, unless the body is a single ball, one over the
    level-1 facet centroids."""
    dirs, facets = _measure.direction_grid(gauge.dim, resolution)
    mus = member_gauges(gauge.body, dirs)
    mu = np.max(mus, axis=-1)
    if mus.shape[-1] == 1:
        return _LevelGrid(dirs, facets, mu, None, np.full(len(facets), np.inf))
    sq = -np.sort(-(mus * mus), axis=-1)
    centroids = _measure.facet_centroids((1.0 / mu)[:, None] * dirs, facets)
    gap = _top_two_gap(member_gauges(gauge.body, centroids) ** 2)
    return _LevelGrid(dirs, facets, mu, sq, gap)


def _level_mesh(gauge: BlendedGauge, grid: _LevelGrid, level: float) -> _measure.BoundaryMesh:
    """Mesh of the level set h = level over a grid from :func:`_level_grid`.

    Where the top-two gap at r = level/mu(u) is at least
    delta * (1 + RIDGE_GUARD), every fold step is on its exact branch and r
    is the crossing, in closed form; at level 1 that is 1/mu(u), the
    original body's radius to the bit. The directions left in the tube are
    solved together by :func:`_tube_radii`.

    A facet agrees when all its vertices took the closed form and the gap
    at its centroid passes the same test. The gap is needed only on facets
    whose vertices all sit at level/mu(u): their centroid is level times
    the level-1 centroid, and member squared gauges are 2-homogeneous, so
    the gap there is level^2 times ``grid.gap``, up to rounding. Facets
    with a tube vertex disagree whatever the gap.
    """
    dirs, facets, mu, sq, gap = grid
    threshold = gauge.delta * (1.0 + RIDGE_GUARD)
    radii = level / mu
    closed = np.ones(len(mu), dtype=bool)
    if sq is not None:
        closed = radii * radii * (sq[:, 0] - sq[:, 1]) >= threshold
        if not closed.all():
            radii[~closed] = _tube_radii(gauge, sq[~closed], level * level)
    agreement = closed[facets].all(axis=1) & (level * level * gap >= threshold)
    return _measure.BoundaryMesh(
        dim=gauge.dim, directions=dirs, radii=radii, facets=facets, agreement=agreement
    )


def blended_level_mesh(
    gauge: BlendedGauge, level: float, resolution: int | None
) -> _measure.BoundaryMesh:
    """Mesh the level set h = level over the grid of
    :func:`measure.direction_grid` at ``resolution``."""
    return _level_mesh(gauge, _level_grid(gauge, resolution), level)


def _tube_radii(gauge: BlendedGauge, sq: np.ndarray, target: float) -> np.ndarray:
    """Level crossings along tube rows from their member squared gauges.

    Row j holds q_i(u) sorted descending in ``sq[j]``; ``target`` is
    level^2. Along the ray the blend is F(s) = fold(s q) with s = r^2:
    convex (each fold step is convex and nondecreasing in both inputs) and
    increasing. Newton's method started at s = level^2/q_1, where
    F(s) >= s q_1 = level^2, therefore stays at or right of the root and
    decreases monotonically to it. No member gauge is recomputed.

    Each row stops once its own step is at most 4 ulp of s, so its radius
    is that of solving the row alone, bit for bit, in any batch.
    """
    s = target / sq[:, 0]
    live = np.arange(len(s))
    for _ in range(_NEWTON_MAX_STEPS):
        q = sq[live]
        value, slope, _ = _fold(s[live, None] * q, gauge.delta, gauge.order, grad=q[..., None])
        step = np.maximum((value - target) / slope[:, 0], 0.0)
        s[live] = s[live] - step
        live = live[step > 4.0 * np.finfo(float).eps * s[live]]
        if live.size == 0:
            return np.sqrt(s)
    raise NonConvergence("tube radius solve did not converge")


# Kept only because the benchmark's tracer binds this name; the retrace of
# ROADMAP item 1 deletes it. No pipeline or CLI path calls it.
def level_disagreement_scan(gauge: BlendedGauge, epsilon: float, scan: int, resolution=None):
    """Levels 1 + epsilon k/(scan + 1), k = 1..scan, and the measure of
    each level set's facets that touch the blend tube."""
    _check_epsilon(epsilon)
    levels = 1.0 + epsilon * (np.arange(scan) + 1.0) / (scan + 1.0)
    meshes = (blended_level_mesh(gauge, t, resolution) for t in levels)
    return levels, np.array([_measure.hausdorff_measure(m, "disagree") for m in meshes])


@dataclass(frozen=True)
class SmoothedBody:
    """Level-1 body of a blended gauge.

    The body is {h <= 1} with h the square root of the blended squared
    gauge; it is contained in the original body, has the blend's
    smoothness, and its boundary coincides with the original boundary
    wherever the agreement indicator holds. ``meshes`` holds the original
    and the smoothed boundary mesh that :func:`extract_smoothed_body`
    built on one grid, or None.
    """

    gauge: BlendedGauge
    checks: dict = field(default_factory=dict, compare=False)
    meshes: tuple[_measure.BoundaryMesh, _measure.BoundaryMesh] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def body(self) -> BallBody:
        return self.gauge.body

    @property
    def dim(self) -> int:
        return self.gauge.dim

    def h(self, points):
        """sqrt of the blended squared gauge (scalar point or batch)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return float(blended_h_values(self.gauge, pts[None, :])[0])
        return blended_h_values(self.gauge, pts)

    def to_json(self) -> dict:
        return {
            "body": body_to_json(self.body),
            "delta": self.gauge.delta,
            "order": self.gauge.order,
        }


def _tube_advice(body: BallBody) -> str:
    """What to change when the ridge tube is too fat.

    Balls with identical centers tie on their whole common boundary, so no
    blend width shrinks their tube; the copies must go instead.
    """
    groups: dict[tuple[float, ...], list[int]] = {}
    for i, center in enumerate(body.centers.tolist()):
        groups.setdefault(tuple(center), []).append(i)
    copies = [f"({', '.join(map(str, g))})" for g in groups.values() if len(g) > 1]
    if not copies:
        return "decrease delta"
    return (
        f"balls {' and '.join(copies)} have identical centers, which no delta "
        "separates; keep one ball of each and remove its copies"
    )


def extract_smoothed_body(
    body: BallBody,
    delta: float | None,
    epsilon: float,
    order: Order = "C2",
    resolution: int | None = None,
) -> SmoothedBody:
    """Run the full smoothing pipeline on a ball body: W_eps = {g <= 1},
    g the blended squared gauge of width ``delta``.

    Level 1 is the only level used: a shrunken level t body
    (1/t) {sqrt(g) <= t} is the level-1 body of width delta/t^2, so
    ``delta`` is the one width knob, and a smaller one gives a larger
    body, closer to the original.

    Raises :class:`ShrinkDelta` when the blend tube already eats more than
    epsilon/4 of the boundary measure (the message names balls with
    identical centers, which no delta separates), and
    :class:`DegenerateEpsilon` for epsilon outside (0, 1/4). Bodies outside
    the meshing dimensions raise :class:`InvalidBody`. A ``delta`` of None
    takes DEFAULT_DELTA_FACTOR * R^2, and a ``resolution`` of None the
    default of :func:`measure.direction_grid`.

    ``meshes`` holds the original and smoothed boundary meshes at
    ``resolution``, and ``checks`` the run's verification data: whether
    every smoothed mesh vertex is ``contained`` in the body (so, the body
    being convex around the origin, is each point between a vertex and the
    origin) and stays in the gauge tube [1 - 5 eps, 1 + 5 eps]
    (``tube_ok``); ``hessian_min_eig``, the blend's proven curvature floor
    2/(2R - rho)^2 >= ``hessian_floor`` = 1/(2 R^2) (each member's is
    2/(R + |a_i|)^2, and the fold adds only convex combinations and PSD
    terms); the meshes' ``symdiff_measure``, with ``symdiff_breakdown``
    when its radius- and flag-based routes differ by more than 1% of it;
    and ``passed``, the ``smooth`` command's verdict: symdiff_measure
    below epsilon * ``boundary_measure``, contained and tube_ok.
    """
    _check_epsilon(epsilon)
    _measure.check_mesh_dim(body.dim)
    if delta is None:
        delta = DEFAULT_DELTA_FACTOR * body.radius**2
    gauge = BlendedGauge(body=body, delta=delta, order=order)

    # one grid for both output meshes; its radii 1/mu(u) are those of
    # measure.radial_function, to the bit
    grid = _level_grid(gauge, resolution)
    w_mesh = _measure.BoundaryMesh(
        dim=body.dim, directions=grid.dirs, radii=1.0 / grid.mu, facets=grid.facets
    )
    # centroid-based tube estimate: converges to the true tube measure
    # (vertex-inclusive flags would overshoot by two facet widths per
    # ridge, spuriously rejecting hairline tubes at coarse resolution);
    # grid.gap is taken at exactly w_mesh's facet centroids
    flags = grid.gap >= gauge.delta * (1.0 + RIDGE_GUARD)
    boundary_measure = float(np.sum(w_mesh.facet_measures))
    tube_estimate = float(np.sum(w_mesh.facet_measures[~flags]))
    if tube_estimate >= 0.25 * epsilon * boundary_measure:
        raise ShrinkDelta(
            f"ridge tube measure {tube_estimate:.3e} exceeds eps/4 of the "
            f"boundary measure {boundary_measure:.3e}; {_tube_advice(body)}"
        )

    we_mesh = _level_mesh(gauge, grid, 1.0)
    contained = bool(np.all(contains_many(body, we_mesh.points)))
    mus = body_gauge_values(body, we_mesh.points)
    tube_ok = bool(np.all(mus >= 1.0 - 5.0 * epsilon) and np.all(mus <= 1.0 + 5.0 * epsilon))
    breakdown = _measure.symmetric_difference_breakdown(w_mesh, we_mesh)
    symdiff = breakdown["combined"]

    checks = {
        "contained": contained,
        "tube_ok": tube_ok,
        "gauge_range_on_boundary": (float(np.min(mus)), float(np.max(mus))),
        "hessian_min_eig": 2.0 / (2.0 * body.radius - body.interior_radius) ** 2,
        "hessian_floor": 1.0 / (2.0 * body.radius**2),
        "tube_estimate": tube_estimate,
        "boundary_measure": boundary_measure,
        "symdiff_measure": symdiff,
        "passed": bool(symdiff < epsilon * boundary_measure and contained and tube_ok),
    }
    if abs(breakdown["radius_based"] - breakdown["flag_based"]) > 0.01 * max(symdiff, 1e-300):
        checks["symdiff_breakdown"] = breakdown
    return SmoothedBody(gauge=gauge, checks=checks, meshes=(w_mesh, we_mesh))
