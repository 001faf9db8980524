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
- is C^2 across the blend boundary, where phi meets |t| to second order.

The sublevel set {g <= 1} is then an inscribed smooth strongly convex
body whose boundary coincides with the original boundary outside a thin
ridge tube. Level 1 is a regular value: g is strongly convex with its
minimum inside the body, so its gradient vanishes nowhere on the level
set. No other level is worth choosing. The profile is a scale family,
phi_delta(s) = delta * Phi(s/delta), and member squared gauges are
2-homogeneous, so a shrunken level set (1/t) {sqrt(g_delta) <= t} is
exactly {g_(delta/t^2) <= 1}: a level in (1, 1 + eps) only picks a blend
width in (delta/(1 + eps)^2, delta), which delta sets directly. And g
grows with delta, so {g <= 1} only grows toward the body as delta
shrinks.

The level-1 set is meshed without bisection. Member gauges are
1-homogeneous, so along a ray r u every member squared gauge is
r^2 q_i(u): off the tube the crossing is exactly 1/mu(u), and inside it
the crossing solves a convex increasing equation in s = r^2, done by one
monotone Newton solve over the tube directions that reuses q(u). Each
tube fact, a top-two gap of at least delta (1 + RIDGE_GUARD), is computed
once: per direction for the radii, and per facet centroid of the
original mesh for the flags that every verdict reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import MEMBERSHIP_SLACK, BallBody, _as_rows, _positive_finite, _require_ball, body_to_json
from .errors import DegenerateEpsilon, NonConvergence, ShrinkDelta
from .gauge import member_gauge_derivatives, member_gauges
from . import measure as _measure

# Relative inflation of delta in the agreement test; gaps above
# delta * (1 + RIDGE_GUARD) are strictly outside every blend zone.
RIDGE_GUARD = 1e-9

# Default blend width; squared gauges are dimensionless, so it fits every scale.
DEFAULT_DELTA = 1e-3

# Iteration cap of the tube solve; monotone Newton from the right
# converges in well under ten steps for any blend width.
_NEWTON_MAX_STEPS = 64


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 0.25):
        raise DegenerateEpsilon("epsilon must lie in (0, 1/4)")


def _phi_terms(t, delta: float, derivs: int = 2):
    """Blend profile phi(t) and its first ``derivs`` derivatives, vectorized.

    Returns a tuple of ``derivs + 1`` arrays, so each caller builds only
    the terms it reads. phi is even, convex, C^2, satisfies phi(t) = |t|
    for |t| >= delta and |t| <= phi(t) <= |t| + 3 delta/8 inside.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    inside = at < delta
    d3 = delta**3
    phi_in = -(t**4) / (8.0 * d3) + 3.0 * t * t / (4.0 * delta) + 3.0 * delta / 8.0
    terms = [np.where(inside, phi_in, at)]
    if derivs >= 1:
        dphi_in = -(t**3) / (2.0 * d3) + 3.0 * t / (2.0 * delta)
        terms.append(np.where(inside, dphi_in, np.sign(t)))
    if derivs >= 2:
        d2_in = -3.0 * t * t / (2.0 * d3) + 3.0 / (2.0 * delta)
        terms.append(np.where(inside, d2_in, 0.0))
    return tuple(terms)


@dataclass(frozen=True)
class BlendedGauge:
    """Blended squared gauge of a ball body.

    ``delta`` is the blend width in squared-gauge units. The blended value
    always dominates the squared body gauge and equals it exactly wherever
    the top-two member gap is at least delta. Two copies of a ball tie
    everywhere, so a body whose centers repeat is replaced by the body of
    its distinct centers, in order of first occurrence. A body other than
    a ball body raises :class:`NotBallBody`.
    """

    body: BallBody
    delta: float

    def __post_init__(self):
        _require_ball(self.body, "the blended gauge")
        object.__setattr__(self, "delta", _positive_finite(self.delta, "delta"))
        distinct = dict.fromkeys(map(tuple, self.body.centers.tolist()))
        if len(distinct) < self.body.num_balls:
            object.__setattr__(self, "body", BallBody(self.body.radius, list(distinct), self.body.dim))

    @property
    def dim(self) -> int:
        return self.body.dim


def _fold(sq, delta: float, grad=None, hess=None):
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
        phi, *slopes = _phi_terms(t, delta, derivs)
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
    sq = member_gauges(gauge.body, points) ** 2
    return _fold(-np.sort(-sq, axis=-1), gauge.delta)[0]


def blended_gauge_sq(gauge: BlendedGauge, x):
    """Blended squared gauge with gradient and Hessian at one point, or at
    each row of an (N, n) batch.

    Returns a float, (n,) and (n, n) for one point, and arrays of shapes
    (N,), (N, n) and (N, n, n) for a batch, each row the single point's
    bit for bit. The fold's chain rule keeps child weights in [0, 1]
    summing to one and adds a PSD rank-one curvature term per blend, so
    every Hessian inherits the members' strong-convexity floor
    min_i 2/(R + |a_i|)^2 = 2/(2R - rho)^2, rho the interior radius.
    """
    pts, single = _as_rows(x, gauge.dim)
    mu, grad, hess = member_gauge_derivatives(gauge.body, pts)
    sq = mu**2
    idx = np.argsort(-sq, axis=-1, kind="stable")
    sq_grad = 2.0 * mu[..., None] * grad
    value, grad, hess = _fold(
        np.take_along_axis(sq, idx, axis=-1),
        gauge.delta,
        grad=np.take_along_axis(sq_grad, idx[..., None], axis=-2),
        hess=np.take_along_axis(hess, idx[..., None, None], axis=-3),
    )
    return (float(value[0]), grad[0], hess[0]) if single else (value, grad, hess)


def _top_two_gap(sq: np.ndarray) -> np.ndarray:
    """First minus second largest member value over the last axis; inf for
    a lone member, which ties with none.

    A running max/min over the members keeps exact copies of the two
    largest values, so the gap is one subtraction of stored floats.
    """
    cols = np.ascontiguousarray(np.moveaxis(sq, -1, 0))
    first, second = cols[0], np.full(cols.shape[1:], -np.inf)
    for x in cols[1:]:
        second = np.maximum(second, np.minimum(first, x))
        first = np.maximum(first, x)
    return first - second


def agreement_many(gauge: BlendedGauge, points: np.ndarray) -> np.ndarray:
    """Whether the blend provably equals the squared body gauge at points
    (..., n): sufficient, exact by construction, the top-two member gap (in
    squared gauge values) is at least delta * (1 + RIDGE_GUARD), which
    forces every fold step onto its exact branch."""
    sq = member_gauges(gauge.body, points) ** 2
    return _top_two_gap(sq) >= gauge.delta * (1.0 + RIDGE_GUARD)


def _original_mesh(gauge: BlendedGauge, resolution: int | None):
    """(w_mesh, mus, flags): the original body's mesh at ``resolution``,
    with radii 1/mu(u) (:func:`measure.radial_function`'s, to the bit), the
    (N, m) member gauges of its directions, and :func:`agreement_many` at
    its facet centroids, the run's one tube test."""
    dirs, facets = _measure.direction_grid(gauge.dim, resolution)
    mus = member_gauges(gauge.body, dirs)
    w_mesh = _measure.BoundaryMesh(gauge.dim, dirs, 1.0 / np.max(mus, axis=-1), facets)
    return w_mesh, mus, agreement_many(gauge, w_mesh.facet_centroids)


def _level_mesh(gauge: BlendedGauge, w_mesh, mus, flags) -> _measure.BoundaryMesh:
    """Mesh of the level set h = 1 over the grid of an :func:`_original_mesh`.

    A direction whose top-two member gap at r = 1/mu(u) is at least
    delta * (1 + RIDGE_GUARD) has every fold step on its exact branch, so r
    is the crossing in closed form, the original radius to the bit. Only
    the tube directions have their member values sorted, for one
    :func:`_tube_radii` solve. A facet agrees when all its vertices took
    the closed form and its ``flags`` entry holds.
    """
    radii = np.array(w_mesh.radii)
    sq = mus * mus
    closed = radii * radii * _top_two_gap(sq) >= gauge.delta * (1.0 + RIDGE_GUARD)
    if not closed.all():
        radii[~closed] = _tube_radii(gauge, -np.sort(-sq[~closed], axis=-1))
    agreement = closed[w_mesh.facets].all(axis=1) & flags
    return _measure.BoundaryMesh(gauge.dim, w_mesh.directions, radii, w_mesh.facets, agreement)


def blended_level_mesh(gauge: BlendedGauge, resolution: int | None) -> _measure.BoundaryMesh:
    """Mesh the level set h = 1 over the grid of
    :func:`measure.direction_grid` at ``resolution``."""
    return _level_mesh(gauge, *_original_mesh(gauge, resolution))


def _tube_radii(gauge: BlendedGauge, sq: np.ndarray) -> np.ndarray:
    """Level-1 crossings along tube rows from their member squared gauges.

    Row j holds q_i(u) sorted descending in ``sq[j]``. Along the ray the
    blend is F(s) = fold(s q) with s = r^2: convex (each fold step is
    convex and nondecreasing in both inputs) and increasing. Newton's
    method started at s = 1/q_1, where F(s) >= s q_1 = 1, therefore stays
    at or right of the root and decreases monotonically to it. No member
    gauge is recomputed.

    Each row stops once its own step is at most 4 ulp of s, so its radius
    is that of solving the row alone, bit for bit, in any batch.
    """
    s = 1.0 / sq[:, 0]
    live = np.arange(len(s))
    for _ in range(_NEWTON_MAX_STEPS):
        q = sq[live]
        value, slope, _ = _fold(s[live, None] * q, gauge.delta, grad=q[..., None])
        step = np.maximum((value - 1.0) / slope[:, 0], 0.0)
        s[live] = s[live] - step
        live = live[step > 4.0 * np.finfo(float).eps * s[live]]
        if live.size == 0:
            return np.sqrt(s)
    raise NonConvergence("tube radius solve did not converge")


# Kept only because the benchmark's tracer binds this name; the retrace of
# ROADMAP item 1 deletes it. No pipeline or CLI path calls it.
def level_disagreement_scan(gauge: BlendedGauge, epsilon: float, scan: int, resolution=None):
    """Levels t = 1 + epsilon k/(scan + 1), k = 1..scan, and the measure of
    each level set's facets that touch the blend tube.

    Level t at width delta is t times level 1 at width delta/t^2, so its
    measure is t^(n - 1) times that of the narrower blend's disagreeing
    facets.
    """
    _check_epsilon(epsilon)
    levels = 1.0 + epsilon * (np.arange(scan) + 1.0) / (scan + 1.0)
    measures = []
    for t in levels:
        narrow = BlendedGauge(gauge.body, gauge.delta / t**2)
        mesh = blended_level_mesh(narrow, resolution)
        measures.append(t ** (gauge.dim - 1) * np.sum(mesh.facet_measures[~mesh.agreement]))
    return levels, np.array(measures)


@dataclass(frozen=True)
class SmoothedBody:
    """Level-1 body of a blended gauge.

    The body is {h <= 1} with h the square root of the blended squared
    gauge; it is contained in the original body, has the blend's
    smoothness, and its boundary coincides with the original boundary
    wherever :func:`agreement_many` holds. ``meshes`` holds the original
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

    def to_json(self) -> dict:
        return {
            "body": body_to_json(self.body),
            "delta": self.gauge.delta,
        }


def extract_smoothed_body(
    body: BallBody,
    delta: float | None,
    epsilon: float,
    resolution: int | None = None,
) -> SmoothedBody:
    """Run the full smoothing pipeline on a ball body: W_eps = {g <= 1},
    g the blended squared gauge of width ``delta``.

    ``delta`` is the one width knob (any other level is level 1 of another
    width), and a smaller one gives a larger body, closer to the original.

    Raises :class:`ShrinkDelta` when the blend tube already eats more than
    epsilon/4 of the boundary measure, :class:`DegenerateEpsilon` for
    epsilon outside (0, 1/4) and ``ValueError`` for a delta that is not
    positive and finite. Bodies outside the meshing dimensions raise
    :class:`InvalidBody`, and a body other than a ball body
    :class:`NotBallBody`. A body whose centers repeat smooths as the body
    of its distinct centers (see :class:`BlendedGauge`). A ``delta`` of
    None takes DEFAULT_DELTA, and a ``resolution`` of None the default of
    :func:`measure.direction_grid`.

    ``meshes`` holds the original and smoothed boundary meshes at
    ``resolution``. One tube test, :func:`agreement_many` at the original
    mesh's facet centroids, gives both the ``tube_estimate`` behind
    ShrinkDelta and the smoothed mesh's flags; ``checks`` reads its vertex
    checks off the radii. mu is 1-homogeneous and the original radii are 1/mu(u), so a smoothed
    vertex's body gauge is its radius over the original one, and g >= q
    plus at most m - 1 fold steps of at most delta/4 each put it in
    [sqrt(1 - (m - 1) delta/4), 1]. ``contained``: no smoothed radius
    exceeds the original by more than ``MEMBERSHIP_SLACK`` R; ``tube_ok``:
    every ratio is in [1 - 5 eps, 1 + 5 eps]; ``gauge_range_on_boundary``:
    the least and largest ratio. ``hessian_min_eig`` is the proven floor
    2/(2R - rho)^2 >= ``hessian_floor`` = 1/(2 R^2), ``symdiff_measure``
    the measure of the flagged facets, on both meshes: the meshes'
    :func:`measure.symmetric_difference_measure`, since radii differ only
    at tube vertices, whose facets are all flagged, and
    ``passed`` the ``smooth`` verdict: symdiff_measure below epsilon *
    ``boundary_measure``, contained and tube_ok.
    """
    _check_epsilon(epsilon)
    _measure.check_mesh_dim(body.dim)
    if delta is None:
        delta = DEFAULT_DELTA
    gauge = BlendedGauge(body=body, delta=delta)

    # one grid for both meshes. The centroid flags converge to the true tube
    # measure; vertex-inclusive ones would overshoot by two facet widths per
    # ridge, spuriously rejecting hairline tubes at coarse resolution
    w_mesh, mus, flags = _original_mesh(gauge, resolution)
    boundary_measure = _measure.hausdorff_measure(w_mesh)
    tube_estimate = float(np.sum(w_mesh.facet_measures[~flags]))
    if tube_estimate >= 0.25 * epsilon * boundary_measure:
        raise ShrinkDelta(
            f"ridge tube measure {tube_estimate:.3e} exceeds eps/4 of the "
            f"boundary measure {boundary_measure:.3e}; decrease delta"
        )

    we_mesh = _level_mesh(gauge, w_mesh, mus, flags)
    ratio = we_mesh.radii / w_mesh.radii  # body gauges of the smoothed vertices
    contained = bool(np.all(we_mesh.radii <= w_mesh.radii + MEMBERSHIP_SLACK * body.radius))
    tube_ok = bool(np.all((ratio >= 1.0 - 5.0 * epsilon) & (ratio <= 1.0 + 5.0 * epsilon)))
    symdiff = _measure._two_sided_measure(w_mesh, we_mesh, ~we_mesh.agreement)

    checks = {
        "contained": contained,
        "tube_ok": tube_ok,
        "gauge_range_on_boundary": (float(np.min(ratio)), float(np.max(ratio))),
        "hessian_min_eig": 2.0 / (2.0 * body.radius - body.interior_radius) ** 2,
        "hessian_floor": 1.0 / (2.0 * body.radius**2),
        "tube_estimate": tube_estimate,
        "boundary_measure": boundary_measure,
        "symdiff_measure": symdiff,
        "passed": bool(symdiff < epsilon * boundary_measure and contained and tube_ok),
    }
    return SmoothedBody(gauge=gauge, checks=checks, meshes=(w_mesh, we_mesh))
