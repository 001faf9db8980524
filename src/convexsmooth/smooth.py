"""Smoothing pipeline: blended squared gauge and level-set extraction.

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

Shrinking a sublevel set of h = sqrt(g) at a well-chosen level close to 1
then yields an inscribed smooth strongly convex body whose boundary
coincides with the original boundary outside a thin ridge tube; the level
is picked by scanning candidates and keeping the one whose level set meets
the disagreement region in the smallest measure.

Level sets are meshed without bisection. Member gauges are 1-homogeneous,
so along a ray r u every member squared gauge is r^2 q_i(u): off the tube
the level-t crossing is exactly t/mu(u), and inside it the crossing solves
a convex increasing equation in s = r^2, done by a monotone Newton
iteration that reuses q(u). One mesher handles a stack of levels at once:
q(u) is computed once per grid, radii form one (levels x directions)
array, every tube row of every level goes through one Newton solve, and
the facet centroids of all levels through one agreement test. The level
scan runs it on all its candidates; a single level set is the one-level
case, so the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .bodies import BallBody, _as_vector, contains_many, body_to_json
from .errors import DegenerateEpsilon, NonConvergence, ShrinkDelta
from .gauge import member_gauge_derivatives, member_gauges
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

_DEFAULT_SCAN_RES = {2: 512, 3: 3}

# Largest (levels x facets) count the scan meshes in one batch; larger
# scans run in consecutive blocks of levels, which keeps memory O(facets).
_SCAN_BLOCK_CELLS = 1 << 17


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
    members' strong-convexity floor 1/(2 R^2).
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


def agreement_many(gauge: BlendedGauge, points: np.ndarray) -> np.ndarray:
    """:func:`agreement_indicator` over points of shape (..., n)."""
    sq = member_gauges(gauge.body, np.asarray(points, dtype=float)) ** 2
    if sq.shape[-1] == 1:
        return np.ones(sq.shape[:-1], dtype=bool)
    # the two largest member values of every point, as exact copies
    cols = np.ascontiguousarray(np.moveaxis(sq, -1, 0))
    first, second = np.maximum(cols[0], cols[1]), np.minimum(cols[0], cols[1])
    for x in cols[2:]:
        second = np.maximum(second, np.minimum(first, x))
        first = np.maximum(first, x)
    return first - second >= gauge.delta * (1.0 + RIDGE_GUARD)


def _level_grid(gauge: BlendedGauge, resolution: int):
    """Direction grid, facets, mu(u) and the member squared gauges q_i(u),
    sorted descending (None for a single ball), computed once per grid."""
    dirs, facets = _measure.direction_grid(gauge.dim, resolution)
    mus = member_gauges(gauge.body, dirs)
    mu = np.max(mus, axis=-1)
    sq = -np.sort(-(mus * mus), axis=-1) if mus.shape[-1] > 1 else None
    return dirs, facets, mu, sq


def _mesh_levels(gauge: BlendedGauge, grid, levels: np.ndarray, rescale: float | None = None):
    """Radii (L, N) and facet agreement flags (L, F) of the level sets
    h = levels[l] over one grid from :func:`_level_grid`.

    Where the top-two gap at r = level/mu(u) is at least
    delta * (1 + RIDGE_GUARD), every fold step is on its exact branch and r
    is the crossing, in closed form; the (level, direction) rows left in the
    tube are solved together by :func:`_tube_radii`. With ``rescale``,
    closed-form radii are computed as (level/rescale)/mu(u), which is
    1/mu(u) to the bit when rescale equals level, matching the original
    body's mesh, and tube radii are divided by it.

    Agreement flags are evaluated on the level set itself: a vertex agrees
    when its direction took the closed form, a facet when all its vertices
    and its centroid agree.
    """
    dirs, facets, mu, sq = grid
    radii = levels[:, None] / mu
    closed = np.ones(radii.shape, dtype=bool)
    if sq is not None:
        closed = radii * radii * (sq[:, 0] - sq[:, 1]) >= gauge.delta * (1.0 + RIDGE_GUARD)
        group, row = np.nonzero(~closed)
        if group.size:
            radii[group, row] = _tube_radii(gauge, sq[row], (levels * levels)[group], group)
    centroids = _measure.facet_centroids(radii[..., None] * dirs, facets)
    flags = closed[:, facets].all(axis=2) & agreement_many(gauge, centroids)
    if rescale is not None:
        tube = radii[~closed] / rescale
        radii = (levels / rescale)[:, None] / mu
        radii[~closed] = tube
    return radii, flags


def blended_level_mesh(
    gauge: BlendedGauge,
    level: float,
    resolution: int,
    rescale: float | None = None,
) -> _measure.BoundaryMesh:
    """Mesh the level set h = level, optionally rescaling radii by 1/rescale.

    The one-level case of the batched mesher (:func:`_mesh_levels`) that
    the level scan runs, so a level's mesh is the scan's to the bit.
    """
    grid = _level_grid(gauge, resolution)
    radii, flags = _mesh_levels(gauge, grid, np.array([level], dtype=float), rescale)
    return _measure.BoundaryMesh(
        dim=gauge.dim, directions=grid[0], radii=radii[0], facets=grid[1], agreement=flags[0]
    )


def _tube_radii(
    gauge: BlendedGauge, sq: np.ndarray, target: np.ndarray, group: np.ndarray
) -> np.ndarray:
    """Level crossings along tube rows from their member squared gauges.

    Row j holds q_i(u) sorted descending in ``sq[j]``, its target
    ``target[j]`` = level^2 and the index ``group[j]`` of its level. Along
    the ray the blend is F(s) = fold(s q) with s = r^2: convex (each fold
    step is convex and nondecreasing in both inputs) and increasing.
    Newton's method started at s = level^2/q_1, where F(s) >= s q_1 =
    level^2, therefore stays at or right of the root and decreases
    monotonically to it. No member gauge is recomputed.

    Rows of one level step together: a level stops once every one of its
    rows took a step of at most 4 ulp of s, so each level's radii are those
    of solving that level alone, bit for bit, whatever else is batched.
    """
    s = target / sq[:, 0]
    live = np.arange(len(s))
    unsettled = np.zeros(int(group.max()) + 1, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        q = sq[live]
        value, slope, _ = _fold(s[live, None] * q, gauge.delta, gauge.order, grad=q[..., None])
        step = np.maximum((value - target[live]) / slope[:, 0], 0.0)
        s[live] = s[live] - step
        unsettled[:] = False
        unsettled[group[live][step > 4.0 * np.finfo(float).eps * s[live]]] = True
        live = live[unsettled[group[live]]]
        if live.size == 0:
            return np.sqrt(s)
    raise NonConvergence("tube radius solve did not converge")


def level_disagreement_scan(
    gauge: BlendedGauge,
    epsilon: float,
    scan: int,
    resolution: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels in (1, 1 + epsilon) and their disagreement measures.

    Each candidate level set of h is meshed and the measure of its portion
    inside the blend tube (agreement flag false) is summed. All levels
    share one grid and its member gauges, and are meshed together by
    :func:`_mesh_levels`, in blocks of at most ``_SCAN_BLOCK_CELLS``
    (levels x facets); each measure equals that of the level's own
    :func:`blended_level_mesh` bit for bit. The minimum over candidates is
    at most the scan average, which is the discrete form of slicing a
    small-measure tube by many levels.
    """
    _check_epsilon(epsilon)
    if scan < 8:
        raise ValueError("scan must be >= 8 candidate levels")
    if resolution is None:
        resolution = _DEFAULT_SCAN_RES[gauge.dim]
    levels = 1.0 + epsilon * (np.arange(scan) + 1.0) / (scan + 1.0)
    grid = _level_grid(gauge, resolution)
    dirs, facets = grid[:2]
    block = max(1, _SCAN_BLOCK_CELLS // len(facets))
    measures = np.empty(scan)
    for start in range(0, scan, block):
        radii, flags = _mesh_levels(gauge, grid, levels[start : start + block])
        sizes = _measure.facet_measures(radii[..., None] * dirs, facets)
        measures[start : start + block] = [np.sum(m[~f]) for m, f in zip(sizes, flags)]
    return levels, measures


def select_regular_value(
    gauge: BlendedGauge,
    epsilon: float,
    scan: int,
    resolution: int | None = None,
) -> float:
    """Level in (1, 1 + epsilon) whose level set meets the tube least.

    Every candidate is a regular value of the blended gauge (a strongly
    convex function with its minimum near the origin has nonvanishing
    gradient on these level sets); the scan minimizes the disagreement
    measure, breaking ties toward the scan midpoint, then the lower level.
    """
    levels, measures = level_disagreement_scan(gauge, epsilon, scan, resolution=resolution)
    mid = 1.0 + epsilon / 2.0
    best = min(
        range(len(levels)),
        key=lambda k: (measures[k], abs(levels[k] - mid), k),
    )
    return float(levels[best])


@dataclass(frozen=True)
class SmoothedBody:
    """Shrunken level-set body of a blended gauge.

    The body is (1/t0) * {h <= t0} with h the square root of the blended
    squared gauge; it is contained in the original body, has the blend's
    smoothness, and its boundary coincides with the original boundary
    wherever the agreement indicator holds. ``meshes`` holds the original
    and the smoothed boundary mesh that :func:`extract_smoothed_body`
    built on one grid, or None.
    """

    gauge: BlendedGauge
    t0: float
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
            "t0": self.t0,
        }


def extract_smoothed_body(
    body: BallBody,
    delta: float,
    epsilon: float,
    order: Order = "C2",
    scan: int = 64,
    resolution: int | None = None,
    scan_resolution: int | None = None,
    check_samples: int = 2048,
    seed: int = 0,
) -> SmoothedBody:
    """Run the full smoothing pipeline on a ball body.

    Raises :class:`ShrinkDelta` when the blend tube already eats more than
    epsilon/4 of the boundary measure (the scan could not help then), and
    :class:`DegenerateEpsilon` for epsilon outside (0, 1/4). The returned
    body records its verification data in ``checks``: containment of the
    sampled body in the original, the boundary staying inside the gauge
    tube [1 - 5 eps, 1 + 5 eps], and the sampled Hessian floor; ``meshes``
    holds the original and smoothed boundary meshes at ``resolution``.
    Bodies outside the meshing dimensions raise :class:`InvalidBody`.
    """
    _check_epsilon(epsilon)
    _measure.check_mesh_dim(body.dim)
    if resolution is None:
        resolution = _measure._DEFAULT_RESOLUTION[body.dim]
    gauge = BlendedGauge(body=body, delta=delta, order=order)

    w_mesh = _measure.boundary_mesh(body, resolution)
    # centroid-based tube estimate: converges to the true tube measure
    # (vertex-inclusive flags would overshoot by two facet widths per
    # ridge, spuriously rejecting hairline tubes at coarse resolution)
    flags = agreement_many(gauge, w_mesh.facet_centroids)
    boundary_measure = float(np.sum(w_mesh.facet_measures))
    tube_estimate = float(np.sum(w_mesh.facet_measures[~flags]))
    if tube_estimate >= 0.25 * epsilon * boundary_measure:
        raise ShrinkDelta(
            f"ridge tube measure {tube_estimate:.3e} exceeds eps/4 of the "
            f"boundary measure {boundary_measure:.3e}; decrease delta"
        )

    t0 = select_regular_value(gauge, epsilon, scan, resolution=scan_resolution)

    we_mesh = blended_level_mesh(gauge, t0, resolution, rescale=t0)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(we_mesh.points), size=check_samples)
    shrink = rng.random(check_samples) ** (1.0 / body.dim)
    samples = we_mesh.points[idx] * shrink[:, None]
    inside = contains_many(body, np.vstack([samples, we_mesh.points]))

    mus = np.max(member_gauges(body, we_mesh.points), axis=-1)
    tube_ok = bool(
        np.all(mus >= 1.0 - 5.0 * epsilon) and np.all(mus <= 1.0 + 5.0 * epsilon)
    )

    hess_idx = rng.integers(0, len(we_mesh.points), size=min(256, check_samples))
    _, _, hess = blended_gauge_sq_many(gauge, t0 * we_mesh.points[hess_idx])
    eig_min = float(np.min(np.linalg.eigvalsh(hess)[:, 0], initial=np.inf))

    checks = {
        "contained": bool(np.all(inside)),
        "tube_ok": tube_ok,
        "gauge_range_on_boundary": (float(np.min(mus)), float(np.max(mus))),
        "hessian_min_eig": eig_min,
        "hessian_floor": 1.0 / (2.0 * body.radius**2),
        "tube_estimate": tube_estimate,
        "boundary_measure": boundary_measure,
    }
    return SmoothedBody(gauge=gauge, t0=t0, checks=checks, meshes=(w_mesh, we_mesh))
