"""Body representations and containment/diameter primitives.

The central type is :class:`BallBody`, a compact body given as the
intersection of finitely many closed balls of one common radius, with the
origin in its interior. :class:`HalfspaceBody` is the polyhedral
counterpart used as a negative fixture: its flat faces violate the
rolling-ball property that the certificates check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations
from typing import Union

import numpy as np

from . import grids
from .errors import BracketFailure, InvalidBody, NotBallBody

# Slack on |x - a_i| - R for membership tests, relative to R (to the
# largest offset for a halfspace body). Computed boundary points land within
# rounding (closed-form radii, projections) or solver tolerance (ridge-tube
# radii) of the sphere, both of which grow with R.
MEMBERSHIP_SLACK = 1e-12

# Slack, relative to R or to the largest offset, of outward_normal's active
# set: the rounding scale of MEMBERSHIP_SLACK. A wider set takes in spheres
# that are not active, and near-coincident balls, all "active" within a
# wide slack, would average to a normal outside the normal cone.
NORMAL_ATOL = 1e-12


def _as_points(x, dim: int, max_ndim: int = 64) -> np.ndarray:
    """Points (..., dim) with 1 to ``max_ndim`` axes (numpy's limit by
    default) as a float array; any other shape raises ``ValueError``."""
    v = np.asarray(x, dtype=float)
    if not 1 <= v.ndim <= max_ndim or v.shape[-1] != dim:
        raise ValueError(f"expected vectors of length {dim}, got shape {v.shape}")
    return v


def _as_rows(x, dim: int) -> tuple[np.ndarray, bool]:
    """One vector or an (N, dim) batch as rows, and whether it was one vector."""
    v = _as_points(x, dim, 2)
    return np.atleast_2d(v), v.ndim == 1


def _positive_finite(value, name: str) -> float:
    """``value`` as a float; ``ValueError`` naming it unless it is positive
    and finite, as a scale or a width must be."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only."""
    arr.setflags(write=False)
    return arr


_FIELD_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


def _text_or_bool(value) -> bool:
    """Whether a field holds a string or a boolean, which np.array would
    quietly turn into a number. Two list levels are searched: a field
    nested deeper fails its shape check anyway."""
    if isinstance(value, np.ndarray) and value.dtype != object:
        return value.dtype.kind in "bSU"
    seq = (list, tuple, np.ndarray)
    return any(
        isinstance(x, (str, bytes, bool, np.bool_))
        for row in (value if isinstance(value, seq) else (value,))
        for x in (row if isinstance(row, seq) else (row,))
    )


def _finite_array(value, name: str, ndim: int) -> np.ndarray:
    """A body field as a new float array of ``ndim`` axes (one axis fewer
    counts as a single row), every entry a finite int or float; anything
    else raises :class:`InvalidBody` naming the field."""
    expected = f"{name} must be {_FIELD_SHAPES[ndim]}"
    if _text_or_bool(value):
        raise InvalidBody(expected)
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise InvalidBody(expected) from e
    if arr.ndim == ndim - 1:
        arr = arr[None]
    if arr.ndim != ndim:
        raise InvalidBody(expected)
    if not np.all(np.isfinite(arr)):
        raise InvalidBody(f"{name} must be finite")
    return arr


def _fields_equal(self, other) -> bool:
    """Dataclass equality that compares array fields by value."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name))
        for f in fields(self)
    )


@dataclass(frozen=True)
class Ball:
    """Closed ball with a given finite center and finite positive radius."""

    center: np.ndarray
    radius: float

    __eq__ = _fields_equal

    def __post_init__(self):
        object.__setattr__(self, "radius", float(_finite_array(self.radius, "ball radius", 0)))
        center = _finite_array(self.center, "ball center", 1)
        if np.ndim(self.center) == 0:  # _finite_array takes a number as one row
            raise InvalidBody("ball center must be a list of numbers")
        object.__setattr__(self, "center", _read_only(center))
        if not self.radius > 0:
            raise InvalidBody("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


class _SampleCache:
    """Both body types' cache of the boundary samples drawn on the body, by
    sample count (see :func:`convexsmooth.measure.boundary_samples`)."""

    @cached_property
    def _samples(self) -> dict:
        return {}


@dataclass(frozen=True)
class BallBody(_SampleCache):
    """Intersection of closed balls of common radius, with 0 interior.

    Invariants checked at construction:

    - ``dim`` is an integer of at least 2, the radius and every center
      coordinate are finite numbers, and the centers are rows of length
      ``dim``;
    - every center satisfies |a_i| < radius, so the origin is interior;
    - the interior radius rho = radius - max_i |a_i| is positive, and the
      open ball B(0, rho) is contained in the body.

    The number of balls is unrestricted; gauge evaluations cost O(m) in the
    number of centers. Nearest, support and farthest points are read off
    the body's intersection spheres (:class:`SphereLattice`), enumerated on
    first use and cached on the body.
    """

    radius: float
    centers: np.ndarray
    dim: int

    __eq__ = _fields_equal

    def __post_init__(self):
        centers = _finite_array(self.centers, "centers", 2)
        object.__setattr__(self, "centers", _read_only(centers))
        object.__setattr__(self, "radius", float(_finite_array(self.radius, "radius", 0)))
        dim = float(_finite_array(self.dim, "dim", 0))
        if not dim.is_integer():
            raise InvalidBody("dim must be an integer")
        object.__setattr__(self, "dim", int(dim))
        if self.dim < 2:
            raise InvalidBody("dim must be at least 2")
        if not self.radius > 0:
            raise InvalidBody("radius must be positive")
        if centers.size == 0:
            raise InvalidBody("centers must be a nonempty list")
        if centers.shape[1] != self.dim:
            raise InvalidBody(
                f"centers have length {centers.shape[1]}, expected dim={self.dim}"
            )
        norms = np.linalg.norm(centers, axis=1)
        if not np.all(norms < self.radius):
            raise InvalidBody(
                "max|center| < radius violated (origin must be interior)"
            )

    @property
    def num_balls(self) -> int:
        return self.centers.shape[0]

    @cached_property
    def _lattice(self) -> SphereLattice:
        """The body's intersection spheres, built on first use. The body is
        frozen and the lattice's arrays are read-only, so it cannot go stale."""
        return _sphere_lattice(self)

    @property
    def interior_radius(self) -> float:
        """rho = R - max_i |a_i|; B(0, rho) is inside the body."""
        return self.radius - float(np.max(np.linalg.norm(self.centers, axis=1)))


@dataclass(frozen=True)
class HalfspaceBody(_SampleCache):
    """Intersection of halfspaces {x : <normal, x> <= offset}.

    Normals must be finite unit vectors of one length and every offset
    finite and positive, so an open ball around the origin is contained in
    the body. Used as a negative-test fixture: flat faces cannot satisfy
    the enclosing-ball condition.
    """

    normals: np.ndarray
    offsets: np.ndarray

    __eq__ = _fields_equal

    def __post_init__(self):
        normals = _finite_array(self.normals, "halfspace normals", 2)
        offsets = np.atleast_1d(_finite_array(self.offsets, "halfspace offsets", 1))
        object.__setattr__(self, "normals", _read_only(normals))
        object.__setattr__(self, "offsets", _read_only(offsets))
        if normals.shape[0] != offsets.shape[0]:
            raise InvalidBody("normals and offsets must have equal length")
        if normals.shape[0] == 0:
            raise InvalidBody("halfspace list must be nonempty")
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-9):
            raise InvalidBody("halfspace normals must be unit vectors")
        if not np.all(offsets > 0):
            raise InvalidBody(
                "offsets must be positive (origin must be interior)"
            )

    @property
    def dim(self) -> int:
        return self.normals.shape[1]


Body = Union[BallBody, HalfspaceBody]


def _require_ball(body, what: str) -> None:
    """Raise :class:`NotBallBody` unless ``body`` is a :class:`BallBody`,
    naming ``what`` needs one."""
    if not isinstance(body, BallBody):
        raise NotBallBody(f"{what} needs a BallBody, got a {type(body).__name__}")


def normal_lift(xi) -> np.ndarray:
    """Lift a subgradient to the unit outward epigraph normal.

    The lift is (xi, -1)/sqrt(1 + |xi|^2): a unit vector whose last
    coordinate is strictly negative.
    """
    xi = _as_points(xi, np.size(xi), 1)
    return np.append(xi, -1.0) * (1.0 / np.sqrt(1.0 + float(xi @ xi)))


def _row_dots(xs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """<x, a_j> for x of shape (..., n) and the rows a_j of A; shape (..., m).

    Summed coordinate by coordinate in a fixed order, so a point gets the
    same bits alone as inside any batch; a matrix product rounds a one-row
    batch differently from a many-row one.
    """
    out = xs[..., :1] * A[:, 0]
    for j in range(1, A.shape[1]):
        out = out + xs[..., j : j + 1] * A[:, j]
    return out


def _face_exits(normals: np.ndarray, rooms, V: np.ndarray) -> np.ndarray:
    """Where the ray along each row v of V leaves a halfspace body: the least
    room_k/<n_k, v> over the faces k it meets, whose <n_k, v> exceeds 1e-14,
    else inf. rooms[k] is face k's offset less <n_k, x> at the ray's start x,
    a number when the rays start at the origin, else a row (N,). The minimum
    runs one face at a time over every ray."""
    exits = np.full(len(V), np.inf)
    with np.errstate(divide="ignore"):
        for room, rate in zip(rooms, normals @ V.T):
            np.minimum(exits, np.where(rate > 1e-14, room / rate, np.inf), out=exits)
    return exits


# Rows of the membership table built at a time: points times centers in
# contains_many and in _extreme_points' nearest-mode membership, queries
# times candidates times centers for its candidates. Memory then stays
# fixed whatever the number of queries
_BLOCK_ROWS = 1 << 17


def _blocks(count: int, per_row: int):
    """Slices covering range(count), each of at most _BLOCK_ROWS // per_row
    rows and at least one."""
    step = max(1, _BLOCK_ROWS // per_row)
    return (slice(start, start + step) for start in range(0, count, step))


def _norm(v) -> np.ndarray:
    """Euclidean norm over the coordinates v[0], v[1], ... (arrays that
    broadcast, or one array with its coordinates first), the squares summed
    in index order.

    On fewer than 8 coordinates that is np.linalg.norm's order over a last
    axis, so the bits are the same, without its overhead on short axes.
    """
    s = v[0] * v[0]
    for k in range(1, len(v)):
        s = s + v[k] * v[k]
    return np.sqrt(s)


def _dot(x, y) -> np.ndarray:
    """Sum over the coordinates k of x[k] * y[k] (laid out as for
    :func:`_norm`, at least two), in np.einsum's order for a contracted
    innermost axis of a C-contiguous operand: the even-indexed terms and
    the odd-indexed terms each in index order, then the two sums.

    Those are einsum's two SIMD lanes of doubles on numpy 2's x86-64
    baseline, so on fewer than 8 coordinates the bits are einsum's: on 3,
    (t0 + t2) + t1. Like einsum's sums, which start from +0.0, the result
    is never -0.0.
    """
    even = x[0] * y[0]
    for k in range(2, len(x), 2):
        even = even + x[k] * y[k]
    odd = x[1] * y[1]
    for k in range(3, len(x), 2):
        odd = odd + x[k] * y[k]
    return even + odd + 0.0


def _cross(a, b) -> np.ndarray:
    """a x b for 3D vectors laid out as for :func:`_norm`, coordinates
    first."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def _combination(coeffs, basis) -> np.ndarray:
    """sum_j coeffs[j] * basis[j] in index order and from +0.0: np.einsum's
    sum over a contracted axis that is not innermost."""
    out = coeffs[0] * basis[0] + 0.0
    for j in range(1, len(coeffs)):
        out = out + coeffs[j] * basis[j]
    return out


def _within(X: np.ndarray, centers: np.ndarray, limit: float) -> np.ndarray:
    """Whether each row of X is within ``limit`` of every center, the
    centers laid out (n, 1, m) and the distances summed as in :func:`_norm`."""
    return np.logical_and.reduce(_norm(X.T[:, :, None] - centers) <= limit, axis=1)


def contains(body: Body, x) -> bool:
    """Membership test with relative slack ``MEMBERSHIP_SLACK``: the
    :func:`contains_many` row of a batch of one."""
    return bool(contains_many(body, _as_points(x, body.dim, 1)[None, :])[0])


def contains_many(body: Body, points: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (N, dim) array of points.

    A point is in a ball body when |x - a_i| <= R + ``MEMBERSHIP_SLACK`` R
    for every center, the distance summed as in :func:`_norm`, and in a
    halfspace body when <n, x> - offset is at most ``MEMBERSHIP_SLACK``
    times the largest offset on every face. The points go in blocks of
    ``_BLOCK_ROWS`` point-center pairs, so memory does not grow with N
    beyond the result.
    """
    pts = _as_points(points, body.dim)
    if isinstance(body, BallBody):
        inside = np.empty(len(pts), dtype=bool)
        R = body.radius
        centers, limit = body.centers.T[:, None, :], R + MEMBERSHIP_SLACK * R
        for rows in _blocks(len(pts), body.num_balls):
            inside[rows] = _within(pts[rows], centers, limit)
        return inside
    slack = MEMBERSHIP_SLACK * np.max(body.offsets)
    return np.all(_row_dots(pts, body.normals) - body.offsets <= slack, axis=1)


def _active_set(values: np.ndarray, level, tol: float) -> np.ndarray:
    """The constraints active at each row of ``values``, (N, k): those
    within ``tol`` of ``level`` or, in a row with none, those within
    ``tol`` of the row's largest value, its most violated constraint."""
    active = np.abs(values - level) <= tol
    near_worst = values >= np.max(values, axis=1, keepdims=True) - tol
    active |= ~np.any(active, axis=1, keepdims=True) & near_worst
    return active


def _active_spheres(body: BallBody, Y: np.ndarray):
    """The offsets y - a_i of the rows y of Y from the centers, (N, m, n),
    their lengths d_i, (N, m), and the spheres :func:`outward_normal`
    averages at each row, (N, m): the :func:`_active_set` of the d_i at
    level R, within ``NORMAL_ATOL`` R."""
    diff = Y[:, None, :] - body.centers
    d = _norm(diff.T).T
    return diff, d, _active_set(d, body.radius, NORMAL_ATOL * body.radius)


def outward_normal(body: Body, y) -> np.ndarray:
    """Outward unit normal at a boundary point, or at each row of an (N, n)
    batch of them.

    At smooth points this is the active constraint's normal. At ridge
    points (several constraints active within ``NORMAL_ATOL``) it is the
    normalized average of the active normals, which lies in the normal
    cone; any such selection supports the body. Each row of a batch equals the normal of
    that point alone, bit for bit. A point with a coordinate that is not
    finite raises ``ValueError`` naming its row.
    """
    Y, single = _as_rows(y, body.dim)
    # a row that is not finite is named below, not warned about on the way
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(body, BallBody):
            diff, _, active = _active_spheres(body, Y)
            terms = diff / body.radius
        else:
            excess = _row_dots(Y, body.normals) - body.offsets
            active = _active_set(excess, 0.0, NORMAL_ATOL * np.max(body.offsets))
            terms = body.normals
        n = np.sum(np.where(active[..., None], terms, 0.0), axis=1)
        norm = _norm(n.T)[:, None]
    if not np.all((norm > 0.0) & (norm < np.inf)):
        _require_finite(Y)
        raise ValueError("degenerate normal cone selection")
    n /= norm
    return n[0] if single else n


@dataclass(frozen=True, eq=False)
class SphereLattice:
    """The intersection spheres of a ball body, coordinates first.

    Every affinely independent subset S of at most n centers whose spheres
    meet cuts out an intersection sphere: centre c_S (the circumcentre of
    a_S), radius r_S = sqrt(R^2 - |c_S - a_0|^2), lying in the affine plane
    through c_S orthogonal to V_S = span(a_j - a_0). ``span`` holds
    orthonormal vectors spanning V_S and ``normal`` orthonormal vectors
    spanning its orthogonal complement, each padded with zero vectors. The
    sphere index comes last, so that one coordinate of every sphere is one
    contiguous row: ``centres`` is (n, S), ``radii`` (S,), ``span``
    (n - 1, n, S) and ``normal`` (n, n, S), with ``span[j, :, s]`` the j-th
    vector of sphere s. Singletons come first, as the balls themselves:
    the first ``balls`` spheres, so ``centres[:, :balls]`` are the ball
    centers and ``radii[0]`` is R. Subsets whose differences a_j - a_0
    have a singular value at most 1e-14 R are skipped.

    The remaining attributes are what :func:`_extreme_points` broadcasts
    against, built once with the lattice: ``limit`` = R +
    ``MEMBERSHIP_SLACK`` R, the membership bound on a distance to a center;
    ``axis_tol`` = 4 ulp R, below which a farthest query is on a sphere's
    axis; the ball centers as (n, 1, m) for (n, N, 1) query rows and as
    (n, m, 1, 1) for (n, N, S) candidates; ``centres`` as (n, 1, S); and
    each ``span`` and ``normal`` vector as (n, 1, S). Every array is
    read-only.
    """

    centres: np.ndarray
    radii: np.ndarray
    span: np.ndarray
    normal: np.ndarray
    balls: int
    limit: float = field(init=False)
    axis_tol: float = field(init=False)
    query_balls: np.ndarray = field(init=False, repr=False)
    candidate_balls: np.ndarray = field(init=False, repr=False)
    centre_rows: np.ndarray = field(init=False, repr=False)
    span_rows: tuple = field(init=False, repr=False)
    normal_rows: tuple = field(init=False, repr=False)

    def __post_init__(self):
        R, m = float(self.radii[0]), self.balls
        views = {
            "limit": R + MEMBERSHIP_SLACK * R,
            "axis_tol": 4.0 * np.finfo(float).eps * R,
            "query_balls": self.centres[:, None, :m],
            "candidate_balls": self.centres[:, :m, None, None],
            "centre_rows": self.centres[:, None, :],
            "span_rows": tuple(basis[:, None, :] for basis in self.span),
            "normal_rows": tuple(basis[:, None, :] for basis in self.normal),
        }
        for name, value in views.items():
            object.__setattr__(self, name, value)


def _sphere_lattice(body: BallBody) -> SphereLattice:
    """Enumerate the intersection spheres of a body (see :class:`SphereLattice`)."""
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
        # c_S - a_0 = Vt^T y with 2 <a_j - a_0, c_S - a_0> = |a_j - a_0|^2
        y = np.einsum("sji,sj->si", U, 0.5 * np.einsum("sjd,sjd->sj", D, D)) / sig
        r2 = R * R - np.einsum("si,si->s", y, y)
        meet = r2 >= 0.0
        V = Vt[meet]
        centres.append(a0[meet] + np.einsum("si,sid->sd", y[meet], V))
        radii.append(np.sqrt(r2[meet]))
        span, normal = np.zeros((len(V), n - 1, n)), np.zeros((len(V), n, n))
        span[:, : k - 1] = V
        # the last n - k + 1 rows of a full orthonormal basis around V_S
        normal[:, : n - k + 1] = np.linalg.svd(V, full_matrices=True)[2][:, k - 1 :]
        spans.append(span)
        normals.append(normal)
    parts = [np.concatenate(p) for p in (centres, radii, spans, normals)]
    parts = [_read_only(np.ascontiguousarray(np.moveaxis(p, 0, -1))) for p in parts]
    return SphereLattice(*parts, balls=m)


def _candidates(L: SphereLattice, X: np.ndarray, mode: str):
    """The candidates of :func:`_extreme_points` on lattice L for the rows
    of X, coordinates first, (n, N, spheres) or (n, N, 2 spheres) in
    farthest mode, and whether each lies in the body within
    ``MEMBERSHIP_SLACK`` R, (N, spheres) or (N, 2 spheres)."""
    C = L.centre_rows
    Xt = X.T[:, :, None]
    if mode == "farthest":
        v = Xt - C
        z = [_dot(basis, v) for basis in L.normal_rows]
        norm = _norm(z)
        axis = norm <= L.axis_tol
        scale = np.where(axis, 1.0, norm)
        z = [np.where(axis, float(j == 0), zj) / scale for j, zj in enumerate(z)]
        ru = L.radii * _combination(z, L.normal_rows)
        cand = np.concatenate([C + ru, C - ru], axis=2)
    else:
        w = Xt - C if mode == "nearest" else Xt
        span = L.span_rows
        w = w - _combination([_dot(basis, w) for basis in span], span)
        norm = _norm(w)
        unit = np.divide(w, norm, out=np.zeros(w.shape), where=norm > 0.0)
        cand = C + L.radii * unit
    # contains_many's membership rule, of every candidate against every
    # center: the largest distance is within the limit exactly when all are
    d = _norm(cand[:, None] - L.candidate_balls)
    return cand, d.max(axis=0) <= L.limit


def _picks(L: SphereLattice, X: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_extreme_points`' candidate picks for every row of X, in blocks
    of at most ``_BLOCK_ROWS`` candidate-center pairs."""
    points, scores = np.empty(X.shape), np.empty(len(X))
    per_row = len(L.radii) * (2 if mode == "farthest" else 1) * L.balls
    for rows in _blocks(len(X), per_row):
        Y = X[rows]
        cand, feasible = _candidates(L, Y, mode)
        Yt = Y.T[:, :, None]
        if mode == "support":
            score = np.where(feasible, _dot(cand, Yt), -np.inf)
        else:
            score = np.where(feasible, _norm(cand - Yt), np.inf if mode == "nearest" else -np.inf)
        pick = score.argmin(axis=1) if mode == "nearest" else score.argmax(axis=1)
        i = np.arange(len(Y))
        points[rows] = cand[:, i, pick].T
        scores[rows] = score[i, pick]
    return points, scores


def _require_finite(X: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first row of X that is not finite, if any."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the query, {X[bad[0]].tolist()}, is not finite")


# Rows whose coordinates are all below this in magnitude, on a body whose
# radius is too, give no numpy warning: every offset from a candidate or a
# center stays below 4e150, so its squares sum to well below the float range
_MODEST = 1e150


def _resolve(L: SphereLattice, W: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_extreme_points`' picks and scores on lattice L, with the
    nearest-mode membership pass (see there)."""
    if mode != "nearest":
        return _picks(L, W, mode)
    points, scores = W.copy(), np.zeros(len(W))
    for rows in _blocks(len(W), L.balls):
        X = W[rows]
        inside = _within(X, L.query_balls, L.limit)
        k = np.count_nonzero(inside)
        if k == 0:
            points[rows], scores[rows] = _picks(L, X, mode)
        elif k < len(X):
            outside = rows.start + np.flatnonzero(~inside)
            points[outside], scores[outside] = _picks(L, W[outside], mode)
    return points, scores


def _extreme_points(body: BallBody, W: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point, support point or farthest point of the body per row of W.

    The candidates lie on the intersection spheres of the body's cached
    :class:`SphereLattice`. In ``"nearest"`` mode the rows of W are query
    points x, and each sphere gives c_S + r_S w/|w| with w the part
    orthogonal to V_S of x - c_S. In ``"support"`` mode the rows are
    nonzero directions u (:func:`support_value`, the mode's one caller,
    refuses a zero row by name), and w is the part of u orthogonal to V_S. In
    ``"farthest"`` mode the rows are points c, and each sphere gives both
    c_S + r_S u and c_S - r_S u, with u the unit direction of c - c_S
    within V_S's complement, taken from its coordinates in the complement
    basis so that each candidate lies on its sphere to rounding. When that
    component is at most a few ulp R, c is on the sphere's axis, every
    point of the sphere is equally far from it, and u is the first
    complement basis vector.

    By KKT and Caratheodory the nearest point p of the body to an exterior
    x satisfies x - p = sum_S lambda_i (p - a_i) with lambda >= 0 on such a
    subset, so p is the nearest point of the intersection of the subset's
    balls, hence of their intersection sphere: it is that subset's
    candidate. The support point along u is its subset's candidate for the
    same reason. A farthest point x of the body from c satisfies
    x - c = sum_S lambda_i (x - a_i) with lambda >= 0, so the part of x - c_S
    orthogonal to V_S is parallel to that of c - c_S, of either sign: x is
    one of its subset's two candidates, or, when c is on the axis, as far
    as each of them.

    A candidate is feasible when it lies in the body within
    ``MEMBERSHIP_SLACK`` R, by :func:`contains_many`'s rule. Returns per row
    the first feasible candidate of least distance to x (nearest), of
    greatest <p, u> (support) or of greatest distance to c (farthest), (N, n),
    and that distance or <p, u>, (N,); inf, -inf or -inf and the first
    candidate when none is feasible. In nearest mode a row x that lies in
    the body, by the same rule, is its own nearest point, at distance 0.0,
    and pays for no candidates. Distances and <p, u> are summed as in
    :func:`_norm` and :func:`_dot`.

    A row that is not finite gets no finite score and raises
    ``ValueError`` naming it; so does a finite row whose squared distances
    overflow (coordinates beyond about 1e154), which would otherwise get no
    feasible candidate and come back as the first one. The rows are
    scanned only when a score is not finite, so finite queries pay for no
    separate scan. Neither kind of row raises a numpy warning on the way.

    In nearest mode the rows go in blocks of at most ``_BLOCK_ROWS``
    point-center pairs, and each block is resolved in one pass: its
    membership first, against the lattice's cached views, then candidates
    for its exterior rows only, the whole block with no gather or scatter
    when every row is exterior. Candidates go in blocks of at most
    ``_BLOCK_ROWS`` candidate-center pairs, each reduced to its picks
    before the next, so memory is fixed by the block size and the output,
    whatever N.
    """
    L = body._lattice
    # A row that is not finite, or whose squares overflow, is named below,
    # not warned about on the way. One modest query row, the common case,
    # is told apart, and its score checked, in Python floats, which costs
    # less than np.errstate and np.isfinite (a NaN, which max may pass
    # over, warns nowhere)
    if len(W) == 1 and L.limit < _MODEST and max(map(abs, W[0].tolist())) < _MODEST:
        points, scores = _resolve(L, W, mode)
        if math.isfinite(scores[0]):
            return points, scores
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            points, scores = _resolve(L, W, mode)
    if not np.isfinite(scores).all():
        _require_finite(W)
        i = int(np.argmin(np.isfinite(scores)))
        raise ValueError(
            f"row {i} of the query, {W[i].tolist()}, is too large: its squared distances overflow"
        )
    return points, scores


def farthest_point(body: Body, x) -> np.ndarray:
    """Farthest point of the body from a point, or from each row of an
    (N, n) batch.

    A ball body's farthest point is :func:`_extreme_points`' pick in
    farthest mode, exact up to rounding. A halfspace body's is its farthest
    vertex, from :func:`_halfspace_vertices`, with no scipy; a halfspace
    body whose faces bound no polytope raises :class:`BracketFailure`. A
    point with a coordinate that is not finite raises ``ValueError``
    naming its row, and so does a point of a ball body whose squared
    distances overflow.
    """
    X, single = _as_rows(x, body.dim)
    if isinstance(body, BallBody):
        out, _ = _extreme_points(body, X, "farthest")
    else:
        _require_finite(X)
        vertices = _halfspace_vertices(body)
        out = vertices[np.argmax(_norm(vertices.T[:, None, :] - X.T[:, :, None]), axis=1)]
    return out[0] if single else out


def _halfspace_vertices(body: HalfspaceBody) -> np.ndarray:
    """Vertices of a halfspace body, (V, n): where each n of its k faces
    meet (pairs in 2D, triples in 3D), kept when the point lies in the body
    by :func:`contains_many`'s rule. A body has
    few faces, so all C(k, n) subsets are solved at once.

    A subset whose determinant is within 4 n^2 eps of 0 is skipped: its
    normals are unit vectors, so that is the rounding of the determinant
    of a singular one, and its faces meet, if at all, beyond any vertex
    the slack could keep. The faces bound a polytope exactly when they
    admit no unbounded direction. Such a direction d has <n_k, d> <= 0 for
    every face, and if one exists an extreme one does: the null direction
    of n - 1 of the normals (their generalized cross product, with
    cofactors for coordinates), of either sign. So every such direction is
    tested, within the same rounding, and a body with one, or with no
    vertex at all, raises :class:`BracketFailure` naming it.
    """
    normals, offsets = body.normals, body.offsets
    n, faces = body.dim, range(len(offsets))
    tiny = 4.0 * n * n * np.finfo(float).eps
    minors = normals[_subsets(faces, n - 1)]
    rays = np.stack([(-1.0) ** c * np.linalg.det(np.delete(minors, c, axis=2)) for c in range(n)], axis=1)
    lengths = np.linalg.norm(rays, axis=1)
    rays = rays[lengths > tiny] / lengths[lengths > tiny, None]
    rays = np.concatenate([rays, -rays])
    unbounded = np.flatnonzero(np.max(rays @ normals.T, axis=1) <= tiny)
    if unbounded.size:
        raise BracketFailure(
            f"the halfspace body's faces bound no polytope: it is unbounded along {rays[unbounded[0]].tolist()}"
        )
    subsets = _subsets(faces, n)
    A = normals[subsets]
    solvable = np.abs(np.linalg.det(A)) > tiny
    vertices = np.linalg.solve(A[solvable], offsets[subsets[solvable]][..., None])[..., 0]
    vertices = vertices[contains_many(body, vertices)]
    if not len(vertices):
        raise BracketFailure(f"the halfspace body's faces bound no polytope: no {n} of them meet in a vertex")
    return vertices


def _subsets(items, size: int) -> np.ndarray:
    """Every ``size``-subset of ``items`` as a row, in lexicographic order."""
    rows = list(combinations(items, size))
    return np.array(rows, dtype=np.int64).reshape(len(rows), size)


def support_value(body: BallBody, direction):
    """Support function max{<u, x> : x in body} along one direction or an
    (N, n) batch of them (normalized first).

    Exact up to rounding: the support point is the candidate of its active
    subset (see :func:`_extreme_points`), so the largest <u, p> over the
    feasible candidates attains the maximum. A guard of 1e-12 R on top
    makes the value a certified upper bound. A nonzero direction whose
    squared length underflows or overflows is divided by its largest
    |coordinate| first. A zero direction or one with a coordinate that is
    not finite raises ``ValueError``, naming its row in a batch, and a
    body other than a ball body :class:`NotBallBody`.
    """
    _require_ball(body, "the support function")
    U, single = _as_rows(direction, body.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norm(U.T)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        _require_finite(U)
        # only the rows that underflow or overflow are rescaled: the others
        # are divided by 1.0 and keep their bits
        top = np.max(np.abs(U), axis=1)
        U = U / np.where(((norms == 0.0) | (norms == np.inf)) & (top > 0.0), top, 1.0)[:, None]
        norms = _norm(U.T)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError("direction must be nonzero" if single else f"direction {zero[0]} is zero")
    _, reach = _extreme_points(body, U / norms[:, None], "support")
    h = reach + 1e-12 * body.radius
    return float(h[0]) if single else h


def diameter(body: BallBody) -> float:
    """Certified upper bound on the diameter of the body.

    Scans antipodal support values over a fixed grid (256 directions in 2D,
    the level-3 icosphere in 3D), inflates the grid maximum by the
    covering-angle secant (which dominates the true diameter for any convex
    set), and caps at 2R, an unconditional bound since the body sits inside
    each generating ball. Outside dims 2 and 3 there is no grid with a
    certified covering angle, and the 2R cap is returned. A body other than
    a ball body raises :class:`NotBallBody`.
    """
    _require_ball(body, "the diameter bound")
    if body.dim == 2:
        dirs = grids.circle_directions(256)
        cover = grids.circle_covering_angle(256)
    elif body.dim == 3:
        dirs, _ = grids.icosphere(3)
        cover = grids.icosphere_covering_angle(3)
    else:
        return 2.0 * body.radius
    h = support_value(body, np.vstack([dirs, -dirs]))
    breadth = float(np.max(h[: len(dirs)] + h[len(dirs) :]))
    return float(min(breadth / np.cos(cover), 2.0 * body.radius))


# ---------------------------------------------------------------------------
# JSON schemas
#
#   BallBody:      {"dim": n, "radius": R, "centers": [[...], ...]}
#   HalfspaceBody: {"halfspaces": [{"normal": [...], "offset": o}, ...]}
# ---------------------------------------------------------------------------

def body_from_json(data: Union[str, dict]) -> Body:
    """Parse a body from its JSON object (or JSON text).

    Parsing is strict: any violated invariant raises :class:`InvalidBody`
    with a diagnostic naming the invariant.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise InvalidBody(f"not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise InvalidBody("body JSON must be an object")

    if "halfspaces" in data:
        hs = data["halfspaces"]
        if not isinstance(hs, list) or not hs:
            raise InvalidBody("halfspaces must be a nonempty list")
        try:
            normals = [h["normal"] for h in hs]
            offsets = [h["offset"] for h in hs]
        except (TypeError, KeyError) as e:
            raise InvalidBody("each halfspace needs 'normal' and 'offset'") from e
        return HalfspaceBody(normals=normals, offsets=offsets)

    missing = {"dim", "radius", "centers"} - set(data)
    if missing:
        raise InvalidBody(f"body JSON missing fields: {sorted(missing)}")
    return BallBody(radius=data["radius"], centers=data["centers"], dim=data["dim"])


def body_to_json(body: Body) -> dict:
    if isinstance(body, BallBody):
        return {
            "dim": body.dim,
            "radius": body.radius,
            "centers": body.centers.tolist(),
        }
    return {
        "halfspaces": [
            {"normal": n.tolist(), "offset": float(o)}
            for n, o in zip(body.normals, body.offsets)
        ]
    }
