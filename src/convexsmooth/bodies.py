"""Body representations and containment/diameter primitives.

The central type is :class:`BallBody`, a compact body given as the
intersection of finitely many closed balls of one common radius, with the
origin in its interior. :class:`HalfspaceBody` is the polyhedral
counterpart used as a negative fixture: its flat faces violate the
rolling-ball property that the certificates check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import Union

import numpy as np

from . import grids
from .errors import InvalidBody

# Absolute slack on |x - a_i| - R for membership tests. Computed boundary
# points land within rounding (closed-form radii, projections) or solver
# tolerance (ridge-tube radii) of the sphere.
MEMBERSHIP_SLACK = 1e-12

# Slack, relative to R or to the largest offset, of outward_normal's active
# set: the rounding scale of MEMBERSHIP_SLACK. A wider set takes in spheres
# that are not active, and near-coincident balls, all "active" within a
# wide slack, would average to a normal outside the normal cone.
NORMAL_ATOL = 1e-12


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    return v


def _as_rows(x, dim: int) -> tuple[np.ndarray, bool]:
    """One vector or an (N, dim) batch as rows, and whether it was one vector."""
    v = np.asarray(x, dtype=float)
    rows = np.atleast_2d(v)
    if v.ndim > 2 or rows.shape[1] != dim:
        raise ValueError(f"expected vectors of length {dim}, got shape {v.shape}")
    return rows, v.ndim == 1


def _frozen_array(value) -> np.ndarray:
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    return arr


_FIELD_SHAPES = ("a number", "a list of numbers", "a list of equal-length lists of numbers")


def _finite_array(value, name: str, ndim: int) -> np.ndarray:
    """A body field as a float array of ``ndim`` axes (one axis fewer counts
    as a single row), every entry finite; anything else raises
    :class:`InvalidBody` naming the field."""
    expected = f"{name} must be {_FIELD_SHAPES[ndim]}"
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
        object.__setattr__(self, "center", _frozen_array(self.center))
        object.__setattr__(self, "radius", float(_finite_array(self.radius, "ball radius", 0)))
        if self.center.ndim != 1:
            raise InvalidBody("ball center must be a vector")
        if not np.all(np.isfinite(self.center)):
            raise InvalidBody("ball center must be finite")
        if not self.radius > 0:
            raise InvalidBody("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class BallBody:
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
        object.__setattr__(self, "centers", _frozen_array(centers))
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

    def balls(self) -> list[Ball]:
        return [Ball(c, self.radius) for c in self.centers]


@dataclass(frozen=True)
class HalfspaceBody:
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
        object.__setattr__(self, "normals", _frozen_array(normals))
        object.__setattr__(self, "offsets", _frozen_array(offsets))
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


@dataclass(frozen=True)
class NormalLift:
    """Unit outward normal (xi, -1)/sqrt(1+|xi|^2) to an epigraph."""

    xi: np.ndarray
    lift: np.ndarray


def normal_lift(xi) -> NormalLift:
    """Lift a subgradient to the unit outward epigraph normal.

    The lift is (xi, -1)/sqrt(1 + |xi|^2): a unit vector whose last
    coordinate is strictly negative.
    """
    xi = _as_vector(xi)
    scale = 1.0 / np.sqrt(1.0 + float(xi @ xi))
    lift = np.append(xi, -1.0) * scale
    return NormalLift(xi=xi, lift=lift)


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


def contains(body: Body, x) -> bool:
    """Membership test with absolute slack ``MEMBERSHIP_SLACK``: the
    :func:`contains_many` row of a batch of one."""
    return bool(contains_many(body, _as_vector(x, body.dim)[None, :])[0])


def contains_many(body: Body, points: np.ndarray) -> np.ndarray:
    """Vectorized membership for an (N, dim) array of points."""
    pts = np.asarray(points, dtype=float)
    if isinstance(body, BallBody):
        d = np.linalg.norm(pts[:, None, :] - body.centers[None, :, :], axis=2)
        return np.all(d <= body.radius + MEMBERSHIP_SLACK, axis=1)
    return np.all(_row_dots(pts, body.normals) - body.offsets <= MEMBERSHIP_SLACK, axis=1)


def outward_normal(body: Body, y) -> np.ndarray:
    """Outward unit normal at a boundary point, or at each row of an (N, n)
    batch of them.

    At smooth points this is the active constraint's normal. At ridge
    points (several constraints active within ``NORMAL_ATOL``) it is the
    normalized average of the active normals, which lies in the normal
    cone; any such selection supports the body. Each row of a batch equals the normal of
    that point alone, bit for bit.
    """
    Y, single = _as_rows(y, body.dim)
    if isinstance(body, BallBody):
        diff = Y[:, None, :] - body.centers
        d = np.linalg.norm(diff, axis=2)
        active = np.abs(d - body.radius) <= NORMAL_ATOL * body.radius
        active |= ~np.any(active, axis=1, keepdims=True) & (
            d >= np.max(d, axis=1, keepdims=True) - NORMAL_ATOL * body.radius
        )
        terms = diff / body.radius
    else:
        slack = body.offsets - _row_dots(Y, body.normals)
        scale = NORMAL_ATOL * np.max(body.offsets)
        active = np.abs(slack) <= scale
        active |= ~np.any(active, axis=1, keepdims=True) & (
            slack <= np.min(slack, axis=1, keepdims=True) + scale
        )
        terms = body.normals
    n = np.sum(np.where(active[..., None], terms, 0.0), axis=1)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("degenerate normal cone selection")
    n /= norm
    return n[0] if single else n


@dataclass(frozen=True, eq=False)
class SphereLattice:
    """The intersection spheres of a ball body, one row per sphere.

    Every affinely independent subset S of at most n centers whose spheres
    meet cuts out an intersection sphere: centre c_S (the circumcentre of
    a_S), radius r_S = sqrt(R^2 - |c_S - a_0|^2), lying in the affine plane
    through c_S orthogonal to V_S = span(a_j - a_0). ``span`` holds
    orthonormal rows of V_S and ``normal`` orthonormal rows of its
    orthogonal complement, each padded with zero rows, (S, n - 1, n) and
    (S, n, n). Singletons come first, as the balls themselves. Subsets
    whose differences a_j - a_0 have a singular value at most 1e-14 R are
    skipped. Every array is read-only.
    """

    centres: np.ndarray
    radii: np.ndarray
    span: np.ndarray
    normal: np.ndarray


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
        centres.append(a0[meet] + np.einsum("si,sid->sd", y[meet], Vt[meet]))
        radii.append(np.sqrt(r2[meet]))
        spans.append(np.pad(Vt[meet], ((0, 0), (0, n - k), (0, 0))))
        # the last n - k + 1 rows of a full orthonormal basis around V_S
        perp = np.linalg.svd(Vt[meet], full_matrices=True)[2][:, k - 1 :]
        normals.append(np.pad(perp, ((0, 0), (0, k - 1), (0, 0))))
    parts = [np.concatenate(p) for p in (centres, radii, spans, normals)]
    for arr in parts:
        arr.setflags(write=False)
    return SphereLattice(*parts)


def _extreme_points(body: BallBody, W: np.ndarray, mode: str):
    """Nearest-point, support-point or farthest-point candidates per row of W.

    The candidates lie on the intersection spheres of the body's cached
    :class:`SphereLattice`. In ``"nearest"`` mode the rows of W are query
    points x, and each sphere gives c_S + r_S w/|w| with w the part
    orthogonal to V_S of x - c_S. In ``"support"`` mode the rows are
    directions u, and w is the part of u orthogonal to V_S. In
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
    as each of them. Returns the candidates, (N, spheres, n) or
    (N, 2 spheres, n) in farthest mode, and whether each lies in the body
    within ``MEMBERSHIP_SLACK``, of the same leading shape.
    """
    R, A = body.radius, body.centers
    L = body._lattice
    C, r = L.centres, L.radii
    if mode == "farthest":
        z = np.einsum("sjd,nsd->nsj", L.normal, W[:, None, :] - C)
        norm = np.linalg.norm(z, axis=2, keepdims=True)
        axis = norm <= 4.0 * np.finfo(float).eps * R
        z = np.where(axis, np.eye(A.shape[1])[0], z)
        u = np.einsum("nsj,sjd->nsd", z / np.where(axis, 1.0, norm), L.normal)
        cand = np.concatenate([C + r[:, None] * u, C - r[:, None] * u], axis=1)
    else:
        w = W[:, None, :] - C if mode == "nearest" else np.repeat(W[:, None, :], len(C), axis=1)
        w -= np.einsum("sjd,nsj->nsd", L.span, np.einsum("sjd,nsd->nsj", L.span, w))
        norm = np.linalg.norm(w, axis=2, keepdims=True)
        unit = np.divide(w, norm, out=np.zeros_like(w), where=norm > 0.0)
        cand = C + r[:, None] * unit
    # the membership test of contains_many, one center at a time to keep
    # memory at the size of cand
    feasible = np.all(
        [np.linalg.norm(cand - a, axis=2) <= R + MEMBERSHIP_SLACK for a in A], axis=0
    )
    return cand, feasible


def farthest_point(body: Body, x) -> np.ndarray:
    """Farthest point of the body from a point, or from each row of an
    (N, n) batch.

    A ball body's farthest point is the farthest feasible candidate of
    :func:`_extreme_points` in farthest mode, exact up to rounding. A
    halfspace body's is its farthest vertex, from scipy's
    ``HalfspaceIntersection``; the body must be bounded.
    """
    X, single = _as_rows(x, body.dim)
    if isinstance(body, BallBody):
        cand, feasible = _extreme_points(body, X, "farthest")
    else:
        # imported here, so that importing the package loads no scipy
        from scipy.spatial import HalfspaceIntersection

        halfspaces = np.column_stack([body.normals, -body.offsets])
        vertices = HalfspaceIntersection(halfspaces, np.zeros(body.dim)).intersections
        cand = np.broadcast_to(vertices, (len(X),) + vertices.shape)
        feasible = np.ones(cand.shape[:2], dtype=bool)
    dist = np.where(feasible, np.linalg.norm(cand - X[:, None, :], axis=2), -np.inf)
    out = cand[np.arange(len(X)), np.argmax(dist, axis=1)]
    return out[0] if single else out


def support_value(body: BallBody, direction):
    """Support function max{<u, x> : x in body} along one direction or an
    (N, n) batch of them (normalized first).

    Exact up to rounding: the support point is the candidate of its active
    subset (see :func:`_extreme_points`), so the largest <u, p> over the
    feasible candidates attains the maximum. A guard of 1e-12 R on top
    makes the value a certified upper bound. A zero direction raises
    ``ValueError``, naming its row in a batch.
    """
    U, single = _as_rows(direction, body.dim)
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    zero = np.flatnonzero(norms[:, 0] == 0.0)
    if zero.size:
        raise ValueError("direction must be nonzero" if single else f"direction {zero[0]} is zero")
    U = U / norms
    cand, feasible = _extreme_points(body, U, "support")
    reach = np.where(feasible, np.einsum("nsd,nd->ns", cand, U), -np.inf)
    h = np.max(reach, axis=1) + 1e-12 * body.radius
    return float(h[0]) if single else h


def diameter(body: BallBody) -> float:
    """Certified upper bound on the diameter of the body.

    Scans antipodal support values over a fixed grid (256 directions in 2D,
    the level-3 icosphere in 3D), inflates the grid maximum by the
    covering-angle secant (which dominates the true diameter for any convex
    set), and caps at 2R, an unconditional bound since the body sits inside
    each generating ball. Outside dims 2 and 3 there is no grid with a
    certified covering angle, and the 2R cap is returned.
    """
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
