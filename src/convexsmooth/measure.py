"""Star-shaped boundary meshes and surface-measure bookkeeping.

Every body handled here is star-shaped about the origin, so its boundary
is parametrized by a direction grid: one radius per direction, segments
between consecutive directions in 2D, icosphere triangles in 3D. Radii
come in closed form (:func:`radial_function`): the body gauge is
1-homogeneous, so a ball body's boundary sits at 1/mu(u) along u, and a
halfspace body's at the nearest face. Facet sums give the boundary
measure; comparing two meshes on a shared grid (radius matching plus
per-facet agreement flags) gives the measure of the symmetric difference
of the two boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import _text, grids
from .bodies import BallBody, HalfspaceBody, outward_normal
from .errors import BracketFailure, GridMismatch, InvalidBody
from .gauge import body_gauge_values


@dataclass(frozen=True)
class BoundaryMesh:
    """Radial boundary discretization over a fixed direction grid.

    ``agreement`` flags, one per facet, mark facets whose vertices and
    centroid all lie outside the blend tube of the smoothed body the mesh
    came from (plain bodies carry all-True flags).
    """

    dim: int
    directions: np.ndarray
    radii: np.ndarray
    facets: np.ndarray
    agreement: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in ("directions", "radii", "facets"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.agreement is None:
            object.__setattr__(
                self, "agreement", np.ones(len(self.facets), dtype=bool)
            )
        agreement = np.asarray(self.agreement, dtype=bool)
        agreement.setflags(write=False)
        object.__setattr__(self, "agreement", agreement)
        if not np.all(np.isfinite(self.radii) & (self.radii > 0)):
            raise ValueError("mesh radii must be finite and positive")

    @cached_property
    def points(self) -> np.ndarray:
        return self.radii[:, None] * self.directions

    @cached_property
    def facet_centroids(self) -> np.ndarray:
        return facet_centroids(self.points, self.facets)

    @cached_property
    def facet_measures(self) -> np.ndarray:
        return facet_measures(self.points, self.facets)


def _facet_corners(points: np.ndarray, facets: np.ndarray) -> list[np.ndarray]:
    """Corner points of every facet, one (..., F, n) array per corner, for
    vertex points of shape (..., N, n)."""
    return [np.take(points, facets[:, j], axis=-2) for j in range(facets.shape[1])]


def facet_centroids(points: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Facet centroids (..., F, n) for vertex points of shape (..., N, n):
    corners summed in order, then divided by their count, as np.mean does."""
    corners = _facet_corners(points, facets)
    return sum(corners[1:], corners[0]) / len(corners)


def facet_measures(points: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Facet lengths (2D) or areas (3D) for vertex points of shape (..., N, n).

    Leading axes batch several meshes over one facet array; each mesh's
    measures are those it gets alone, bit for bit. The cross product and
    the norm are written out coordinate by coordinate, which rounds as
    np.cross and np.linalg.norm do.
    """
    p0, p1, *rest = _facet_corners(points, facets)
    e1 = p1 - p0
    if not rest:
        return np.sqrt(e1[..., 0] * e1[..., 0] + e1[..., 1] * e1[..., 1])
    e2 = rest[0] - p0
    c0 = e1[..., 1] * e2[..., 2] - e1[..., 2] * e2[..., 1]
    c1 = e1[..., 2] * e2[..., 0] - e1[..., 0] * e2[..., 2]
    c2 = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    return 0.5 * np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


# Dimensions with a direction grid, hence with meshes and boundary samples.
MESH_DIMS = (2, 3)

# Mesh resolution when none is given: directions in 2D, icosphere level in 3D.
_DEFAULT_RESOLUTION = {2: 1024, 3: 4}


def check_mesh_dim(dim: int) -> None:
    """Raise :class:`InvalidBody` unless meshing supports ``dim``."""
    if dim not in MESH_DIMS:
        raise InvalidBody(
            f"meshing supports dim {' and '.join(map(str, MESH_DIMS))} only, got dim {dim}"
        )


def direction_grid(dim: int, resolution: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Unit direction grid and facet index array for the given dimension.

    2D resolution counts directions (>= 16); 3D resolution is the icosphere
    subdivision level (>= 2). None takes the default: 1024 directions in
    2D, icosphere level 4 in 3D. Other dimensions raise
    :class:`InvalidBody`.
    """
    check_mesh_dim(dim)
    if resolution is None:
        resolution = _DEFAULT_RESOLUTION[dim]
    if dim == 2:
        if resolution < 16:
            raise ValueError("2D resolution must be >= 16 directions")
        return grids.circle_directions(resolution), grids.circle_facets(resolution)
    if resolution < 2:
        raise ValueError("3D resolution (icosphere level) must be >= 2")
    return grids.icosphere(resolution)


def sample_directions(dim: int, samples: int) -> tuple[np.ndarray, float]:
    """Directions for a number of boundary samples, and their covering angle.

    2D takes max(samples, 4) evenly spaced directions, covering angle
    pi/count; 3D the smallest icosphere with at least ``samples`` vertices,
    with that icosphere's covering angle. Every unit vector lies within the
    covering angle of some direction. The sampled certificates and the
    probe use this grid; other dimensions raise :class:`InvalidBody`.
    """
    check_mesh_dim(dim)
    if dim == 2:
        count = max(int(samples), 4)
        return grids.circle_directions(count), grids.circle_covering_angle(count)
    level = grids.icosphere_level_for(int(samples))
    return grids.icosphere(level)[0], grids.icosphere_covering_angle(level)


def radial_function(body, directions: np.ndarray) -> np.ndarray:
    """Boundary radius of a body along each unit direction, in closed form.

    A ball body's gauge is 1-homogeneous, so the radius is 1/mu(u), with
    mu from :func:`convexsmooth.gauge.body_gauge_values` (one member at a
    time). A halfspace body's is the nearest face, min offset/<normal, u>
    over the faces the ray meets (<normal, u> > 1e-14), taken as a running
    minimum one face at a time over every direction. The work loops over
    the few members or faces and is vectorized over the many directions,
    so memory stays a small multiple of the result, apart from the (k, N)
    face denominators. Raises :class:`BracketFailure` when a halfspace
    body is unbounded along some direction.
    """
    dirs = np.asarray(directions, dtype=float)
    if isinstance(body, BallBody):
        return 1.0 / body_gauge_values(body, dirs)
    if isinstance(body, HalfspaceBody):
        radii = np.full(len(dirs), np.inf)
        with np.errstate(divide="ignore"):
            for offset, d in zip(body.offsets, body.normals @ dirs.T):
                np.minimum(radii, np.where(d > 1e-14, offset / d, np.inf), out=radii)
        if not np.all(np.isfinite(radii)):
            raise BracketFailure("halfspace body is unbounded along some ray")
        return radii
    raise TypeError(f"no radial function for a {type(body).__name__}")


def boundary_samples(body, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points along a direction grid and an outward normal at each.

    The directions are those of :func:`sample_directions`. Star-shapedness
    about the origin makes the radial points exhaustive; ridge and corner
    points take the normalized average of their active constraints'
    normals, a valid selection in the normal cone.
    """
    dirs, _ = sample_directions(body.dim, samples)
    pts = radial_function(body, dirs)[:, None] * dirs
    return pts, outward_normal(body, pts)


def batch_ray_crossings(
    level_fn: Callable[[np.ndarray], np.ndarray],
    directions: np.ndarray,
    level,
    max_radius: float,
) -> np.ndarray:
    """Crossing radius per direction for a coercive sublevel function.

    Bisection on every ray at once. Meshing does not use it, since its
    radii have closed forms; it stays as the reference the closed forms
    are tested against. ``level_fn`` maps an (N, n) stack of points to
    (N,) values; it must be below ``level`` at the origin and at or above
    it by ``max_radius`` along every ray, otherwise :class:`BracketFailure`
    is raised.
    """
    dirs = np.asarray(directions, dtype=float)
    n = dirs.shape[0]
    level = np.broadcast_to(np.asarray(level, dtype=float), (n,))
    lo = np.zeros(n)
    hi = np.full(n, float(max_radius))
    if np.any(level_fn(hi[:, None] * dirs) < level):
        raise BracketFailure(
            f"no level crossing below radius {max_radius:g} along some ray"
        )
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = level_fn(mid[:, None] * dirs) < level
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max((hi - lo) / np.maximum(hi, 1e-300)) < 1e-15:
            break
    return 0.5 * (lo + hi)


def boundary_mesh(source, resolution: int | None) -> BoundaryMesh:
    """Mesh the boundary of a body or of a smoothed body.

    BallBody and HalfspaceBody radii come from :func:`radial_function`.
    A smoothed body is meshed as the level set h = 1 of its blended gauge,
    which is its boundary; off the blend tube its radii are 1/mu(u), the
    original body's to the bit, and its facets carry agreement flags.
    ``resolution`` is that of :func:`direction_grid`, whose default None
    takes.
    """
    from .smooth import SmoothedBody, blended_level_mesh  # local: avoid cycle

    if isinstance(source, SmoothedBody):
        return blended_level_mesh(source.gauge, 1.0, resolution)
    if not isinstance(source, (BallBody, HalfspaceBody)):
        raise TypeError(f"cannot mesh a {type(source).__name__}")
    dirs, facets = direction_grid(source.dim, resolution)
    radii = radial_function(source, dirs)
    return BoundaryMesh(dim=source.dim, directions=dirs, radii=radii, facets=facets)


def hausdorff_measure(mesh: BoundaryMesh, which: str = "all") -> float:
    """Total facet measure, optionally restricted by agreement flag."""
    if which == "all":
        mask = slice(None)
    elif which == "agree":
        mask = mesh.agreement
    elif which == "disagree":
        mask = ~mesh.agreement
    else:
        raise ValueError("filter must be 'all', 'agree' or 'disagree'")
    return float(np.sum(mesh.facet_measures[mask]))


def _symdiff_masks(
    w_mesh: BoundaryMesh, we_mesh: BoundaryMesh
) -> tuple[np.ndarray, np.ndarray]:
    if w_mesh.dim != we_mesh.dim or not np.array_equal(
        w_mesh.directions, we_mesh.directions
    ) or not np.array_equal(w_mesh.facets, we_mesh.facets):
        raise GridMismatch("meshes do not share a direction grid")
    vertex_diff = np.abs(w_mesh.radii - we_mesh.radii) > 1e-10 * float(np.max(w_mesh.radii))
    return vertex_diff[w_mesh.facets].any(axis=1), ~we_mesh.agreement


def _two_sided_measure(
    w_mesh: BoundaryMesh, we_mesh: BoundaryMesh, mask: np.ndarray
) -> float:
    return float(
        np.sum(w_mesh.facet_measures[mask]) + np.sum(we_mesh.facet_measures[mask])
    )


def symmetric_difference_measure(w_mesh: BoundaryMesh, we_mesh: BoundaryMesh) -> float:
    """Measure of the symmetric difference of two meshed boundaries.

    Both meshes must share the direction grid. A facet contributes (once
    per mesh) when its radii differ by more than 1e-10 times the largest
    radius at any vertex or when the smoothed mesh flags it as disagreeing;
    coincidence of the remaining facets is exact by construction of the
    blend, which is what makes the point-set difference meaningful at all.
    """
    by_radius, by_flag = _symdiff_masks(w_mesh, we_mesh)
    return _two_sided_measure(w_mesh, we_mesh, by_radius | by_flag)


def symmetric_difference_breakdown(w_mesh: BoundaryMesh, we_mesh: BoundaryMesh) -> dict:
    """Combined, radius-based and flag-based symmetric-difference measures.

    The two detection routes normally agree; a gap above a percent or so
    means the coincidence tolerance is doing real work and both numbers
    deserve reporting.
    """
    by_radius, by_flag = _symdiff_masks(w_mesh, we_mesh)
    return {
        "combined": _two_sided_measure(w_mesh, we_mesh, by_radius | by_flag),
        "radius_based": _two_sided_measure(w_mesh, we_mesh, by_radius),
        "flag_based": _two_sided_measure(w_mesh, we_mesh, by_flag),
    }


def polyline_json(mesh: BoundaryMesh) -> str:
    """Closed polyline export of a 2D mesh: the JSON text
    {"points": [[x, y], ...]}, byte for byte
    ``json.dumps({"points": mesh.points.tolist()})``."""
    if mesh.dim != 2:
        raise ValueError("polyline export is for 2D meshes")
    rows = list(_text.table_blocks(mesh.points, _text.float_cells, ("[", ", ", "], ")))
    if rows:
        rows[-1] = rows[-1][:-2]  # the last point closes the list: no ", "
    return "".join(['{"points": [', *rows, "]}"])


def off_text(mesh: BoundaryMesh) -> str:
    """OFF-format export of a 3D mesh: ``OFF``, ``<vertices> <faces> 0``,
    one ``x y z`` line per vertex with each coordinate as ``repr`` writes
    it, then one ``3 i j k`` line per triangle.

    Each vertex index is formatted once, into a per-vertex table of
    NUL-padded cells (:func:`convexsmooth._text.int_cells`), and the face
    rows gather their cells from it a block at a time, each cell moved as
    one fixed-width item. The NUL padding makes the text independent of
    the table's cell width.
    """
    if mesh.dim != 3:
        raise ValueError("OFF export is for 3D meshes")
    index = _text.int_cells(np.arange(len(mesh.points)))
    width = index.shape[-1]
    items = index.view(np.dtype((np.void, width)))[:, 0]

    def face_cells(faces: np.ndarray) -> np.ndarray:
        return items[faces].view(np.uint8).reshape(faces.shape + (width,))

    return "".join(
        [
            f"OFF\n{len(mesh.points)} {len(mesh.facets)} 0\n",
            *_text.table_blocks(mesh.points, _text.float_cells, ("", " ", " ", "\n")),
            *_text.table_blocks(mesh.facets, face_cells, ("3 ", " ", " ", "\n")),
        ]
    )
