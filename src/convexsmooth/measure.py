"""Star-shaped boundary meshes and surface-measure bookkeeping.

Every body handled here is star-shaped about the origin, so its boundary
is parametrized by a direction grid: one radius per direction, segments
between consecutive directions in 2D, icosphere triangles in 3D. Radii
come in closed form (:func:`radial_function`): the body gauge is
1-homogeneous, so a ball body's boundary sits at 1/mu(u) along u, and a
halfspace body's at the nearest face. Facet sums give the boundary
measure. On a shared grid, a facet flagged as disagreeing or with
differing radii counts toward the symmetric difference of two boundaries,
and a smoothed radius over the original one is the smoothed vertex's
body gauge.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from . import _text, grids
from .bodies import BallBody, HalfspaceBody, _as_points, _face_exits, _read_only, outward_normal
from .errors import BracketFailure, GridMismatch, InvalidBody
from .gauge import body_gauge_values


@dataclass(frozen=True)
class BoundaryMesh:
    """Radial boundary discretization over a fixed direction grid.

    ``agreement`` flags, one per facet, mark facets whose vertices and
    centroid all lie outside the blend tube of the smoothed body the mesh
    came from (plain bodies carry all-True flags). Every array, the cached
    ones included, is read-only: meshes are shared. A writeable array
    passed in is copied, so the caller's stays writeable.

    The dimension ``dim`` is derived, the row length d of the (N, d)
    ``directions``. The constructor raises ``ValueError`` naming the array
    unless ``directions`` is (N, d), ``facets`` an integer (F, d) array
    whose indices lie in [0, N), ``radii`` (N,) finite and positive and
    ``agreement`` (F,).
    """

    directions: np.ndarray
    radii: np.ndarray
    facets: np.ndarray
    agreement: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in ("directions", "radii", "facets"):
            object.__setattr__(self, name, _frozen(np.asarray(getattr(self, name))))
        if self.directions.ndim != 2:
            raise ValueError(f"directions must be an (N, d) array, got shape {self.directions.shape}")
        if self.facets.shape[1:] != (self.dim,) or not np.issubdtype(self.facets.dtype, np.integer):
            raise ValueError(
                f"facets must be an integer (F, {self.dim}) array, got {self.facets.dtype} "
                f"of shape {self.facets.shape}"
            )
        if self.facets.size and not 0 <= self.facets.min() <= self.facets.max() < len(self.directions):
            raise ValueError(f"facet indices must lie in [0, {len(self.directions)})")
        flags = np.ones(len(self.facets), dtype=bool) if self.agreement is None else self.agreement
        object.__setattr__(self, "agreement", _frozen(np.asarray(flags, dtype=bool)))
        shapes = (self.radii.shape, self.agreement.shape)
        if shapes != (self.directions.shape[:1], self.facets.shape[:1]):
            raise ValueError("a mesh takes one radius per direction and one flag per facet")
        if not np.all(np.isfinite(self.radii) & (self.radii > 0)):
            raise ValueError("mesh radii must be finite and positive")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @cached_property
    def points(self) -> np.ndarray:
        return _read_only(self.radii[:, None] * self.directions)

    @cached_property
    def facet_centroids(self) -> np.ndarray:
        return _read_only(facet_centroids(self.points, self.facets))

    @cached_property
    def facet_measures(self) -> np.ndarray:
        return _read_only(facet_measures(self.points, self.facets))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only, else a read-only copy of it."""
    return arr if not arr.flags.writeable else _read_only(arr.copy())


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
    np.cross and np.linalg.norm do. Beyond ``_text._BLOCK_ROWS`` facets,
    they are taken a block at a time into one preallocated result, so the
    corner and edge arrays are those of one block; each facet's arithmetic
    is the same in any block.
    """
    step = _text._BLOCK_ROWS
    if len(facets) <= step:
        return _facet_measure_rows(points, facets)
    out = np.empty(points.shape[:-2] + (len(facets),))
    for start in range(0, len(facets), step):
        rows = slice(start, start + step)
        out[..., rows] = _facet_measure_rows(points, facets[rows])
    return out


def _facet_measure_rows(points: np.ndarray, facets: np.ndarray) -> np.ndarray:
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

# Mesh resolution when none is given: directions in 2D, icosphere level in
# 3D; and the finest icosphere level, with 10 * 4^9 + 2 = 2,621,442 vertices.
_DEFAULT_RESOLUTION = {2: 1024, 3: 4}
_MAX_LEVEL_3D = 9


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_sample_count(samples, floor: int = 1, name: str = "samples") -> int:
    """``samples`` as an int, the one check of every sample count.

    Raises ``ValueError`` naming the count: for a real number below a
    ``floor`` above 1 (a bool counts as 0 or 1) "<name> must be >= <floor>",
    and otherwise, unless ``samples`` is a positive integer (a bool is not
    one), "<name> must be positive and an integer". Strings and None are
    refused by the second message.
    """
    if floor > 1 and isinstance(samples, numbers.Real) and samples < floor:
        raise ValueError(f"{name} must be >= {floor}")
    if not (_is_integer(samples) and samples > 0):
        raise ValueError(f"{name} must be positive and an integer, got {samples!r}")
    return int(samples)


def check_mesh_dim(dim: int) -> None:
    """Raise :class:`InvalidBody` unless meshing supports ``dim``."""
    if dim not in MESH_DIMS:
        raise InvalidBody(
            f"meshing supports dim {' and '.join(map(str, MESH_DIMS))} only, got dim {dim}"
        )


def direction_grid(dim: int, resolution: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Unit direction grid and facet index array for the given dimension,
    those of the shared :func:`convexsmooth.grids.grid` record, read-only.

    2D resolution counts directions (>= 16); 3D resolution is the icosphere
    subdivision level (2 to ``_MAX_LEVEL_3D``). None takes the default:
    1024 directions in 2D, icosphere level 4 in 3D. A resolution that is
    not an integer, or out of range, raises ``ValueError`` before any grid
    is built, and other dimensions :class:`InvalidBody`.
    """
    check_mesh_dim(dim)
    if resolution is None:
        resolution = _DEFAULT_RESOLUTION[dim]
    if not _is_integer(resolution):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if dim == 2 and resolution < 16:
        raise ValueError("2D resolution must be >= 16 directions")
    if dim == 3 and not 2 <= resolution <= _MAX_LEVEL_3D:
        raise ValueError(f"3D resolution (icosphere level) must be from 2 to {_MAX_LEVEL_3D}")
    grid = grids.grid(dim, int(resolution))
    return grid.directions, grid.facets


def sample_directions(dim: int, samples: int) -> grids.Grid:
    """The grid of a number of boundary samples, with its covering angle.

    2D takes max(samples, 4) evenly spaced directions, covering angle
    pi/count; 3D the smallest icosphere with at least ``samples`` vertices,
    with that icosphere's covering angle. Every unit vector lies within the
    covering angle of some direction. It is the shared
    :func:`convexsmooth.grids.grid` record, the mesh grid of the same size,
    and the sampled certificates and the probe read their directions,
    facets, adjacency and cover from it. Other dimensions raise
    :class:`InvalidBody`, a count that is not a positive integer
    ``ValueError`` (:func:`check_sample_count`), and so does a 3D count
    above the vertices of icosphere level ``_MAX_LEVEL_3D``, before any
    grid is built.
    """
    check_mesh_dim(dim)
    samples = check_sample_count(samples)
    if dim == 2:
        return grids.grid(2, max(samples, 4))
    level = grids.icosphere_level_for(samples)
    if level > _MAX_LEVEL_3D:
        raise ValueError(f"3D samples must be at most {10 * 4**_MAX_LEVEL_3D + 2}, got {samples}")
    return grids.grid(3, level)


def radial_function(body, directions: np.ndarray) -> np.ndarray:
    """Boundary radius of a body along each unit direction, in closed form.

    A ball body's gauge is 1-homogeneous, so the radius is 1/mu(u), with
    mu from :func:`convexsmooth.gauge.body_gauge_values` (one member at a
    time). A halfspace body's is the nearest face, min offset/<normal, u>
    over the faces the ray meets, by :func:`convexsmooth.bodies._face_exits`
    (a running minimum, one face at a time over every direction). The work
    loops over the few members or faces and is vectorized over the
    directions. Beyond ``_text._BLOCK_ROWS`` of them (along the first axis
    of an (N, ..., n) batch), they are taken a block at a time into one
    preallocated result, so memory beyond the result is a few arrays of one
    block, the (k, block) face denominators included; each direction's
    arithmetic is the same in any block. Raises :class:`BracketFailure`
    when a halfspace body is unbounded along some direction.
    """
    if not isinstance(body, (BallBody, HalfspaceBody)):
        raise TypeError(f"no radial function for a {type(body).__name__}")
    dirs = _as_points(directions, body.dim)
    if isinstance(body, BallBody):
        def kernel(rows):
            return 1.0 / body_gauge_values(body, dirs[rows])
    else:
        def kernel(rows):
            return _face_exits(body.normals, body.offsets, dirs[rows])
    step = _text._BLOCK_ROWS
    if dirs.ndim == 1 or len(dirs) <= step:
        radii = kernel(slice(None))
    else:
        radii = np.empty(dirs.shape[:-1])
        for start in range(0, len(dirs), step):
            rows = slice(start, start + step)
            radii[rows] = kernel(rows)
    if isinstance(body, HalfspaceBody) and not np.all(np.isfinite(radii)):
        raise BracketFailure("halfspace body is unbounded along some ray")
    return radii


def boundary_samples(body, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points along a direction grid and an outward normal at each.

    The directions are those of the :func:`sample_directions` grid of the
    count, in its order, so a certificate reads the samples' facets,
    adjacency and covering angle from that record. Star-shapedness
    about the origin makes the radial points exhaustive; ridge and corner
    points take the normalized average of their active constraints'
    normals, a valid selection in the normal cone.

    The samples are drawn once per body and sample count and cached on the
    body as read-only arrays, so the certificates and the probe of one
    body share one draw. The body is frozen, so the cache cannot go stale,
    and it goes with the body. A count that is not a positive integer (a
    bool is not one) raises ``ValueError``.
    """
    samples = check_sample_count(samples)
    drawn = body._samples.get(samples)
    if drawn is None:
        dirs = sample_directions(body.dim, samples).directions
        pts = _read_only(radial_function(body, dirs)[:, None] * dirs)
        drawn = (pts, _read_only(outward_normal(body, pts)))
        body._samples[samples] = drawn
    return drawn


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
    takes. The grid is the shared read-only record and the radii built
    here are made read-only, so the mesh copies none of them.
    """
    from .smooth import SmoothedBody, blended_level_mesh  # local: avoid cycle

    if isinstance(source, SmoothedBody):
        return blended_level_mesh(source.gauge, resolution)
    if not isinstance(source, (BallBody, HalfspaceBody)):
        raise TypeError(f"cannot mesh a {type(source).__name__}")
    dirs, facets = direction_grid(source.dim, resolution)
    radii = _read_only(radial_function(source, dirs))
    return BoundaryMesh(directions=dirs, radii=radii, facets=facets)


def hausdorff_measure(mesh: BoundaryMesh) -> float:
    """Total facet measure of a mesh: the boundary measure."""
    return float(np.sum(mesh.facet_measures))


def _symdiff_masks(
    w_mesh: BoundaryMesh, we_mesh: BoundaryMesh
) -> tuple[np.ndarray, np.ndarray]:
    if not np.array_equal(w_mesh.directions, we_mesh.directions) or not np.array_equal(
        w_mesh.facets, we_mesh.facets
    ):
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

    On smoothing-pipeline meshes the radius route is a subset of the flag
    route (off-tube radii coincide to the bit, and every facet with a tube
    vertex is flagged), so ``combined`` equals ``flag_based`` there.
    """
    by_radius, by_flag = _symdiff_masks(w_mesh, we_mesh)
    return {
        "combined": _two_sided_measure(w_mesh, we_mesh, by_radius | by_flag),
        "radius_based": _two_sided_measure(w_mesh, we_mesh, by_radius),
        "flag_based": _two_sided_measure(w_mesh, we_mesh, by_flag),
    }


def polyline_blocks(mesh: BoundaryMesh) -> Iterator[bytes]:
    """The ASCII bytes of :func:`polyline_json`, a block of points at a
    time. The dimension is checked, and the first block formatted, at the
    call; later blocks are formatted as they are read."""
    if mesh.dim != 2:
        raise ValueError("polyline export is for 2D meshes")
    rows = _text.table_blocks(mesh.points, _text.float_cells, (", [", ", ", "]"))
    first = next(rows, b", ")[2:]  # the first point opens the list: no ", "
    return chain([b'{"points": [', first], rows, [b"]}"])


def polyline_json(mesh: BoundaryMesh) -> str:
    """Closed polyline export of a 2D mesh: the JSON text
    {"points": [[x, y], ...]}, byte for byte
    ``json.dumps({"points": mesh.points.tolist()})``, joined from
    :func:`polyline_blocks`."""
    return b"".join(polyline_blocks(mesh)).decode("ascii")


def off_blocks(mesh: BoundaryMesh) -> Iterator[bytes]:
    """The ASCII bytes of :func:`off_text`, a block of rows at a time.

    Each vertex index is formatted once, at the call, into a per-vertex
    table of NUL-padded cells (:func:`convexsmooth._text.int_cells`), and
    the face rows gather their cells from it a block at a time, each cell
    moved as one fixed-width item. The NUL padding makes the text
    independent of the table's cell width. The dimension is checked at the
    call; the rows are formatted as they are read.
    """
    if mesh.dim != 3:
        raise ValueError("OFF export is for 3D meshes")
    index = _text.int_cells(np.arange(len(mesh.points)))
    width = index.shape[-1]
    items = index.view(np.dtype((np.void, width)))[:, 0]

    def face_cells(faces: np.ndarray) -> np.ndarray:
        return items[faces].view(np.uint8).reshape(faces.shape + (width,))

    return chain(
        [f"OFF\n{len(mesh.points)} {len(mesh.facets)} 0\n".encode("ascii")],
        _text.table_blocks(mesh.points, _text.float_cells, ("", " ", " ", "\n")),
        _text.table_blocks(mesh.facets, face_cells, ("3 ", " ", " ", "\n")),
    )


def off_text(mesh: BoundaryMesh) -> str:
    """OFF-format export of a 3D mesh: ``OFF``, ``<vertices> <faces> 0``,
    one ``x y z`` line per vertex with each coordinate as ``repr`` writes
    it, then one ``3 i j k`` line per triangle; joined from
    :func:`off_blocks`."""
    return b"".join(off_blocks(mesh)).decode("ascii")
