"""Direction grids on the unit circle and unit sphere.

2D grids are evenly spaced angles; 3D grids are subdivided icosahedra
(quasi-uniform, no polar clustering). Both come with a certified covering
angle: every unit vector lies within that angle of some grid direction.
Each dimension and size is built once, into one shared :class:`Grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def circle_directions(count: int) -> np.ndarray:
    """`count` unit vectors at evenly spaced angles, starting at (1, 0)."""
    if count < 3:
        raise ValueError("need at least 3 directions")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True, eq=False)
class Grid:
    """A direction grid: unit ``directions`` (N, d) and the ``facets`` over
    them, (F, d), consecutive index pairs closing the loop in 2D and the
    icosphere's triangles in 3D. Both arrays are made read-only, since
    :func:`grid` shares one record per dimension and size; the covering
    angle and the 3D adjacency are computed on first use and kept on it.
    """

    directions: np.ndarray
    facets: np.ndarray

    def __post_init__(self):
        self.directions.setflags(write=False)
        self.facets.setflags(write=False)

    @cached_property
    def covering_angle(self) -> float:
        """Max angle from any unit vector to the nearest grid direction:
        pi/N in 2D, and in 3D the largest spherical circumradius over the
        faces, since any unit vector lies inside some face, whose vertices
        are within the face circumradius of it."""
        return _covering_angle(self.directions, self.facets)

    @cached_property
    def across(self) -> np.ndarray:
        """The corner across each edge of a 3D grid's faces, (F, 3),
        read-only.

        Edge k of a face runs from its corner k to corner k + 1 (mod 3). The
        face g that holds the same edge reversed has one corner c off it,
        and ``across[f, k]`` is 3 g + c, so that ``facets.flat[across]`` is
        that corner's vertex.
        """
        return _corners_across(self.facets)


# one record per (dimension, size) built, each holding its covering angle
# and adjacency once computed, so that clearing it drops them all
_ICO_CACHE: dict[tuple[int, int], Grid] = {}


def grid(dim: int, size: int) -> Grid:
    """The shared grid of ``size`` directions in 2D (:func:`circle_directions`)
    or of icosphere level ``size`` in 3D (:func:`icosphere`), built on the
    first call for each dimension and size."""
    if (dim, size) not in _ICO_CACHE:
        if dim == 2:
            i = np.arange(size)
            _ICO_CACHE[dim, size] = Grid(circle_directions(size), np.column_stack([i, (i + 1) % size]))
        else:
            _ICO_CACHE[dim, size] = Grid(*icosphere(size))
    return _ICO_CACHE[dim, size]


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere at subdivision `level`, built anew on each call.

    Returns (vertices, faces) with 10*4**level + 2 unit vertices and
    20*4**level triangles. Level 0 is the icosahedron itself.
    """
    if level < 0:
        raise ValueError("level must be >= 0")

    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )

    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every triangle into four at its edge midpoints.

    Midpoints are numbered after the old vertices in the order their edges
    first appear (edges ab, bc, ca of each face in turn), pushed out to the
    unit sphere, and shared by the two faces of an edge.
    """
    nv = len(verts)
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
    _, first, inverse = np.unique(lo * nv + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    m = verts[lo[first[order]]] + verts[hi[first[order]]]
    m /= np.sqrt(np.vecdot(m, m))[:, None]
    ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    new_faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, m]), new_faces.reshape(-1, 3)


def _covering_angle(verts: np.ndarray, faces: np.ndarray) -> float:
    if verts.shape[1] == 2:
        return math.pi / len(verts)
    tri = verts[faces]
    # circumcenter direction: equidistant from the three vertices
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    # orient toward the face
    flip = np.einsum("ij,ij->i", n, tri[:, 0]) < 0
    n[flip] *= -1.0
    cosr = np.einsum("ij,ij->i", n, tri[:, 0])
    return float(np.max(np.arccos(np.clip(cosr, -1.0, 1.0))))


def _corners_across(faces: np.ndarray) -> np.ndarray:
    # each directed edge a -> b, keyed a * nv + b, finds its twin b -> a at
    # 3 g + m, whose face's corner off it is m + 2
    nv = int(faces.max()) + 1
    a, b = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    order = np.argsort(a * nv + b)
    twin = order[np.searchsorted(a * nv + b, b * nv + a, sorter=order)]
    across = (twin - twin % 3 + (twin % 3 + 2) % 3).reshape(faces.shape)
    across.setflags(write=False)
    return across


def icosphere_level_for(min_vertices: int) -> int:
    """Smallest subdivision level whose vertex count is >= `min_vertices`."""
    level = 0
    while 10 * 4**level + 2 < min_vertices:
        level += 1
    return level
