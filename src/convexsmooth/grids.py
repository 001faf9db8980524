"""Direction grids on the unit circle and unit sphere.

2D grids are evenly spaced angles; 3D grids are subdivided icosahedra
(quasi-uniform, no polar clustering). Both come with a certified covering
angle: every unit vector lies within that angle of some grid direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def circle_directions(count: int) -> np.ndarray:
    """`count` unit vectors at evenly spaced angles, starting at (1, 0)."""
    if count < 3:
        raise ValueError("need at least 3 directions")
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def circle_covering_angle(count: int) -> float:
    """Max angle from any unit vector to the nearest of `count` grid directions."""
    return math.pi / count


def circle_facets(count: int) -> np.ndarray:
    """Consecutive index pairs closing the loop."""
    i = np.arange(count)
    return np.column_stack([i, (i + 1) % count])


@dataclass
class _Icosphere:
    verts: np.ndarray
    faces: np.ndarray
    covering_angle: float | None = None  # set by the first icosphere_covering_angle call


# one entry per level built, holding its grid and covering angle, so that
# clearing it drops both
_ICO_CACHE: dict[int, _Icosphere] = {}


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere at subdivision `level`.

    Returns (vertices, faces) with 10*4**level + 2 unit vertices and
    20*4**level triangles. Level 0 is the icosahedron itself.
    """
    grid = _icosphere(level)
    return grid.verts, grid.faces


def _icosphere(level: int) -> _Icosphere:
    if level < 0:
        raise ValueError("level must be >= 0")
    if level in _ICO_CACHE:
        return _ICO_CACHE[level]

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

    verts.setflags(write=False)
    faces.setflags(write=False)
    _ICO_CACHE[level] = _Icosphere(verts, faces)
    return _ICO_CACHE[level]


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


def icosphere_covering_angle(level: int) -> float:
    """Covering angle of the level-`level` icosphere vertex set.

    Computed as the largest spherical circumradius over all faces: any unit
    vector lies inside some face, whose vertices are within the face
    circumradius of it. Computed once per level, and kept with the level's
    grid.
    """
    grid = _icosphere(level)
    if grid.covering_angle is None:
        grid.covering_angle = _covering_angle(grid.verts, grid.faces)
    return grid.covering_angle


def _covering_angle(verts: np.ndarray, faces: np.ndarray) -> float:
    tri = verts[faces]
    # circumcenter direction: equidistant from the three vertices
    n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    # orient toward the face
    flip = np.einsum("ij,ij->i", n, tri[:, 0]) < 0
    n[flip] *= -1.0
    cosr = np.einsum("ij,ij->i", n, tri[:, 0])
    return float(np.max(np.arccos(np.clip(cosr, -1.0, 1.0))))


def icosphere_level_for(min_vertices: int) -> int:
    """Smallest subdivision level whose vertex count is >= `min_vertices`."""
    level = 0
    while 10 * 4**level + 2 < min_vertices:
        level += 1
    return level
