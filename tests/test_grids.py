import numpy as np

from convexsmooth.grids import icosphere
from helpers import subdivide_reference


def test_icosphere_equals_the_loop_subdivision():
    verts, faces = (np.array(a) for a in icosphere(0))
    for level in range(7):
        got_verts, got_faces = icosphere(level)
        assert np.array_equal(got_verts, verts), level
        assert np.array_equal(got_faces, faces), level
        assert got_faces.dtype == np.int64
        verts, faces = subdivide_reference(verts, faces)
