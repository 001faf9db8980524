import numpy as np

from convexsmooth import grids
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


def test_covering_angle_is_computed_once_per_level(monkeypatch):
    computed = []
    compute = grids._covering_angle

    def counted(verts, faces):
        computed.append(len(faces))
        return compute(verts, faces)

    monkeypatch.setattr(grids, "_covering_angle", counted)
    monkeypatch.setattr(grids, "_ICO_CACHE", {})
    angles = {level: grids.icosphere_covering_angle(level) for level in (0, 2, 3)}
    for level, angle in angles.items():
        assert grids.icosphere_covering_angle(level) == angle
        assert angle == compute(*icosphere(level))
    assert computed == [20, 320, 1280]
    # the angle is kept with its level's grid: clearing the grids drops it
    grids._ICO_CACHE.clear()
    assert grids.icosphere_covering_angle(2) == angles[2]
    assert computed == [20, 320, 1280, 320]
