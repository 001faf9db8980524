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


def test_the_adjacency_pairs_each_edge_with_its_reverse(monkeypatch):
    monkeypatch.setattr(grids, "_ICO_CACHE", {})
    for level in range(4):
        faces, across = grids.icosphere_adjacency(level)
        assert faces is icosphere(level)[1]
        g, c = np.divmod(across, 3)
        # edge k runs from corner k to corner k + 1; the face across holds it
        # reversed as its edge c + 1, and its corner c is off the edge
        assert np.array_equal(faces[g, (c + 1) % 3], np.roll(faces, -1, axis=1))
        assert np.array_equal(faces[g, (c + 2) % 3], faces)
        assert not np.any(faces[g, c] == faces) and not np.any(faces[g, c] == np.roll(faces, -1, axis=1))
        assert not across.flags.writeable


def test_the_adjacency_is_built_once_and_kept_with_the_grid(monkeypatch):
    built = []
    build = grids._corners_across
    monkeypatch.setattr(grids, "_corners_across", lambda faces: built.append(len(faces)) or build(faces))
    monkeypatch.setattr(grids, "_ICO_CACHE", {})
    first = grids.icosphere_adjacency(2)[1]
    assert grids.icosphere_adjacency(2)[1] is first
    assert built == [320]
    grids._ICO_CACHE.clear()
    assert np.array_equal(grids.icosphere_adjacency(2)[1], first)
    assert built == [320, 320]
