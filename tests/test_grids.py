import dataclasses
import math

import numpy as np
import pytest

from convexsmooth import BallBody, grids
from convexsmooth.grids import icosphere
from convexsmooth.measure import boundary_mesh, direction_grid, sample_directions
from helpers import subdivide_reference

KEYS = [(2, 360), (2, 361), (3, 0), (3, 2), (3, 3)]


def test_icosphere_equals_the_loop_subdivision():
    verts, faces = icosphere(0)
    for level in range(7):
        got_verts, got_faces = icosphere(level)
        assert np.array_equal(got_verts, verts), level
        assert np.array_equal(got_faces, faces), level
        assert got_faces.dtype == np.int64
        verts, faces = subdivide_reference(verts, faces)


def _count_builds(monkeypatch) -> list:
    """Log each grid build, and each covering angle and adjacency table
    computed, into a fresh cache."""
    built = []

    def logged(name, build):
        def call(*args):
            # a build logs its size, a computation the rows of its first array
            built.append((name, len(args[0]) if name.startswith("_") else args[0]))
            return build(*args)

        return call

    for name in ("icosphere", "circle_directions", "_covering_angle", "_corners_across"):
        monkeypatch.setattr(grids, name, logged(name, getattr(grids, name)))
    monkeypatch.setattr(grids, "_ICO_CACHE", {})
    return built


def test_each_dimension_and_size_is_built_once_and_read_only(monkeypatch):
    built = _count_builds(monkeypatch)
    records = {key: grids.grid(*key) for key in KEYS}
    for (dim, size), record in records.items():
        assert grids.grid(dim, size) is record
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.directions = record.directions.copy()
        for arr in (record.directions, record.facets) + ((record.across,) if dim == 3 else ()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
    assert built[:5] == [
        ("circle_directions", 360), ("circle_directions", 361), ("icosphere", 0), ("icosphere", 2), ("icosphere", 3)
    ]
    # 2D facets are the consecutive pairs closing the loop; 3D ones the faces
    i = np.arange(361)
    assert np.array_equal(records[2, 361].facets, np.column_stack([i, np.roll(i, -1)]))
    assert np.array_equal(records[2, 361].directions, grids.circle_directions(361))
    assert np.array_equal(records[3, 2].facets, icosphere(2)[1])


def test_meshes_and_samples_of_one_size_share_the_record():
    for dim, size, samples in ((2, 360, 360), (3, 3, 642)):
        record = sample_directions(dim, samples)
        assert record is grids.grid(dim, size)
        dirs, facets = direction_grid(dim, size)
        assert dirs is record.directions and facets is record.facets
    mesh = boundary_mesh(BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2), 360)
    assert mesh.directions is grids.grid(2, 360).directions


def test_covering_angle_is_computed_once_per_level(monkeypatch):
    built = _count_builds(monkeypatch)
    angles = {}
    for dim, size in KEYS:
        record = grids.grid(dim, size)
        angles[dim, size] = record.covering_angle
        assert record.covering_angle == angles[dim, size]
    assert [entry for entry in built if entry[0] == "_covering_angle"] == [
        ("_covering_angle", 360), ("_covering_angle", 361), ("_covering_angle", 12),
        ("_covering_angle", 162), ("_covering_angle", 642),
    ]
    assert angles[2, 360] == math.pi / 360 and angles[2, 361] == math.pi / 361
    for level in (0, 2, 3):
        assert angles[3, level] == grids._covering_angle(*icosphere(level))


def test_the_adjacency_is_built_once_and_kept_with_the_grid(monkeypatch):
    built = _count_builds(monkeypatch)
    for level in (0, 2, 3):
        record = grids.grid(3, level)
        assert record.across is record.across
    assert [entry for entry in built if entry[0] == "_corners_across"] == [
        ("_corners_across", 20), ("_corners_across", 320), ("_corners_across", 1280),
    ]


def test_the_adjacency_pairs_each_edge_with_its_reverse(monkeypatch):
    monkeypatch.setattr(grids, "_ICO_CACHE", {})
    for level in range(4):
        record = grids.grid(3, level)
        faces, across = record.facets, record.across
        g, c = np.divmod(across, 3)
        # edge k runs from corner k to corner k + 1; the face across holds it
        # reversed as its edge c + 1, and its corner c is off the edge
        assert np.array_equal(faces[g, (c + 1) % 3], np.roll(faces, -1, axis=1))
        assert np.array_equal(faces[g, (c + 2) % 3], faces)
        assert not np.any(faces[g, c] == faces) and not np.any(faces[g, c] == np.roll(faces, -1, axis=1))


def test_clearing_the_cache_drops_2d_and_3d_records_alike(monkeypatch):
    # bench/run.py clears the cache before each set-up, so that set-up
    # time keeps counting every grid build, covers and adjacency included
    built = _count_builds(monkeypatch)
    old = {key: grids.grid(*key) for key in KEYS}
    covers = {key: record.covering_angle for key, record in old.items()}
    grids._ICO_CACHE.clear()
    again = len(built)
    for key, record in old.items():
        new = grids.grid(*key)
        assert new is not record
        assert np.array_equal(new.directions, record.directions) and np.array_equal(new.facets, record.facets)
        assert new.covering_angle == covers[key]
    assert sorted(built[again:]) == sorted(built[:again])
