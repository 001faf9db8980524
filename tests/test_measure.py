import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import (
    BallBody,
    BoundaryMesh,
    BracketFailure,
    GridMismatch,
    HalfspaceBody,
    InvalidBody,
    ShrinkDelta,
    boundary_mesh,
    extract_smoothed_body,
    hausdorff_measure,
    off_text,
    polyline_json,
    symmetric_difference_measure,
)
from convexsmooth import grids, measure
from convexsmooth._text import _BLOCK_ROWS
from convexsmooth.gauge import body_gauge_values
from convexsmooth.measure import (
    boundary_samples,
    direction_grid,
    facet_measures,
    radial_function,
    sample_directions,
)
from oracle import ray_exit_radii, ulps
from helpers import (
    BLOCK_ROW_COUNTS,
    REPR_FALLBACK_FLOATS,
    ball_bodies,
    block_end_rows,
    facet_measures_reference,
    halfspace_radii_reference,
    off_text_reference,
    polyline_json_reference,
    random_ball_body,
    unit_square,
)


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


def three_ball():
    return BallBody(radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3)


THREE_BALL = BallBody(
    radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
)


def unit_ball(dim=2):
    return BallBody(radius=1.0, centers=[np.zeros(dim)], dim=dim)


class TestBoundaryMesh:
    def test_circle_perimeter(self):
        mesh = boundary_mesh(unit_ball(), 360)
        assert abs(hausdorff_measure(mesh) - 2 * np.pi) <= 1e-3

    def test_sphere_area(self):
        mesh = boundary_mesh(unit_ball(3), 4)
        assert abs(hausdorff_measure(mesh) - 4 * np.pi) <= 0.01 * 4 * np.pi

    def test_smoothed_single_ball_has_identical_radii(self):
        body = unit_ball()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        w = boundary_mesh(body, 256)
        we = boundary_mesh(smoothed, 256)
        assert np.max(np.abs(w.radii - we.radii)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_radii_must_be_finite_and_positive(self, bad):
        dirs, facets = direction_grid(2, 16)
        radii = np.ones(16)
        radii[3] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            BoundaryMesh(dim=2, directions=dirs, radii=radii, facets=facets)

    @pytest.mark.parametrize(
        "radii, agreement",
        [
            (np.ones(15), None),
            (np.ones((16, 1)), None),
            (np.ones(16), np.ones(15, dtype=bool)),
            (np.ones(16), np.ones(17, dtype=bool)),
        ],
        ids=["short-radii", "column-radii", "short-agreement", "long-agreement"],
    )
    def test_radii_and_flags_must_match_the_grid(self, radii, agreement):
        dirs, facets = direction_grid(2, 16)
        with pytest.raises(ValueError, match="one radius per direction and one flag per facet"):
            BoundaryMesh(dim=2, directions=dirs, radii=radii, facets=facets, agreement=agreement)

    def test_every_exposed_array_is_read_only(self):
        # meshes are shared (a smoothed body keeps its two), so a write to
        # a cached array would change every later measure taken on them
        ball_body = lens()
        square = unit_square()
        lattice = ball_body._lattice
        mesh = extract_smoothed_body(ball_body, delta=1e-3, epsilon=0.05).meshes[1]
        arrays = {
            "BallBody.centers": ball_body.centers,
            "HalfspaceBody.normals": square.normals,
            "HalfspaceBody.offsets": square.offsets,
            **{f"BoundaryMesh.{name}": getattr(mesh, name) for name in (
                "directions", "radii", "facets", "agreement",
                "points", "facet_centroids", "facet_measures",
            )},
            **{f"SphereLattice.{name}": getattr(lattice, name) for name in (
                "centres", "radii", "span", "normal",
            )},
            **dict(zip(("boundary sample points", "boundary sample normals"), boundary_samples(ball_body, 100))),
            "icosphere vertices": grids.icosphere(2)[0],
            "icosphere faces": grids.icosphere(2)[1],
        }
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[...] = 0

    @pytest.mark.parametrize("dim, resolution", [(2, 16), (3, 2)], ids=["circle", "icosphere"])
    def test_the_callers_arrays_stay_writeable(self, dim, resolution):
        # a writeable array is copied, read-only; the cached icosphere grid
        # is read-only already and is kept as is
        dirs, facets = direction_grid(dim, resolution)
        given = {
            "directions": dirs,
            "radii": np.ones(len(dirs)),
            "facets": facets,
            "agreement": np.ones(len(facets), dtype=bool),
        }
        writeable = {name: arr.flags.writeable for name, arr in given.items()}
        mesh = BoundaryMesh(dim=dim, **given)
        for name, arr in given.items():
            kept = getattr(mesh, name)
            assert arr.flags.writeable == writeable[name], name
            assert not kept.flags.writeable, name
            assert (kept is arr) != writeable[name], name
            assert np.array_equal(kept, arr), name
        given["radii"][0] = 2.0
        assert mesh.radii[0] == 1.0

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            boundary_mesh(unit_ball(), 8)
        with pytest.raises(ValueError):
            boundary_mesh(unit_ball(3), 1)

    def test_radii_are_the_closed_form(self):
        body = lens()
        mesh = boundary_mesh(body, 1000)
        assert np.array_equal(mesh.radii, 1.0 / body_gauge_values(body, mesh.directions))
        assert mesh.radii[0] == 0.5  # the lens waist along (1, 0)

    def test_halfspace_radial_function(self):
        square = unit_square(0.5)
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        assert np.allclose(radial_function(square, dirs), [0.5, 0.5, np.sqrt(0.5)], rtol=1e-15)
        mesh = boundary_mesh(square, 400)
        assert hausdorff_measure(mesh) == pytest.approx(4.0, rel=1e-12)

    # Closed-form radii against the 50-digit ray exit, in ulp of each
    # radius per unit of 1 + R/rho, rho the interior radius: 1/mu(u) loses
    # accuracy as a center nears the sphere of radius R. Six batches of
    # ball_bodies() examples, 17,500 in all, each reached 1.5 (1 + R/rho)
    # ulp; an earlier batch of 1,500 reached 3.9 R/rho ulp, which this
    # bound covers twice over. The largest error was 7,123 ulp, at R/rho =
    # 1e4 on a 2D body whose nearest center was 1e-4 R inside that sphere.
    ORACLE_ULPS_PER_CONDITION = 8.0

    @settings(max_examples=40, deadline=None)
    @given(body=ball_bodies(), res2d=st.integers(16, 300))
    def test_ball_radii_match_the_high_precision_ray_exit(self, body, res2d):
        dirs, _ = direction_grid(body.dim, res2d if body.dim == 2 else 2)
        bound = self.ORACLE_ULPS_PER_CONDITION * (1.0 + body.radius / body.interior_radius)
        assert np.max(ulps(radial_function(body, dirs), ray_exit_radii(body, dirs))) <= bound

    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.5),
        res2d=st.integers(16, 300),
    )
    def test_off_tube_smoothed_radii_match_the_high_precision_ray_exit(
        self, body, log_delta, res2d
    ):
        # every vertex of an agreeing facet took the closed form, so it is
        # the original boundary's radius within the same bound
        try:
            smoothed = extract_smoothed_body(
                body,
                delta=10.0**log_delta * body.radius**2,
                epsilon=0.2,
                resolution=res2d if body.dim == 2 else 2,
            )
        except ShrinkDelta:
            return
        we_mesh = smoothed.meshes[1]
        off = np.unique(we_mesh.facets[we_mesh.agreement])
        ref = ray_exit_radii(body, we_mesh.directions[off])
        bound = self.ORACLE_ULPS_PER_CONDITION * (1.0 + body.radius / body.interior_radius)
        assert np.all(ulps(we_mesh.radii[off], ref) <= bound)

    @pytest.mark.parametrize("dim, faces", [(2, 3), (2, 7), (2, 40), (3, 4), (3, 6), (3, 30)])
    def test_halfspace_radii_are_the_all_faces_form(self, dim, faces):
        # one face at a time with a running minimum: the bits of the min
        # over the (N, k) candidate table, rays parallel to a face included
        rng = np.random.default_rng(100 * dim + faces)
        normals = rng.standard_normal((faces, dim))
        normals[: dim + 1] = np.vstack([np.eye(dim), -np.ones(dim)])
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        body = HalfspaceBody(normals=normals, offsets=rng.uniform(0.2, 1.5, faces))
        dirs = np.vstack([np.eye(dim), -np.eye(dim), direction_grid(dim, 1000 if dim == 2 else 3)[0]])
        parallel = np.abs(dirs @ body.normals.T) == 0.0
        assert parallel[: 2 * dim].any()  # axis rays run along the axis faces
        ref = halfspace_radii_reference(body, dirs)
        assert np.all(np.isfinite(ref))
        assert np.array_equal(radial_function(body, dirs), ref)
        for rows in (dirs[:1], dirs[:5]):
            assert np.array_equal(radial_function(body, rows), halfspace_radii_reference(body, rows))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_unbounded_halfspace_body_raises(self, dim):
        # the axis faces leave every ray with a negative coordinate unbounded
        body = HalfspaceBody(normals=np.eye(dim), offsets=np.ones(dim))
        dirs = direction_grid(dim, 64 if dim == 2 else 2)[0]
        assert np.isinf(halfspace_radii_reference(body, dirs)).any()
        with pytest.raises(BracketFailure, match="unbounded"):
            radial_function(body, dirs)
        with pytest.raises(BracketFailure, match="unbounded"):
            radial_function(body, -np.eye(dim)[:1])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BallBody(
                radius=1.0,
                centers=0.3 * np.column_stack([np.cos(np.arange(32) * 0.196), np.sin(np.arange(32) * 0.196)]),
                dim=2,
            ),
            lambda: HalfspaceBody(
                normals=np.column_stack([np.cos(np.arange(7) * 0.9), np.sin(np.arange(7) * 0.9)]),
                offsets=np.linspace(0.5, 1.0, 7),
            ),
        ],
        ids=["32-balls", "7-faces"],
    )
    def test_radial_function_memory_is_a_few_results(self, make):
        # radii are taken one member (or face) at a time over all the
        # directions, so temporaries are (N,) arrays, not (N, m) ones
        body = make()
        dirs = direction_grid(2, 2**16)[0]
        tracemalloc.start()
        try:
            radii = radial_function(body, dirs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * radii.nbytes

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            boundary_mesh(unit_ball(4), 4)
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            sample_directions(4, 100)
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            extract_smoothed_body(unit_ball(4), delta=1e-3, epsilon=0.05)


@pytest.mark.parametrize(
    "dim, samples", [(2, 8), (2, 100), (2, 360), (2, 721), (3, 64), (3, 360), (3, 700)]
)
def test_sample_directions_are_the_certificate_grid(dim, samples):
    dirs, cover = sample_directions(dim, samples)
    # the directions are boundary_samples' own, and the angle is the
    # certificates' covering angle of a sample count: pi/samples in 2D, the
    # smallest icosphere with that many vertices in 3D
    body = lens() if dim == 2 else THREE_BALL
    points, _ = boundary_samples(body, samples)
    assert np.array_equal(points, radial_function(body, dirs)[:, None] * dirs)
    if dim == 2:
        assert np.array_equal(dirs, grids.circle_directions(samples))
        assert cover == math.pi / samples
    else:
        level = grids.icosphere_level_for(samples)
        assert len(dirs) >= samples > 10 * 4 ** (level - 1) + 2
        assert cover == grids.icosphere_covering_angle(level)
    # and it covers: every unit vector lies within it of some direction
    u = np.random.default_rng(samples).standard_normal((2000, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    nearest = np.arccos(np.clip(np.max(u @ dirs.T, axis=1), -1.0, 1.0))
    assert np.max(nearest) <= cover


def test_boundary_samples_are_drawn_once_per_body_and_count(monkeypatch):
    draws = []
    radial = radial_function

    def counted(body, dirs):
        draws.append(body)
        return radial(body, dirs)

    monkeypatch.setattr(measure, "radial_function", counted)
    body, twin = lens(), lens()
    assert body == twin
    points, normals = boundary_samples(body, 100)
    again = boundary_samples(body, 100)
    assert again[0] is points and again[1] is normals
    assert draws == [body]
    # an equal body built separately draws its own
    twin_points, twin_normals = boundary_samples(twin, 100)
    assert draws == [body, twin] and twin_points is not points
    assert twin_points.tobytes() == points.tobytes() and twin_normals.tobytes() == normals.tobytes()
    boundary_samples(body, 200)
    assert len(draws) == 3


@pytest.mark.parametrize(
    "dim, resolution, message",
    [
        (2, 16.5, "resolution must be an integer, got 16.5"),
        (3, 2.5, "resolution must be an integer, got 2.5"),
        (3, True, "resolution must be an integer, got True"),
        (3, 10, "3D resolution (icosphere level) must be from 2 to 9"),
        (3, 20, "3D resolution (icosphere level) must be from 2 to 9"),
        (3, 1, "3D resolution (icosphere level) must be from 2 to 9"),
    ],
)
def test_direction_grid_refuses_a_grid_it_cannot_build(dim, resolution, message, monkeypatch):
    # level 20 would ask for 10 * 4^20 + 2 vertices: refused before any grid
    # is built
    def unbuilt(*args):
        raise AssertionError("a grid was built")

    for name in ("icosphere", "circle_directions", "circle_facets"):
        monkeypatch.setattr(grids, name, unbuilt)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        direction_grid(dim, resolution)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        extract_smoothed_body(unit_ball(dim), 1e-3, 0.05, resolution)


def test_direction_grid_takes_numpy_integers_and_the_finest_level(monkeypatch):
    for got, want in zip(direction_grid(2, np.int64(64)), direction_grid(2, 64)):
        assert np.array_equal(got, want)
    # level 9 (2,621,442 vertices) is asked for, not built
    monkeypatch.setattr(grids, "icosphere", lambda level: ("asked", level))
    assert direction_grid(3, np.int64(9)) == ("asked", 9)


@pytest.mark.parametrize("dim, default", [(2, 1024), (3, 4)])
def test_direction_grid_owns_the_default_resolution(dim, default):
    for got, want in zip(direction_grid(dim, None), direction_grid(dim, default)):
        assert np.array_equal(got, want)
    body = unit_ball(dim)
    assert np.array_equal(boundary_mesh(body, None).radii, boundary_mesh(body, default).radii)


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_facet_measures_are_each_meshs_cross_and_norm(dim):
    dirs, facets = direction_grid(dim, 300 if dim == 2 else 3)
    radii = np.random.default_rng(dim).uniform(0.5, 2.0, size=(5, len(dirs)))
    points = radii[..., None] * dirs
    batched = facet_measures(points, facets)
    for pts, got in zip(points, batched):
        assert np.array_equal(got, facet_measures_reference(pts, facets))


class TestHausdorffMeasure:
    def test_partition(self):
        smoothed = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05)
        mesh = boundary_mesh(smoothed, 2048)
        agree = mesh.agreement
        parts = np.sum(mesh.facet_measures[agree]) + np.sum(mesh.facet_measures[~agree])
        assert parts == pytest.approx(hausdorff_measure(mesh), rel=1e-12)
        assert 0 < np.count_nonzero(agree) < len(agree)

    def test_single_ball_has_no_disagreement(self):
        smoothed = extract_smoothed_body(unit_ball(), delta=1e-3, epsilon=0.05)
        mesh = boundary_mesh(smoothed, 256)
        assert np.all(mesh.agreement)


class TestSymmetricDifference:
    def test_identical_meshes(self):
        mesh = boundary_mesh(lens(), 256)
        assert symmetric_difference_measure(mesh, mesh) == 0.0

    def test_disjoint_circles_add_their_perimeters(self):
        w = boundary_mesh(unit_ball(), 720)
        shrunk = BallBody(radius=0.9, centers=[[0.0, 0.0]], dim=2)
        we = boundary_mesh(shrunk, 720)
        expected = 2 * np.pi * (1.0 + 0.9)
        assert symmetric_difference_measure(w, we) == pytest.approx(expected, rel=1e-3)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            symmetric_difference_measure(
                boundary_mesh(unit_ball(), 128), boundary_mesh(unit_ball(), 256)
            )

    def test_agreement_facets_coincide_exactly(self):
        body = lens()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        w = boundary_mesh(body, 2048)
        we = boundary_mesh(smoothed, 2048)
        agree_vertices = np.unique(we.facets[we.agreement])
        assert np.array_equal(w.radii[agree_vertices], we.radii[agree_vertices])
        assert np.any(~we.agreement)  # the lens does have a ridge tube

    @pytest.mark.parametrize(
        "body, resolution",
        [
            (lens(), 1024),
            (BallBody(radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3), 3),
            (random_ball_body(np.random.default_rng(21), 2, 6), 777),
        ],
        ids=["lens", "three-ball-3d", "six-ball-2d"],
    )
    def test_off_tube_radii_are_bit_exact(self, body, resolution):
        # the level-1 off-tube radius is 1.0/mu(u), the original body's
        # radius to the last bit
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, resolution=resolution)
        w = boundary_mesh(body, resolution)
        we = boundary_mesh(smoothed, resolution)
        agree_vertices = np.unique(we.facets[we.agreement])
        assert len(agree_vertices) > 0.9 * len(w.radii)
        assert np.array_equal(w.radii[agree_vertices], we.radii[agree_vertices])


def _signed_zero_mesh_2d():
    # exact +-0.0 axis components and power-of-two radii
    dirs, facets = direction_grid(2, 16)
    dirs = dirs.copy()
    dirs[[0, 4, 8, 12]] = [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0]]
    return BoundaryMesh(dim=2, directions=dirs, radii=2.0 ** np.arange(-8, 8), facets=facets)


def _signed_zero_mesh_3d():
    # the icosphere's exact zero components, negated
    dirs, facets = grids.icosphere(2)
    return BoundaryMesh(dim=3, directions=-dirs, radii=np.full(len(dirs), 0.5), facets=facets)


def _box_3d():
    offsets = [2.0, 0.5, 1.0, 0.25, 4.0, 0.125]
    normals = np.vstack([np.eye(3), -np.eye(3)])
    return boundary_mesh(HalfspaceBody(normals=normals, offsets=offsets), 3)


def _block_mesh(dim: int, rows: int) -> BoundaryMesh:
    """A mesh of `rows` vertices and facets whose vertices at the first and
    last row of each export block have repr-fallback coordinates, and whose
    largest facet index gains a digit from block 0 to block 1."""
    rng = np.random.default_rng(rows)
    points = rng.standard_normal((rows, dim))
    ends = block_end_rows(rows)
    points[ends] = rng.choice(REPR_FALLBACK_FLOATS, (len(ends), dim))
    i = np.arange(rows)
    top = np.where(i < _BLOCK_ROWS, i // 5, i)
    facets = np.stack([top, top // 2, top // 3][:dim], axis=1)
    # unit radii, so the points are the directions bit for bit
    return BoundaryMesh(dim=dim, directions=points, radii=np.ones(rows), facets=facets)


def _fallback_kinds(points: np.ndarray) -> set[str]:
    """Which of the formatter's repr fallbacks the coordinates hit."""
    x = points.ravel()
    nonzero = x != 0
    kinds = {
        "zero": np.any(~nonzero & ~np.signbit(x)),
        "negative zero": np.any(~nonzero & np.signbit(x)),
        "below 1e-4": np.any(nonzero & (np.abs(x) < 1e-4)),
        "power of two": np.any(nonzero & (np.frexp(np.abs(x))[0] == 0.5)),
    }
    return {kind for kind, hit in kinds.items() if hit}


class TestExports:
    def test_polyline(self):
        mesh = boundary_mesh(unit_ball(), 64)
        data = json.loads(polyline_json(mesh))
        assert list(data) == ["points"]
        assert len(data["points"]) == 64
        assert len(data["points"][0]) == 2

    def test_off_format(self):
        mesh = boundary_mesh(unit_ball(3), 2)
        text = off_text(mesh)
        lines = text.splitlines()
        assert lines[0] == "OFF"
        nv, nf, ne = (int(s) for s in lines[1].split())
        assert nv == len(mesh.points) and nf == len(mesh.facets) and ne == 0
        assert len(lines) == 2 + nv + nf
        assert all(line.startswith("3 ") for line in lines[2 + nv :])

    @pytest.mark.parametrize("level", [2, 5])
    def test_off_text_is_the_line_by_line_text(self, level):
        body = BallBody(radius=1.3, centers=[[0.3, 0.0, 0.1], [-0.2, 0.25, 0.0]], dim=3)
        mesh = boundary_mesh(body, level)
        text = off_text(mesh)
        assert text == off_text_reference(mesh)
        nv = len(mesh.points)
        coords = [[float(c) for c in line.split()] for line in text.splitlines()[2 : 2 + nv]]
        assert np.array_equal(np.array(coords), mesh.points)  # repr round-trips

    @pytest.mark.parametrize(
        "make, kinds",
        [
            (lambda: boundary_mesh(lens(), 2**16), {"below 1e-4", "zero", "power of two"}),
            (_signed_zero_mesh_2d, {"zero", "negative zero", "power of two"}),
            (lambda: boundary_mesh(unit_square(0.5), 64), {"power of two"}),
            (_signed_zero_mesh_3d, {"negative zero"}),
            (_box_3d, {"zero", "power of two"}),
        ],
        ids=["lens-2^16", "signed-zeros-2d", "square", "signed-zeros-3d", "box-3d"],
    )
    def test_exports_are_the_reference_text(self, make, kinds):
        mesh = make()
        assert kinds <= _fallback_kinds(mesh.points)
        if mesh.dim == 2:
            assert polyline_json(mesh) == polyline_json_reference(mesh)
        else:
            assert off_text(mesh) == off_text_reference(mesh)

    @pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
    @pytest.mark.parametrize("dim", [2, 3])
    def test_exports_across_block_boundaries_are_the_reference_text(self, dim, rows):
        mesh = _block_mesh(dim, rows)
        if dim == 2:
            assert polyline_json(mesh) == polyline_json_reference(mesh)
        else:
            assert off_text(mesh) == off_text_reference(mesh)

    @pytest.mark.parametrize("vertices", [9_999, 10_000, 10_001])
    @pytest.mark.parametrize("used", ["all", "low", "high"])
    def test_off_face_rows_are_the_reference_text(self, vertices, used):
        # face rows gather per-vertex index cells, 4 bytes wide up to index
        # 9,999 and 8 bytes from 10,000 on, whichever vertices faces use
        rng = np.random.default_rng(vertices)
        dirs = rng.standard_normal((vertices, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        lo, hi = {"all": (0, vertices), "low": (0, 100), "high": (vertices - 100, vertices)}[used]
        facets = rng.integers(lo, hi, size=(_BLOCK_ROWS + 7, 3))
        facets[0] = [lo, hi - 1, lo]
        mesh = BoundaryMesh(dim=3, directions=dirs, radii=rng.uniform(0.5, 2.0, vertices), facets=facets)
        assert off_text(mesh) == off_text_reference(mesh)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: boundary_mesh(lens(), 2**16),
            lambda: boundary_mesh(three_ball(), 6),
        ],
        ids=["lens-2^16", "three-ball-level-6"],
    )
    def test_export_memory_is_bounded_by_the_text(self, make):
        # the exports format a block of rows at a time, so their memory
        # beyond the text they return does not grow with the mesh
        mesh = make()
        export = polyline_json if mesh.dim == 2 else off_text
        assert len(mesh.points)  # built and cached before tracing
        tracemalloc.start()
        try:
            text = export(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            off_text(boundary_mesh(unit_ball(), 64))
        with pytest.raises(ValueError):
            polyline_json(boundary_mesh(unit_ball(3), 2))
