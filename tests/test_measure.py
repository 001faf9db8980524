import numpy as np
import pytest

from convexsmooth import (
    BallBody,
    GridMismatch,
    InvalidBody,
    boundary_mesh,
    extract_smoothed_body,
    hausdorff_measure,
    off_text,
    polyline_json,
    symmetric_difference_measure,
)
from convexsmooth.gauge import body_gauge_values
from convexsmooth.measure import direction_grid, facet_measures, radial_function
from helpers import facet_measures_reference, off_text_reference, random_ball_body, unit_square


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


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
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
        w = boundary_mesh(body, 256)
        we = boundary_mesh(smoothed, 256)
        assert np.max(np.abs(w.radii - we.radii)) <= 1e-12

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

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            boundary_mesh(unit_ball(4), 4)
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            direction_grid(4, 100, by_count=True)
        with pytest.raises(InvalidBody, match="dim 2 and 3"):
            extract_smoothed_body(unit_ball(4), delta=1e-3, epsilon=0.05)


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
        smoothed = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C2")
        mesh = boundary_mesh(smoothed, 2048)
        total = hausdorff_measure(mesh, "all")
        parts = hausdorff_measure(mesh, "agree") + hausdorff_measure(mesh, "disagree")
        assert parts == pytest.approx(total, rel=1e-12)

    def test_single_ball_has_no_disagreement(self):
        smoothed = extract_smoothed_body(unit_ball(), delta=1e-3, epsilon=0.05, order="C2")
        mesh = boundary_mesh(smoothed, 256)
        assert hausdorff_measure(mesh, "disagree") == 0.0

    def test_filter_validation(self):
        mesh = boundary_mesh(unit_ball(), 64)
        with pytest.raises(ValueError):
            hausdorff_measure(mesh, "everything")


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
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
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
    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_off_tube_radii_are_bit_exact(self, body, resolution, order):
        # the rescaled off-tube radius is (t0/t0)/mu(u) = 1/mu(u), the
        # original body's radius to the last bit
        smoothed = extract_smoothed_body(
            body, delta=1e-3, epsilon=0.05, order=order, resolution=resolution
        )
        w = boundary_mesh(body, resolution)
        we = boundary_mesh(smoothed, resolution)
        agree_vertices = np.unique(we.facets[we.agreement])
        assert len(agree_vertices) > 0.9 * len(w.radii)
        assert np.array_equal(w.radii[agree_vertices], we.radii[agree_vertices])


class TestExports:
    def test_polyline(self):
        mesh = boundary_mesh(unit_ball(), 64)
        data = polyline_json(mesh)
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

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            off_text(boundary_mesh(unit_ball(), 64))
        with pytest.raises(ValueError):
            polyline_json(boundary_mesh(unit_ball(3), 2))
