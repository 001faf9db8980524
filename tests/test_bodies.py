import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexsmooth import bodies
from convexsmooth import (
    Ball,
    BallBody,
    HalfspaceBody,
    InvalidBody,
    ball_support_check,
    body_from_json,
    body_to_json,
    boundary_surjectivity_probe,
    contains,
    diameter,
    halfspace_reconstruction_gap,
    normal_lift,
    outward_normal,
    project_body,
    support_value,
)
from convexsmooth.bodies import MEMBERSHIP_SLACK, contains_many, farthest_point
from convexsmooth.gauge import body_gauge_values
from convexsmooth.grids import icosphere
from convexsmooth.measure import boundary_samples, radial_function
from helpers import (
    AXIS_CASE,
    NEAR_COPY_CASE,
    TINY_W_CASE,
    ball_bodies,
    boundary_cloud,
    random_ball_body,
    unit_square,
)


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


SQUARE_FACES = [{"normal": n, "offset": 0.5} for n in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])]


class TestInvariants:
    def test_radius_must_be_positive(self):
        with pytest.raises(InvalidBody, match="radius"):
            BallBody(radius=-1.0, centers=[[0.0, 0.0]], dim=2)

    def test_center_inside_radius(self):
        with pytest.raises(InvalidBody, match="interior"):
            BallBody(radius=1.0, centers=[[1.5, 0.0]], dim=2)

    def test_empty_centers_rejected(self):
        with pytest.raises(InvalidBody):
            BallBody(radius=1.0, centers=np.empty((0, 2)), dim=2)

    def test_halfspace_normals_must_be_unit(self):
        with pytest.raises(InvalidBody, match="unit"):
            HalfspaceBody(normals=[[2.0, 0.0]], offsets=[1.0])

    def test_halfspace_offsets_positive(self):
        with pytest.raises(InvalidBody, match="interior"):
            HalfspaceBody(normals=[[1.0, 0.0], [-1.0, 0.0]], offsets=[1.0, -0.5])

    def test_interior_ball_is_contained(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            body = random_ball_body(rng, 2, 4)
            rho = body.interior_radius
            dirs = rng.standard_normal((200, 2))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            for u in dirs[:50]:
                assert contains(body, rho * (1 - 1e-9) * u)


class TestEquality:
    def test_equal_fields_compare_equal(self):
        assert Ball([0.5, 0.0], 1.0) == Ball([0.5, 0.0], 1.0)
        assert lens() == body_from_json(body_to_json(lens()))
        assert unit_square() == unit_square()

    def test_different_fields_compare_unequal(self):
        assert Ball([0.5, 0.0], 1.0) != Ball([0.5, 0.0], 2.0)
        assert lens() != BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.4, 0.0]], dim=2)
        assert unit_square() != unit_square(half=0.6)
        assert lens() != Ball([0.5, 0.0], 1.0)


class TestBall:
    @pytest.mark.parametrize(
        "center, radius, invariant",
        [
            ([math.nan, 0.0], math.inf, "ball radius must be finite"),
            ([math.nan, 0.0], 1.0, "ball center must be finite"),
            ([0.0, -math.inf], 1.0, "ball center must be finite"),
            ([0.0, 0.0], math.nan, "ball radius must be finite"),
            ([0.0, 0.0], [1.0], "ball radius must be a number"),
        ],
        ids=["nan-center-inf-radius", "nan-center", "inf-center", "nan-radius", "list-radius"],
    )
    def test_single_ball_rejects_non_finite_fields(self, center, radius, invariant):
        with pytest.raises(InvalidBody, match=invariant):
            Ball(center=center, radius=radius)


class TestContains:
    def test_unit_ball(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        assert contains(body, [0.5, 0.0])

    def test_outside_one_member(self):
        assert not contains(lens(), [1.2, 0.0])

    def test_origin_always_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            body = random_ball_body(rng, 2, 5)
            assert contains(body, np.zeros(2))

    @pytest.mark.parametrize("kind", ["ball", "halfspace"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_point_is_the_batch_row(self, kind, dim):
        rng = np.random.default_rng(dim)
        body = random_ball_body(rng, dim, 5) if kind == "ball" else random_box(rng, dim)
        dirs = rng.standard_normal((4000, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        offsets = rng.uniform(-2.0, 2.0, (len(dirs), 1)) * MEMBERSHIP_SLACK
        points = (radial_function(body, dirs)[:, None] + offsets) * dirs
        batch = contains_many(body, points)
        assert 0 < np.sum(batch) < len(points)
        assert [contains(body, x) for x in points] == batch.tolist()


def random_box(rng, dim):
    """A bounded halfspace body: a box cut by a few random faces."""
    extra = rng.standard_normal((4, dim))
    normals = np.vstack([np.eye(dim), -np.eye(dim), extra / np.linalg.norm(extra, axis=1, keepdims=True)])
    return HalfspaceBody(normals=normals, offsets=rng.uniform(0.5, 1.0, len(normals)))


class TestOutwardNormal:
    @pytest.mark.parametrize(
        "body",
        [
            lens(),
            random_ball_body(np.random.default_rng(1), 2, 9),
            random_ball_body(np.random.default_rng(2), 3, 5),
            random_box(np.random.default_rng(3), 2),
            random_box(np.random.default_rng(4), 3),
        ],
    )
    def test_batch_rows_equal_single_calls(self, body):
        points, normals = boundary_samples(body, 500)
        points = np.vstack([points, points * (1.0 + 1e-8)])
        batch = outward_normal(body, points)
        for y, n in zip(points, batch):
            assert np.array_equal(outward_normal(body, y), n)
        assert np.array_equal(batch[: len(normals)], normals)

    def test_smooth_point_is_the_sphere_normal(self):
        a = np.array([-0.5, 0.0])
        for theta in (0.0, 0.3, -0.7):
            y = a + np.array([np.cos(theta), np.sin(theta)])
            assert np.allclose(outward_normal(lens(), y), y - a, rtol=0.0, atol=1e-15)

    def test_lens_tips(self):
        h = np.sqrt(0.75)
        assert np.array_equal(outward_normal(lens(), [0.0, h]), [0.0, 1.0])
        assert np.array_equal(outward_normal(lens(), [0.0, -h]), [0.0, -1.0])

    def test_square_corners(self):
        for sx in (1.0, -1.0):
            for sy in (1.0, -1.0):
                n = outward_normal(unit_square(), [0.5 * sx, 0.5 * sy])
                assert np.array_equal(n, np.array([sx, sy]) / np.sqrt(2.0))


class TestDiameter:
    def test_single_ball(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        assert abs(diameter(body) - 2.0) <= 1e-6

    def test_lens_matches_brute_force(self):
        body = lens()
        cloud = boundary_cloud(body, 4000)
        brute = 0.0
        for k in range(0, len(cloud), 40):
            brute = max(brute, float(np.max(np.linalg.norm(cloud - cloud[k], axis=1))))
        d = diameter(body)
        assert d >= brute - 1e-12  # certified upper bound
        assert abs(d - 2.0 * np.sqrt(0.75)) <= 1e-3

    def test_never_exceeds_twice_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            body = random_ball_body(rng, 2, 3)
            assert diameter(body) <= 2.0 * body.radius + 1e-12

    def test_monotone_under_extra_center(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            body = random_ball_body(rng, 2, 3)
            extra = rng.uniform(-0.3, 0.3, size=2) * body.radius
            bigger = BallBody(
                radius=body.radius,
                centers=np.vstack([body.centers, extra]),
                dim=2,
            )
            assert diameter(bigger) <= diameter(body) + 1e-9

    def test_bound_holds_above_dim_3(self):
        # 14 balls at +-0.6 e_i (i >= 2) in dim 8: the body meets the e1
        # axis in [-0.8, 0.8] (s^2 + 0.36 <= 1), so its diameter is >= 1.6
        dim = 8
        centers = [s * 0.6 * np.eye(dim)[i] for i in range(1, dim) for s in (1.0, -1.0)]
        body = BallBody(radius=1.0, centers=centers, dim=dim)
        tip = 0.8 * np.eye(dim)[0]
        assert contains(body, tip) and contains(body, -tip)
        assert diameter(body) >= 1.6


class TestSupportValue:
    def test_three_sphere_corner_3d(self):
        # the three spheres meet at the corner (0, 0, sqrt(0.75)), and u lies
        # inside the cone of their normals there: the support point is on
        # no single sphere and on no pairwise intersection circle
        theta = 2.0 * np.pi * np.arange(3) / 3.0
        centers = 0.5 * np.column_stack([np.cos(theta), np.sin(theta), np.zeros(3)])
        body = BallBody(radius=1.0, centers=centers, dim=3)
        corner = np.array([0.0, 0.0, np.sqrt(0.75)])
        u = np.array([0.1, 0.05, 1.0]) / np.linalg.norm([0.1, 0.05, 1.0])

        # radial boundary sample: an icosphere plus rings closing in on the
        # corner's direction, down to an angle of 1e-9
        sphere, _ = icosphere(5)
        tilt = np.geomspace(1e-9, 0.3, 200)[:, None]
        phi = 2.0 * np.pi * np.arange(64) / 64.0
        ring = np.stack([np.cos(phi), np.sin(phi), np.zeros(64)], axis=1)
        near = (np.array([0.0, 0.0, 1.0]) + tilt[:, None] * ring[None]).reshape(-1, 3)
        dirs = np.vstack([sphere, near / np.linalg.norm(near, axis=1, keepdims=True)])
        sampled = np.max(dirs / body_gauge_values(body, dirs)[:, None] @ u)

        h = support_value(body, u)
        assert sampled <= h <= sampled + 1e-6
        assert h == pytest.approx(u @ corner + 1e-12, abs=1e-15)


    def test_batch_matches_single_directions(self):
        body = random_ball_body(np.random.default_rng(8), 3, 5)
        dirs = np.random.default_rng(9).standard_normal((30, 3))
        batch = support_value(body, dirs)
        assert batch.shape == (30,)
        assert np.array_equal(batch, [support_value(body, u) for u in dirs])

    def test_zero_direction_is_named(self):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            support_value(lens(), [0.0, 0.0])
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="direction 2 is zero"):
            support_value(lens(), dirs)


class TestFarthestPoint:
    @settings(max_examples=100, deadline=None)
    @given(body=ball_bodies(), seed=st.integers(0, 2**32 - 1))
    @example(body=AXIS_CASE, seed=0)
    @example(body=TINY_W_CASE, seed=0)
    @example(body=NEAR_COPY_CASE, seed=0)
    def test_no_boundary_point_is_farther(self, body, seed):
        # from random points, from each center and from the centers of the
        # balls rolled to the boundary samples
        rng = np.random.default_rng(seed)
        pts, normals = boundary_samples(body, 400)
        c = np.vstack(
            [
                rng.standard_normal((16, body.dim)) * body.radius,
                body.centers,
                pts[::7] - body.radius * normals[::7],
            ]
        )
        far = farthest_point(body, c)
        reach = np.linalg.norm(far - c, axis=1)
        cloud = np.max(np.linalg.norm(pts[None, :, :] - c[:, None, :], axis=2), axis=1)
        assert np.all(reach >= cloud - 16.0 * np.finfo(float).eps * (body.radius + np.linalg.norm(c, axis=1)))
        assert np.all(contains_many(body, far))

    def test_one_point_is_the_batch_row(self):
        c = np.array([[0.1, 0.2], [0.5, 0.0], [-0.3, 0.4]])
        batch = farthest_point(lens(), c)
        assert np.array_equal(batch, [farthest_point(lens(), x) for x in c])


class TestSphereLattice:
    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(max_balls=6), seed=st.integers(0, 2**32 - 1))
    def test_a_reused_body_answers_with_the_bits_of_a_fresh_one(self, body, seed):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = rng.standard_normal((8, body.dim)) * rng.uniform(0.1, 3.0, (8, 1)) * body.radius
            u = rng.standard_normal((8, body.dim))
            fresh = body_from_json(body_to_json(body))
            assert project_body(body, x).tobytes() == project_body(fresh, x).tobytes()
            fresh = body_from_json(body_to_json(body))
            assert support_value(body, u).tobytes() == support_value(fresh, u).tobytes()

    def test_built_once_per_body(self, monkeypatch):
        built = []
        build = bodies._sphere_lattice

        def counted(body):
            built.append(body)
            return build(body)

        monkeypatch.setattr(bodies, "_sphere_lattice", counted)
        body = BallBody(radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3)
        outer = BallBody(radius=2.0, centers=[[0.0, 0.0, 0.0]], dim=3)
        project_body(body, [[2.0, 0.0, 0.0], [0.0, 3.0, 1.0]])
        project_body(body, [0.0, 0.0, 2.0])
        support_value(body, [1.0, 1.0, 0.0])
        diameter(body)
        ball_support_check(body, 1.0, 100)
        boundary_surjectivity_probe(body, outer, 100)
        halfspace_reconstruction_gap(body, 100)
        assert len(built) == 1 and built[0] is body
        project_body(BallBody(radius=1.0, centers=body.centers, dim=3), [2.0, 0.0, 0.0])
        assert len(built) == 2

    def test_arrays_are_read_only(self):
        lattice = lens()._lattice
        for arr in (lattice.centres, lattice.radii, lattice.span, lattice.normal):
            with pytest.raises(ValueError):
                arr[...] = 0.0


class TestNormalLift:
    def test_zero_slope(self):
        lift = normal_lift(np.zeros(3)).lift
        assert np.allclose(lift, [0, 0, 0, -1])

    def test_unit_slope_1d(self):
        lift = normal_lift([1.0]).lift
        assert np.allclose(lift, np.array([1.0, -1.0]) / np.sqrt(2))

    def test_always_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            xi = rng.standard_normal(rng.integers(1, 5)) * rng.uniform(0, 10)
            lift = normal_lift(xi).lift
            assert abs(np.linalg.norm(lift) - 1.0) <= 1e-12
            assert lift[-1] < 0


class TestJson:
    def test_ball_body_round_trip(self):
        body = lens()
        again = body_from_json(body_to_json(body))
        assert isinstance(again, BallBody)
        assert np.array_equal(again.centers, body.centers)
        assert again.radius == body.radius

    def test_halfspace_round_trip(self):
        body = HalfspaceBody(
            normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[0.5] * 4
        )
        again = body_from_json(body_to_json(body))
        assert isinstance(again, HalfspaceBody)
        assert np.allclose(again.normals, body.normals)

    def test_text_input(self):
        text = json.dumps({"dim": 2, "radius": 1.0, "centers": [[0.0, 0.0]]})
        assert isinstance(body_from_json(text), BallBody)

    @pytest.mark.parametrize(
        "data, invariant",
        [
            ({"halfspaces": SQUARE_FACES + [{"normal": [math.nan, 1.0], "offset": 0.5}]}, "normals must be finite"),
            ({"halfspaces": SQUARE_FACES + [{"normal": [0.6, 0.8, 0.0], "offset": 0.5}]}, "normals must be a list of equal-length lists of numbers"),
            ({"halfspaces": SQUARE_FACES + [{"normal": [0.6, 0.8], "offset": math.inf}]}, "offsets must be finite"),
            ({"dim": 2, "radius": 1.0, "centers": [[0.1, 0.0], [0.2]]}, "centers must be a list of equal-length lists of numbers"),
            ({"dim": 2, "radius": 1.0, "centers": [[math.nan, 0.0]]}, "centers must be finite"),
            ({"dim": 2, "radius": 1.0, "centers": [[[0.1, 0.0]]]}, "centers must be a list of equal-length lists of numbers"),
            ({"dim": 2, "radius": math.inf, "centers": [[0.1, 0.0]]}, "radius must be finite"),
            ({"dim": 2, "radius": [1.0], "centers": [[0.1, 0.0]]}, "radius must be a number"),
            ({"dim": [2], "radius": 1.0, "centers": [[0.1, 0.0]]}, "dim must be a number"),
            ({"dim": 2.5, "radius": 1.0, "centers": [[0.1, 0.0]]}, "dim must be an integer"),
        ],
        ids=[
            "nan-normal", "ragged-normals", "inf-offset", "ragged-centers", "nan-center",
            "nested-centers", "inf-radius", "list-radius", "list-dim", "fractional-dim",
        ],
    )
    def test_rejects_non_finite_and_ragged_fields(self, data, invariant):
        with pytest.raises(InvalidBody, match=invariant):
            body_from_json(json.loads(json.dumps(data)))

    def test_rejects_with_diagnostic(self):
        with pytest.raises(InvalidBody, match="interior"):
            body_from_json({"dim": 2, "radius": 1.0, "centers": [[2.0, 0.0]]})
        with pytest.raises(InvalidBody, match="missing"):
            body_from_json({"dim": 2, "radius": 1.0})
        with pytest.raises(InvalidBody, match="JSON"):
            body_from_json("not json at all {")
