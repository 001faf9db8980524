import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexsmooth import bodies
from convexsmooth import (
    Ball,
    BallBody,
    BracketFailure,
    HalfspaceBody,
    InvalidBody,
    NotBallBody,
    ball_family_check,
    ball_support_check,
    body_from_json,
    body_to_json,
    boundary_projection,
    boundary_surjectivity_probe,
    contains,
    diameter,
    extract_smoothed_body,
    halfspace_reconstruction_gap,
    member_gauge_derivatives,
    member_gauges,
    normal_lift,
    outward_normal,
    project_body,
    support_value,
)
from convexsmooth.bodies import MEMBERSHIP_SLACK, contains_many, farthest_point
from convexsmooth.gauge import body_gauge_values
from convexsmooth.grids import icosphere
from convexsmooth.measure import boundary_samples, radial_function
from convexsmooth.project import _ray_exits
from helpers import (
    AXIS_CASE,
    NEAR_COPY_CASE,
    TINY_W_CASE,
    ball_bodies,
    bench_corpus,
    boundary_cloud,
    contains_many_reference,
    extreme_picks_reference,
    extreme_points_reference,
    extreme_queries,
    halfspace_body_vertices_reference,
    many_ball_body,
    outward_normal_reference,
    project_body_reference,
    random_ball_body,
    ray_exits_reference,
    sphere_lattice_reference,
    support_value_reference,
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
            (["a", 0.0], 1.0, "ball center must be a list of numbers"),
            ([True, 0.0], 1.0, "ball center must be a list of numbers"),
            (0.5, 1.0, "ball center must be a list of numbers"),
        ],
        ids=[
            "nan-center-inf-radius", "nan-center", "inf-center", "nan-radius", "list-radius",
            "string-center", "bool-center", "number-center",
        ],
    )
    def test_single_ball_rejects_non_finite_fields(self, center, radius, invariant):
        with pytest.raises(InvalidBody, match=invariant):
            Ball(center=center, radius=radius)


@pytest.mark.parametrize(
    "call",
    [
        lambda body: project_body(body, [2.0, 0.0]),
        lambda body: support_value(body, [1.0, 0.0]),
        lambda body: diameter(body),
        lambda body: extract_smoothed_body(body, delta=1e-3, epsilon=0.05),
        lambda body: boundary_projection(body, [2.0, 0.0]),
        lambda body: boundary_surjectivity_probe(
            body, BallBody(radius=2.0, centers=[[0.0, 0.0]], dim=2), 64
        ),
        lambda body: member_gauges(body, [[0.1, 0.2]]),
        lambda body: member_gauge_derivatives(body, [[0.1, 0.2]]),
        lambda body: body_gauge_values(body, [[0.1, 0.2]]),
        lambda body: ball_family_check(body, 64),
        lambda body: halfspace_reconstruction_gap(body, 64),
    ],
    ids=["project_body", "support_value", "diameter", "extract_smoothed_body",
         "boundary_projection", "probe-inner", "member_gauges", "member_gauge_derivatives",
         "body_gauge_values", "ball_family_check", "halfspace_reconstruction_gap"],
)
def test_ball_only_entry_points_reject_a_halfspace_body(call):
    # each reads the ball family (centers, radius, sphere lattice); a
    # halfspace body used to fail deep inside with an AttributeError
    with pytest.raises(NotBallBody, match="needs a BallBody, got a HalfspaceBody"):
        call(unit_square())


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
        with pytest.raises(ValueError, match="direction 1 is zero"):
            support_value(lens(), [[1e-300, 0.0], [0.0, 0.0]])

    def test_a_direction_whose_square_underflows_is_not_zero(self):
        assert support_value(lens(), [1e-300, 0.0]) == support_value(lens(), [1.0, 0.0])
        tiny = support_value(lens(), [[1e-300, 0.0], [0.3, 0.4], [0.0, -5e-324]])
        assert tiny.tobytes() == support_value(lens(), [[1.0, 0.0], [0.3, 0.4], [0.0, -1.0]]).tobytes()

    def test_a_direction_whose_square_overflows_is_not_infinite(self):
        assert support_value(lens(), [1e200, 0.0]) == support_value(lens(), [1.0, 0.0])
        huge = support_value(lens(), [[0.0, -1e300], [0.3, 0.4]])
        assert huge.tobytes() == support_value(lens(), [[0.0, -1.0], [0.3, 0.4]]).tobytes()


# nearly degenerate bodies: a thin lens of two balls 1e-4 R from tangency,
# with a third ball about the origin. The rim, the circle where the two
# spheres meet, has radius 0.014 R. On the first (its centers rounded as
# they were logged) the pick fell 7.2e-15 short of the boundary cloud; on
# the second it falls 2.7 times the old allowance of 16 ulp (R + |c|) short
RIM_CASES = [
    BallBody(radius=1.0, centers=[[0.0, 0.0, 0.0], [0.9999, 0.0, 0.0], [-0.99989982, 5.98e-4, 0.0]], dim=3),
    BallBody(
        radius=1.0,
        centers=[[0.0, 0.0, 0.0], [0.9999, 0.0, 0.0], [-0.9998999894873704, 0.00014499364393962235, 0.0]],
        dim=3,
    ),
]


class TestFarthestPoint:
    @settings(max_examples=100, deadline=None)
    @given(body=ball_bodies(), seed=st.integers(0, 2**32 - 1))
    @example(body=AXIS_CASE, seed=0)
    @example(body=TINY_W_CASE, seed=0)
    @example(body=NEAR_COPY_CASE, seed=0)
    @example(body=RIM_CASES[0], seed=0)
    @example(body=RIM_CASES[1], seed=0)
    def test_no_boundary_point_is_farther(self, body, seed):
        # from random points, from each center and from the centers of the
        # balls rolled to the boundary samples. The farthest point x* lies
        # on some intersection sphere S, whose candidate is computed within
        # the rounding of its centre and radius: r_S = sqrt(R^2 - |c_S -
        # a_0|^2) loses up to ~5 ulp of R^2 to the difference, so r_S is
        # off by up to 2.5 ulp R^2/r_S, a thousand ulp on a 0.014 R rim.
        # So |x* - c| is at most the largest, over feasible candidates, of
        # distance + 4 ulp R^2/r_S, and the pick, the farthest feasible
        # candidate, falls short by at most that excess, plus 16 ulp
        # (1 + |c|) for the distances and the cloud's own rounding
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
        eps = np.finfo(float).eps
        cand, feasible = extreme_points_reference(body, c, "farthest")
        radius_error = 4.0 * eps * body.radius**2 / np.tile(body._lattice.radii, 2)
        dist = np.linalg.norm(cand - c[:, None, :], axis=2)
        assert np.all(reach == np.max(np.where(feasible, dist, -np.inf), axis=1))
        excess = np.max(np.where(feasible, dist + radius_error, -np.inf), axis=1) - reach
        assert np.all(reach >= cloud - 16.0 * eps * (1.0 + np.linalg.norm(c, axis=1)) - excess)
        assert np.all(contains_many(body, far))

    def test_one_point_is_the_batch_row(self):
        c = np.array([[0.1, 0.2], [0.5, 0.0], [-0.3, 0.4]])
        batch = farthest_point(lens(), c)
        assert np.array_equal(batch, [farthest_point(lens(), x) for x in c])


THREE_BALL = BallBody(
    radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
)


class TestHalfspaceFarthestPoint:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "make",
        [
            lambda corpus, rng: corpus.box(rng, 2, 0.5, 1.5),
            lambda corpus, rng: corpus.box(rng, 3, 0.5, 1.5),
            lambda corpus, rng: corpus.polygon_2d(rng),
        ],
        ids=["box-2d", "box-3d", "polygon"],
    )
    def test_vertices_and_farthest_points_are_qhull_s(self, make, seed):
        # the face subsets' vertices and qhull's agree within 1e-14, and so
        # do the distances to the farthest of them from any point: over 200
        # seeds of each shape, offsets up to 1.5 and points at about 2, the
        # worst were 9.0e-16 and 3.6e-15
        rng = np.random.default_rng(seed)
        body = body_from_json(make(bench_corpus(), rng))
        got, ref = bodies._halfspace_vertices(body), halfspace_body_vertices_reference(body)
        assert len(got) == len(ref)
        apart = np.linalg.norm(got[:, None] - ref[None], axis=2)
        assert max(apart.min(axis=0).max(), apart.min(axis=1).max()) <= 1e-14
        x = 2.0 * rng.standard_normal((32, body.dim))
        reach = np.max(np.linalg.norm(ref[None] - x[:, None], axis=2), axis=1)
        assert np.allclose(np.linalg.norm(farthest_point(body, x) - x, axis=1), reach, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "normals",
        [
            [[1.0, 0.0], [-1.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]],
        ],
        ids=["slab", "half-strip", "open-box"],
    )
    def test_faces_that_bound_no_polytope_are_named(self, normals):
        body = HalfspaceBody(normals=normals, offsets=[1.0] * len(normals))
        with pytest.raises(BracketFailure, match=r"^the halfspace body's faces bound no polytope: it is unbounded along \["):
            farthest_point(body, np.zeros(body.dim))


class TestScale:
    """The membership slack is relative to R, so a scaled body answers with
    the scaled answers of the unit body. With an absolute slack the
    rounding of a candidate outgrew it: at 3e4 R one in eight exterior
    projections of the three-ball body found no feasible candidate and
    returned a point off by up to R."""

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.builds(
            lambda seed, dim, m: random_ball_body(np.random.default_rng(seed), dim, m),
            st.integers(0, 2**32 - 1),
            st.sampled_from([2, 3]),
            st.integers(1, 8),
        ),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 8.0),
    )
    @example(body=THREE_BALL, seed=0, log_scale=math.log10(3e4))
    @example(body=lens(), seed=0, log_scale=math.log10(3e4))
    def test_a_scaled_body_gives_the_scaled_answers(self, body, seed, log_scale):
        # well-separated balls, since the scaled centers carry rounding that
        # near-tangent or near-copy balls amplify. 64 ulp of the scaled R:
        # over 3,000 examples the worst was 17 ulp (a farthest point), and
        # 3.4 ulp for projections and support values
        rng = np.random.default_rng(seed)
        s = 10.0**log_scale
        scaled = BallBody(radius=s * body.radius, centers=s * body.centers, dim=body.dim)
        u = rng.standard_normal((12, body.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = u * rng.uniform(0.0, 3.0, (12, 1)) * body.radius
        tol = 64.0 * np.finfo(float).eps * scaled.radius
        pairs = [
            (project_body(scaled, s * x), project_body(body, x)),
            (support_value(scaled, u), support_value(body, u)),
            (farthest_point(scaled, s * x), farthest_point(body, x)),
            (diameter(scaled), diameter(body)),
        ]
        for got, unit in pairs:
            assert np.max(np.abs(got - s * unit)) <= tol


class TestNonFiniteQueries:
    """A query with a coordinate that is not finite has no answer; it used
    to come back as the first candidate, nan or a misleading message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "call",
        [project_body, support_value, farthest_point, outward_normal],
        ids=["project_body", "support_value", "farthest_point", "outward_normal"],
    )
    def test_the_row_is_named(self, call, bad):
        with pytest.raises(ValueError, match=r"row 0 of the query, \[.*\], is not finite"):
            call(lens(), [bad, 0.0])
        batch = [[0.3, 0.2], [2.0, 0.0], [0.0, bad], [bad, 1.0]]
        with pytest.raises(ValueError, match=r"row 2 of the query, \[.*\], is not finite"):
            call(lens(), batch)

    @pytest.mark.parametrize(
        "body, x",
        [
            (lens(), [0.0, 1e155]),
            (lens(), [0.0, 1e200]),
            (lens(), [0.0, -1e200]),
            (THREE_BALL, [1e160, 1e160, 0.0]),
        ],
        ids=["lens-1e155", "lens-1e200", "lens-minus-1e200", "three-ball-1e160"],
    )
    @pytest.mark.parametrize("call", [project_body, farthest_point], ids=["project_body", "farthest_point"])
    def test_a_row_whose_squares_overflow_is_named(self, call, body, x):
        # every distance overflows, and the first candidate came back
        with pytest.raises(ValueError, match=r"^row 1 of the query, \[.*\], is too large: its squared distances overflow$"):
            call(body, [np.zeros(body.dim), x])
        with pytest.raises(ValueError, match=r"^row 0 of the query"):
            call(body, x)

    def test_a_row_whose_squares_fit_is_answered(self):
        assert np.allclose(project_body(lens(), [0.0, 1e154]), [0.0, math.sqrt(0.75)], rtol=0.0, atol=1e-15)

    def test_a_halfspace_body_names_the_row_too(self):
        with pytest.raises(ValueError, match="row 1 of the query"):
            farthest_point(unit_square(), [[0.2, 0.1], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="row 0 of the query"):
            outward_normal(unit_square(), [np.inf, 0.0])


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

    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(max_balls=12))
    @example(body=many_ball_body())
    @example(body=NEAR_COPY_CASE)
    @example(body=TINY_W_CASE)
    def test_arrays_equal_the_padded_form(self, body):
        # np.einsum's bits depend on strides, so the layout must match too
        L = body._lattice
        for got, ref in zip((L.centres, L.radii, L.span, L.normal), sphere_lattice_reference(body)):
            assert (got.dtype, got.shape, got.strides) == (ref.dtype, ref.shape, ref.strides)
            assert got.tobytes() == ref.tobytes()

    def test_arrays_are_read_only(self):
        lattice = lens()._lattice
        for arr in (lattice.centres, lattice.radii, lattice.span, lattice.normal):
            with pytest.raises(ValueError):
                arr[...] = 0.0


MODES = ("nearest", "support", "farthest")


class TestExtremePointEngine:
    @settings(max_examples=80, deadline=None)
    @given(body=ball_bodies(max_balls=12), seed=st.integers(0, 2**32 - 1))
    @example(body=AXIS_CASE, seed=0)
    @example(body=TINY_W_CASE, seed=0)
    @example(body=NEAR_COPY_CASE, seed=0)
    # a zero direction in support mode once met no feasible candidate here
    @example(
        body=BallBody(
            radius=1.0, centers=[[0.9, 0.0], [-0.89, 0.0], [0.9, 0.0], [-0.41573069, 0.90838813]], dim=2
        ),
        seed=0,
    )
    def test_bit_equal_to_the_einsum_and_norm_forms(self, body, seed):
        # support mode takes nonzero directions (support_value refuses the
        # zero rows by name); the other modes take every row, zeros included
        x = extreme_queries(body, seed)
        u = x[np.linalg.norm(x, axis=1) > 0.0]
        for mode in MODES:
            rows = u if mode == "support" else x
            cand, feasible = bodies._candidates(body._lattice, rows, mode)
            ref_cand, ref_feasible = extreme_points_reference(body, rows, mode)
            assert np.moveaxis(cand, 0, -1).tobytes() == ref_cand.tobytes(), mode
            assert np.array_equal(feasible, ref_feasible), mode
            points, scores = bodies._extreme_points(body, rows, mode)
            ref_points, ref_scores = extreme_picks_reference(body, rows, mode)
            assert points.tobytes() == ref_points.tobytes(), mode
            assert scores.tobytes() == ref_scores.tobytes(), mode
        assert np.array_equal(contains_many(body, x), contains_many_reference(body, x))
        assert project_body(body, x).tobytes() == project_body_reference(body, x).tobytes()
        far = extreme_picks_reference(body, x, "farthest")[0]
        assert farthest_point(body, x).tobytes() == far.tobytes()
        assert support_value(body, u).tobytes() == support_value_reference(body, u).tobytes()
        # rows 28 and 29 of the queries are the origin
        with pytest.raises(ValueError, match="direction 28 is zero"):
            support_value(body, x)
        # boundary points: samples, and projections of points 3 R out
        pts, normals = boundary_samples(body, 40)
        y = np.vstack([pts, project_body(body, 3.0 * body.radius * u / np.linalg.norm(u, axis=1)[:, None])])
        assert outward_normal(body, y).tobytes() == outward_normal_reference(body, y).tobytes()
        assert _ray_exits(body, pts, normals).tobytes() == ray_exits_reference(body, pts, normals).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_blocks_give_the_rows_of_one_at_a_time_calls(self, mode):
        body = many_ball_body()
        per_row = len(body._lattice.radii) * (2 if mode == "farthest" else 1) * body.num_balls
        B = bodies._BLOCK_ROWS // per_row
        assert B > 2
        x = np.random.default_rng(3).standard_normal((2 * B + 3, 3)) * 2.0
        if mode == "support":
            x /= np.linalg.norm(x, axis=1)[:, None]
        singles = [bodies._extreme_points(body, x[i : i + 1], mode) for i in range(len(x))]
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
            points, scores = bodies._extreme_points(body, x[:n], mode)
            assert points.shape == (n, 3) and scores.shape == (n,)
            assert points.tobytes() == b"".join(p.tobytes() for p, _ in singles[:n])
            assert scores.tobytes() == b"".join(h.tobytes() for _, h in singles[:n])

    def test_projection_blocks_give_the_rows_of_one_at_a_time_calls(self):
        # project_body resolves its queries in blocks of candidate_rows rows;
        # batches around that size mix interior, boundary and exterior rows,
        # with exterior rows on each side of every block boundary
        body = many_ball_body()
        B = bodies._BLOCK_ROWS // (len(body._lattice.radii) * body.num_balls)
        assert B > 2
        rng = np.random.default_rng(6)
        n = 2 * B + 3
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        exterior = u * rng.uniform(1.05, 3.0, (n, 1))
        x = u * rng.uniform(0.0, 0.9 * body.interior_radius, (n, 1))
        kind = rng.integers(0, 3, n)  # 0 interior, 1 boundary, 2 exterior
        kind[[B - 1, B, 2 * B - 1, 2 * B, n - 1]] = 2
        x[kind == 2] = exterior[kind == 2]
        boundary = project_body(body, exterior[:64])
        x[kind == 1] = boundary[np.arange(np.count_nonzero(kind == 1)) % 64]
        inside = contains_many(body, x)
        assert np.array_equal(inside, kind != 2)
        assert set(kind.tolist()) == {0, 1, 2}
        singles = np.array([project_body(body, row) for row in x])
        for rows in (B - 1, B, B + 1, 2 * B + 3):
            batch = project_body(body, x[:rows])
            assert batch.tobytes() == singles[:rows].tobytes(), rows
            assert batch.tobytes() == project_body_reference(body, x[:rows]).tobytes(), rows
        assert np.array_equal(singles[inside], x[inside])

    def test_membership_blocks_give_the_rows_of_one_at_a_time_calls(self):
        body = many_ball_body()
        B = bodies._BLOCK_ROWS // body.num_balls
        x = np.random.default_rng(4).standard_normal((2 * B + 3, 3)) * 0.5
        singles = np.array([contains_many(body, x[i : i + 1])[0] for i in range(len(x))])
        assert 0 < np.count_nonzero(singles) < len(x)
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
            assert np.array_equal(contains_many(body, x[:n]), singles[:n])

    def test_projection_memory_does_not_grow_with_the_query_count(self):
        # blocks are reduced to their picks, so only the (N, n) input and
        # output grow with N, not the (N, spheres, n) candidates
        body = many_ball_body()
        body._lattice  # enumerated before measuring
        rng = np.random.default_rng(5)
        peaks = []
        for n in (2000, 20000):
            u = rng.standard_normal((n, 3))
            x = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(1.0, 3.0, (n, 1))
            tracemalloc.start()
            try:
                project_body(body, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


PINNED_BODIES = ("LENS", "THIN_99", "THIN_995", "THIN_9995", "THREE_BALL")


def one_row_queries(body: BallBody, seed: int = 11) -> dict:
    """Single queries of each kind on a body: interior points (the origin
    among them), boundary points, points out along the normal of a smooth
    boundary point (face-exterior), and points out along the averaged
    normal at a vertex, where n spheres meet (vertex-exterior)."""
    rng = np.random.default_rng(seed)
    R, n = body.radius, body.dim
    u = rng.standard_normal((12, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    interior = np.vstack([np.zeros(n), u * rng.uniform(0.0, 0.9 * body.interior_radius, (12, 1))])
    pts, normals = boundary_samples(body, 24)
    # samples on one sphere only: the grid misses every ridge and vertex
    face = np.count_nonzero(bodies._active_spheres(body, pts)[2], axis=1) == 1
    face_out = pts[face] + normals[face] * rng.uniform(0.01, 2.0, (np.count_nonzero(face), 1)) * R
    # the points of the lattice's 0-spheres, n centers each, in the body
    L = body._lattice
    ends = np.flatnonzero(np.abs(L.span[n - 2]).sum(axis=0) > 0.0)
    tips = np.vstack([(L.centres + sign * L.radii * L.normal[0]).T[ends] for sign in (1.0, -1.0)])
    vertices = tips[contains_many(body, tips)]
    assert len(vertices) >= 2
    # four directions per vertex, random positive combinations of the
    # normals of its spheres: each inside the vertex's normal cone
    diff, _, active = bodies._active_spheres(body, np.repeat(vertices, 4, axis=0))
    assert np.all(np.count_nonzero(active, axis=1) == n)
    d = np.einsum("vm,vmn->vn", active * rng.uniform(0.05, 1.0, active.shape), diff)
    d *= rng.uniform(0.01, 2.0, (len(d), 1)) * R / np.linalg.norm(d, axis=1)[:, None]
    vertex_out = np.repeat(vertices, 4, axis=0) + d
    boundary = np.vstack([pts, vertices, project_body_reference(body, vertex_out)])
    return {"interior": interior, "boundary": boundary, "face": face_out, "vertex": vertex_out}


class TestOneRowQueries:
    """A one-row query is one block, resolved in one pass; each kind of
    row equals the reference forms of tests/helpers.py bit for bit."""

    @pytest.mark.parametrize("name", PINNED_BODIES)
    def test_projection_support_and_farthest_point_of_one_row(self, name):
        body = body_from_json(getattr(bench_corpus(), name))
        queries = one_row_queries(body)
        assert all(len(rows) for rows in queries.values())
        for kind, rows in queries.items():
            inside = contains_many(body, rows)
            assert inside.all() if kind in ("interior", "boundary") else not inside.any(), kind
            for x in rows:
                row = x[None]
                p = project_body(body, x)
                assert p.tobytes() == project_body_reference(body, row)[0].tobytes(), kind
                if kind in ("interior", "boundary"):
                    assert p.tobytes() == x.tobytes() and not np.shares_memory(p, x), kind
                far = extreme_picks_reference(body, row, "farthest")[0][0]
                assert farthest_point(body, x).tobytes() == far.tobytes(), kind
                if np.any(x):
                    h = support_value_reference(body, row)[0]
                    assert np.float64(support_value(body, x)).tobytes() == h.tobytes(), kind


class TestNormalLift:
    def test_zero_slope(self):
        assert np.allclose(normal_lift(np.zeros(3)), [0, 0, 0, -1])

    def test_unit_slope_1d(self):
        assert np.allclose(normal_lift([1.0]), np.array([1.0, -1.0]) / np.sqrt(2))

    def test_always_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            xi = rng.standard_normal(rng.integers(1, 5)) * rng.uniform(0, 10)
            lift = normal_lift(xi)
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
            ({"dim": "2", "radius": 1.0, "centers": [[0.1, 0.0]]}, "dim must be a number"),
            ({"dim": True, "radius": 1.0, "centers": [[0.1, 0.0]]}, "dim must be a number"),
            ({"dim": 2, "radius": True, "centers": [[0.1, 0.0]]}, "radius must be a number"),
            ({"dim": 2, "radius": "1", "centers": [[0.1, 0.0]]}, "radius must be a number"),
            ({"dim": 2, "radius": 1.0, "centers": [["0.5", 0.0]]}, "centers must be a list of equal-length lists of numbers"),
            ({"dim": 2, "radius": 1.0, "centers": [[0.5, True]]}, "centers must be a list of equal-length lists of numbers"),
            ({"halfspaces": SQUARE_FACES + [{"normal": ["1", 0], "offset": 0.5}]}, "normals must be a list of equal-length lists of numbers"),
            ({"halfspaces": SQUARE_FACES + [{"normal": [0.0, True], "offset": 0.5}]}, "normals must be a list of equal-length lists of numbers"),
            ({"halfspaces": SQUARE_FACES + [{"normal": [0.6, 0.8], "offset": "0.5"}]}, "offsets must be a list of numbers"),
            ({"halfspaces": SQUARE_FACES + [{"normal": [0.6, 0.8], "offset": True}]}, "offsets must be a list of numbers"),
        ],
        ids=[
            "nan-normal", "ragged-normals", "inf-offset", "ragged-centers", "nan-center",
            "nested-centers", "inf-radius", "list-radius", "list-dim", "fractional-dim",
            "string-dim", "bool-dim", "bool-radius", "string-radius", "string-center",
            "bool-in-centers", "string-normal", "bool-in-normal", "string-offset", "bool-offset",
        ],
    )
    def test_rejects_non_finite_and_ragged_fields(self, data, invariant):
        with pytest.raises(InvalidBody, match=invariant):
            body_from_json(json.loads(json.dumps(data)))

    def test_integers_are_numbers(self):
        body = body_from_json({"dim": 2, "radius": 2, "centers": [[1, 0], [-1, 0]]})
        assert body == BallBody(radius=2.0, centers=[[1.0, 0.0], [-1.0, 0.0]], dim=2)
        square = body_from_json({"halfspaces": [{"normal": n, "offset": 1} for n in ([1, 0], [-1, 0], [0, 1], [0, -1])]})
        assert np.array_equal(square.offsets, [1.0] * 4)

    def test_rejects_with_diagnostic(self):
        with pytest.raises(InvalidBody, match="interior"):
            body_from_json({"dim": 2, "radius": 1.0, "centers": [[2.0, 0.0]]})
        with pytest.raises(InvalidBody, match="missing"):
            body_from_json({"dim": 2, "radius": 1.0})
        with pytest.raises(InvalidBody, match="JSON"):
            body_from_json("not json at all {")
