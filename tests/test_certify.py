import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexsmooth import certify, measure
from convexsmooth import (
    BallBody,
    HalfspaceBody,
    InsufficientData,
    DomainViolation,
    NotBallBody,
    PatchParams,
    ball_family_check,
    ball_support_check,
    cap_graph_height,
    cap_graph_hessian,
    cap_graph_hessian_check,
    certify_body,
    contains,
    enclosing_radius,
    gauge_sq_hessian_check,
    halfspace_reconstruction_gap,
    level_set_radius,
    normal_lift,
    project_body,
    subgradient_certificate,
)
from convexsmooth.bodies import MEMBERSHIP_SLACK
from convexsmooth.gauge import member_gauge_derivatives
from convexsmooth.measure import boundary_samples
from helpers import (
    AXIS_CASE,
    NEAR_COPY_CASE,
    TINY_W_CASE,
    QuadraticPatch,
    ball_bodies,
    eq39_points_reference,
    fd_jacobian,
    halfspace_gap_reference,
    pairwise_ball_support_margin,
    random_ball_body,
    unit_square,
)


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


THREE_BALL = BallBody(
    radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
)


class TestSubgradientCertificate:
    def grid_points(self):
        xs = [np.array([i * 0.5, j * 0.5]) for i in range(-2, 3) for j in range(-2, 3)]
        return [(x, float(x @ x), 2.0 * x) for x in xs]

    def test_squared_norm_passes_at_its_modulus(self):
        assert subgradient_certificate(self.grid_points(), eta=2.0).passed

    def test_absolute_value_fails_for_any_modulus(self):
        pts = [(np.array([1.0]), 1.0, np.array([1.0])),
               (np.array([2.0]), 2.0, np.array([1.0]))]
        report = subgradient_certificate(pts, eta=0.5)
        assert not report.passed
        # 2 >= 1 + 1 + eta/2 fails by exactly eta/2
        assert report.worst_witness["margin"] == pytest.approx(-0.25)

    def test_fails_just_above_the_true_modulus(self):
        assert not subgradient_certificate(self.grid_points(), eta=2.001).passed

    def test_passing_is_monotone_in_eta(self):
        pts = self.grid_points()
        for eta in [0.1, 0.7, 1.5, 2.0]:
            assert subgradient_certificate(pts, eta=eta).passed

    def test_needs_two_points(self):
        with pytest.raises(InsufficientData):
            subgradient_certificate([(np.zeros(2), 0.0, np.zeros(2))], eta=1.0)

    @pytest.mark.parametrize(
        "triple, message",
        [
            ((np.zeros(3), 0.0, np.zeros(3)), "expected x and subgradient of length 2, got lengths 3 and 3"),
            ((np.zeros(2), 0.0, np.zeros(3)), "expected x and subgradient of length 2, got lengths 2 and 3"),
            ((np.zeros(2), math.nan, np.zeros(2)), "x, value and subgradient must be finite"),
            ((np.array([0.0, math.inf]), 0.0, np.zeros(2)), "x, value and subgradient must be finite"),
            ((np.zeros(2), 0.0, np.array([-math.inf, 0.0])), "x, value and subgradient must be finite"),
        ],
        ids=["x-length", "subgradient-length", "nan-value", "inf-x", "inf-subgradient"],
    )
    def test_malformed_triples_are_named(self, triple, message):
        pts = [(np.ones(2), 2.0, 2.0 * np.ones(2)), triple, (np.zeros(2), 0.0, np.zeros(2))]
        with pytest.raises(ValueError, match=f"^triple 1: {re.escape(message)}$"):
            subgradient_certificate(pts, eta=1.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_modulus_must_be_finite(self, eta):
        with pytest.raises(ValueError, match="^eta must be finite$"):
            subgradient_certificate(self.grid_points(), eta=eta)


class TestEnclosingRadius:
    def test_worked_example_one(self):
        p = PatchParams(lipschitz=1, eta=1, r=1, r0=1, diam=2)
        assert enclosing_radius(p) == pytest.approx(4.0 * math.sqrt(2.0))

    def test_worked_example_two(self):
        p = PatchParams(lipschitz=1, eta=2, r=0.5, r0=0.5, diam=1)
        assert enclosing_radius(p) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_monotone_in_slope_radius_diameter(self):
        base = PatchParams(lipschitz=1, eta=1, r=1, r0=1, diam=2)
        r_base = enclosing_radius(base)
        assert enclosing_radius(PatchParams(2, 1, 1, 1, 2)) >= r_base
        assert enclosing_radius(PatchParams(1, 1, 1.5, 1, 2)) >= r_base
        assert enclosing_radius(PatchParams(1, 1, 1, 1, 3)) >= r_base

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchParams(lipschitz=1, eta=-1, r=1, r0=1, diam=2)
        with pytest.raises(ValueError):
            PatchParams(lipschitz=1, eta=1, r=0.5, r0=1, diam=2)


class TestBallSupport:
    def test_single_ball_supports_itself(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        assert ball_support_check(body, 1.0, 360).passed

    def test_lens_at_generating_radius(self):
        assert ball_support_check(lens(), 1.0, 720).passed

    @pytest.mark.parametrize("R", [1.0, 10.0, 100.0])
    def test_square_fails_every_radius(self, R):
        report = ball_support_check(unit_square(), R, 360)
        assert not report.passed
        # arc offset s along a face exits the ball by about s^2 / (2R)
        assert report.worst_witness["margin"] > 1e-6 / R
        assert report.worst_witness["margin"] == pytest.approx(SQUARE_MARGINS[R], abs=1e-14)
        _assert_farthest_vertex_margin(unit_square(), (0.5, 0.5), R, report)

    @pytest.mark.parametrize("R", [1.0, 10.0, 100.0])
    def test_slab_margin_is_its_farthest_vertex(self, R):
        body = HalfspaceBody(normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[1.0, 1.0, 0.25, 0.25])
        report = ball_support_check(body, R, 360)
        assert not report.passed
        _assert_farthest_vertex_margin(body, (1.0, 0.25), R, report)

    def test_larger_radius_keeps_passing(self):
        # enclosing balls grow monotonically: B(y - Rv, R) c B(y - R'v, R')
        for R in [1.0, 5.0, 50.0]:
            assert ball_support_check(lens(), R, 240).passed

    @settings(max_examples=150, deadline=None)
    @given(body=ball_bodies(), samples=st.integers(8, 400))
    def test_every_ball_body_passes_at_its_radius(self, body, samples):
        # an intersection of radius-R balls is R-spindle convex
        assert ball_support_check(body, body.radius, samples).passed

    @settings(max_examples=100, deadline=None)
    @given(
        body=ball_bodies(),
        samples=st.integers(8, 120),
        scale=st.sampled_from([1.0, 3.0, 50.0]),
    )
    @example(body=AXIS_CASE, samples=8, scale=1.0)
    @example(body=TINY_W_CASE, samples=8, scale=1.0)
    @example(body=NEAR_COPY_CASE, samples=8, scale=1.0)
    def test_margin_bounds_the_pairwise_margin(self, body, samples, scale):
        r = scale * body.radius
        report = ball_support_check(body, r, samples)
        exact = report.worst_witness["margin"]
        assert exact >= pairwise_ball_support_margin(body, r, samples) - 16.0 * np.finfo(float).eps * r
        assert contains(body, report.worst_witness["tested_point"])


# ball_support_check margins of the unit square at 360 samples
SQUARE_MARGINS = {1.0: 0.40213518957718, 10.0: 0.04818307406123, 100.0: 0.00482979881447}


def _assert_farthest_vertex_margin(body, half_widths, R, report):
    """The report's margin is the brute-force maximum, over the samples'
    rolled balls, of the distance to the rectangle's four vertices, minus R."""
    vertices = np.array([[sx * half_widths[0], sy * half_widths[1]] for sx in (1, -1) for sy in (1, -1)])
    pts, normals = boundary_samples(body, report.samples)
    centers = pts - R * normals
    brute = float(np.max(np.linalg.norm(vertices[None, :, :] - centers[:, None, :], axis=2))) - R
    assert report.worst_witness["margin"] == pytest.approx(brute, rel=1e-12, abs=1e-15)
    tested = np.array(report.worst_witness["tested_point"])
    assert np.min(np.linalg.norm(vertices - tested, axis=1)) <= 1e-12


class TestGaugeSqHessian:
    def test_unit_ball_constant(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        report = gauge_sq_hessian_check(body)
        assert report.passed
        assert report.constant == pytest.approx(0.5)
        assert report.worst_witness["min_eigenvalue"] == pytest.approx(2.0, rel=1e-15)
        assert report.worst_witness["x"] == [1.0, 0.0]
        assert report.samples == 1

    def test_lens(self):
        # 2/(R + |a|)^2 = 8/9, along either center
        report = gauge_sq_hessian_check(lens())
        assert report.passed and report.constant == pytest.approx(0.5)
        assert report.worst_witness["min_eigenvalue"] == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert report.worst_witness["x"] in ([1.0, 0.0], [-1.0, 0.0])
        assert report.samples == 2

    def test_polyhedra_rejected(self):
        with pytest.raises(NotBallBody):
            gauge_sq_hessian_check(unit_square())


def _member_floors(body):
    return 2.0 / (body.radius + np.linalg.norm(body.centers, axis=1)) ** 2


class TestProvenCurvatureFloor:
    """Sampled Hessians against the closed-form floors that the
    certificates report instead of sampling."""

    @settings(max_examples=150, deadline=None)
    @given(body=ball_bodies(), seed=st.integers(0, 2**32 - 1))
    def test_member_floor_holds_everywhere(self, body, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((64, body.dim)) * rng.uniform(0.05, 3.0, (64, 1)) * body.radius
        _, _, hess = member_gauge_derivatives(body, x)
        lam = np.linalg.eigvalsh(hess)[..., 0]
        scale = np.abs(hess).max(axis=(-2, -1))
        assert np.all(lam >= _member_floors(body) - 1e-12 * scale)

    @settings(max_examples=150, deadline=None)
    @given(body=ball_bodies())
    def test_member_floor_is_attained_at_the_witness(self, body):
        report = gauge_sq_hessian_check(body)
        floors = _member_floors(body)
        assert report.samples == len(body.centers)
        assert report.worst_witness["min_eigenvalue"] == pytest.approx(floors.min(), rel=1e-12)
        assert report.passed and floors.min() >= report.constant
        # the witness direction is a member's own minimizer
        u = np.array(report.worst_witness["x"])
        _, _, hess = member_gauge_derivatives(body, u[None, :])
        lam = np.linalg.eigvalsh(hess[0])[:, 0]
        assert np.any(np.abs(lam / floors - 1.0) <= 1e-12)


class TestLevelSetFromBallSupport:
    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(), samples=st.integers(8, 200))
    @example(body=BallBody(radius=0.5, centers=[[0.0, 0.0], [5e-7, 0.0]], dim=2), samples=8)
    def test_margins_at_the_level_set_radius_are_at_most_those_at_R(self, body, samples):
        # the farthest pick may lie up to MEMBERSHIP_SLACK outside a ball,
        # so the margins carry that slack besides rounding (certify_body's
        # level_set_e comment); on the pinned body it shows as 1.9e-13
        R = body.radius
        radius_e = 16.0 * R * R / body.interior_radius
        at_R = ball_support_check(body, R, samples).worst_witness["margin"]
        at_e = ball_support_check(body, radius_e, samples).worst_witness["margin"]
        assert at_e <= at_R + MEMBERSHIP_SLACK + 8.0 * np.finfo(float).eps * radius_e

    def test_thin_lens_rounding_stays_within_eight_ulp(self):
        thin = BallBody(radius=1.0, centers=[[0.99, 0.0], [-0.99, 0.0]], dim=2)
        radius_e = 16.0 / thin.interior_radius  # 1600
        at_R = ball_support_check(thin, 1.0, 360).worst_witness["margin"]
        at_e = ball_support_check(thin, radius_e, 360).worst_witness["margin"]
        assert at_e > at_R  # rounding of the larger radius shows
        assert at_e <= at_R + 8.0 * np.finfo(float).eps * radius_e

    @pytest.mark.parametrize("body", [lens(), THREE_BALL], ids=["lens", "three-ball"])
    def test_suite_runs_one_ball_support_check(self, body, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return ball_support_check(*args)

        monkeypatch.setattr(certify, "ball_support_check", counted)
        reports = {r.condition: r for r in certify_body(body, 100)}
        assert calls == [body.radius]
        b, e = reports["ball_support_b"], reports["level_set_e"]
        assert e.passed == b.passed and e.samples == b.samples
        assert e.constant == pytest.approx(16.0 * body.radius**2 / body.interior_radius, rel=1e-15)
        assert e.worst_witness == {"implied_by": "ball_support_b", "margin_bound": b.worst_witness["margin"]}


    @pytest.mark.parametrize(
        "make",
        [lens, lambda: BallBody(radius=1.0, centers=THREE_BALL.centers, dim=3), unit_square],
        ids=["lens", "three-ball", "square"],
    )
    def test_suite_draws_each_sample_set_once(self, make, monkeypatch):
        # ball_support_b, ball_family_c and the reconstruction gap (a
        # halfspace body's three ball_support_b radii) share one draw per
        # body and sample count
        draws = []
        radial = measure.radial_function

        def counted(body, dirs):
            draws.append(len(dirs))
            return radial(body, dirs)

        monkeypatch.setattr(measure, "radial_function", counted)
        body = make()
        first = [r.to_json() for r in certify_body(body, 100)]
        assert len(draws) == 1
        assert [r.to_json() for r in certify_body(body, 100)] == first
        assert len(draws) == 1
        certify_body(body, 200)
        assert len(draws) == 2


    @pytest.mark.parametrize("make", [lens, unit_square], ids=["lens", "square"])
    def test_suite_checks_the_sample_count_first(self, make, monkeypatch):
        ran = []
        for name in ("subgradient_certificate", "ball_support_check"):
            monkeypatch.setattr(certify, name, lambda *args, _name=name, **kwargs: ran.append(_name))
        with pytest.raises(ValueError, match="^samples must be >= 8$"):
            certify_body(make(), 7)
        assert ran == []

    @pytest.mark.parametrize("dim", [2, 3])
    def test_eq39_points_are_the_per_point_draws(self, dim):
        table = certify._eq39_points(dim)
        assert table.shape == (48, dim) and not table.flags.writeable
        assert certify._eq39_points(dim) is table
        for radius in (0.01, 0.37, 1.0, 8.0, 100.0):
            assert (table * radius).tobytes() == eq39_points_reference(dim, radius).tobytes()
        body = lens() if dim == 2 else THREE_BALL
        report = certify_body(body, 100)[0]
        points = eq39_points_reference(dim, body.radius).tolist()
        assert report.worst_witness["x"] in points and report.worst_witness["y"] in points


class TestLevelSetRadius:
    def test_values(self):
        assert level_set_radius(2.0, 0.5) == pytest.approx(4.0)
        assert level_set_radius(1.0, 1.0) == pytest.approx(1.0)

    def test_squared_norm_realization(self):
        # g = |x|^2 has eta = 2 and slope bound 2 sup|x| = 2 on {g <= 1},
        # so the sublevel set (the unit ball) must support radius L/eta = 1
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        R = level_set_radius(2.0, 2.0)
        assert R == pytest.approx(1.0)
        assert ball_support_check(body, R, 360).passed


class TestCapGraph:
    def test_touching_point_identity_hessian(self):
        report = cap_graph_hessian_check(1.0, np.zeros(1), [np.zeros(1)])
        assert report.passed
        assert report.worst_witness["min_eigenvalue"] == pytest.approx(1.0)

    def test_eigenvalue_families_at_unit_offset(self):
        # R = 2 and |w| = 1: radial 4/3^1.5, tangential 1/sqrt(3)
        report = cap_graph_hessian_check(2.0, np.zeros(2), [np.array([1.0, 0.0])])
        assert report.passed
        assert report.worst_witness["min_eigenvalue"] == pytest.approx(1.0 / math.sqrt(3.0))
        hess = cap_graph_hessian(2.0, np.zeros(2), np.array([1.0, 0.0]))
        eigs = np.linalg.eigvalsh(hess)
        assert eigs[1] == pytest.approx(4.0 / 3.0**1.5)
        assert eigs[0] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            R = rng.uniform(1.0, 3.0)
            xi = rng.standard_normal(2) * 0.3
            z = rng.standard_normal(2) * 0.2
            if np.linalg.norm(z + R * xi) >= 0.9 * R:
                continue
            h_cf = cap_graph_hessian(R, xi, z)

            def grad(y):
                return fd_jacobian(
                    lambda w: np.array([cap_graph_height(R, xi, w)]), y, h=1e-6
                ).ravel()

            h_fd = fd_jacobian(grad, z, h=1e-5)
            assert np.abs(0.5 * (h_fd + h_fd.T) - h_cf).max() <= 1e-5 * (1 + np.abs(h_cf).max())

    def test_needs_an_offset(self):
        with pytest.raises(InsufficientData):
            cap_graph_hessian_check(1.0, np.zeros(2), [])

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            cap_graph_hessian_check(1.0, np.zeros(2), [np.array([2.0, 0.0])])
        with pytest.raises(DomainViolation):
            cap_graph_height(1.0, np.array([1.5, 0.0]), np.zeros(2))


@st.composite
def _gap_bodies(draw):
    """Ball bodies of 1-12 balls, near copies and +-0.999 lenses included,
    scaled to a radius between 0.01 and 100."""
    tip = [[0.999], [-0.999]]
    thin_lens = st.sampled_from([2, 3]).map(lambda dim: BallBody(radius=1.0, centers=tip * np.eye(1, dim), dim=dim))
    body = draw(st.one_of(ball_bodies(max_balls=12), thin_lens))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0)) / body.radius
    return BallBody(radius=body.radius * scale, centers=body.centers * scale, dim=body.dim)


class TestHalfspaceReconstruction:
    def test_dense_sampling_matches_polygon_geometry(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        gap = halfspace_reconstruction_gap(body, 360)
        assert gap <= 1.0 / math.cos(math.pi / 360.0) - 1.0 + 1e-9

    def test_four_samples_circumscribe_a_square(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        gap = halfspace_reconstruction_gap(body, 4)
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-9)

    def test_nested_sampling_shrinks_the_gap(self):
        body = lens()
        gaps = [halfspace_reconstruction_gap(body, k) for k in (16, 32, 64, 128)]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(body=_gap_bodies(), samples=st.integers(4, 1000))
    # the vertex of largest s(v) is not the farthest from the body
    @example(
        body=BallBody(
            radius=1.0,
            centers=[[-0.05, 0.02, -0.02], [0.25, 0.13, -0.05], [-0.14, -0.13, 0.61], [-0.27, -0.01, -0.52]],
            dim=3,
        ),
        samples=16,
    )
    def test_pruned_gap_is_the_gap_of_every_vertex(self, body, samples):
        gap = halfspace_reconstruction_gap(body, samples)
        fresh = BallBody(radius=body.radius, centers=body.centers, dim=body.dim)
        assert np.float64(gap).tobytes() == np.float64(halfspace_gap_reference(fresh, samples)).tobytes()

    @pytest.mark.parametrize(
        "radius, centers, samples",
        [
            (0.01, [[0.0, 0.0]], 8500),
            (100.0, [[0.0, 0.0]], 12000),
            (
                0.23110825560250928,
                [[-1.6882327893094732e-11, -6.264025909716651e-12], [-4.46112622905098e-12, 9.951335947681504e-13]],
                24740,
            ),
        ],
        ids=["disc-0.01", "disc-100", "near-copies"],
    )
    def test_near_ties_keep_the_gap_of_every_vertex(self, radius, centers, samples):
        # on a disc about the origin every vertex is equally far from the
        # body, and its bound u(v) = s(v) is tight: the computed distances
        # differ by rounding alone, so only the margin's absolute part
        # keeps the vertex whose computed distance is the largest
        body = BallBody(radius=radius, centers=centers, dim=2)
        gap = halfspace_reconstruction_gap(body, samples)
        fresh = BallBody(radius=radius, centers=centers, dim=2)
        assert np.float64(gap).tobytes() == np.float64(halfspace_gap_reference(fresh, samples)).tobytes()

    def test_only_vertices_that_can_attain_the_gap_are_projected(self, monkeypatch):
        projected = []

        def counted(body, x):
            projected.append(len(x))
            return project_body(body, x)

        monkeypatch.setattr(certify, "project_body", counted)
        halfspace_reconstruction_gap(THREE_BALL, 360)
        # 21 of the 1,280 vertices, with scipy 1.17's qhull
        assert len(projected) == 1 and projected[0] < 64


class TestRepresentationCheck:
    def test_random_bodies(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            body = random_ball_body(rng, 2, 4)
            assert ball_family_check(body, 240).passed


class TestPatchContainment:
    def test_enclosing_radius_feeds_ball_support(self):
        # graph-patch fixtures: quadratic plus tilt, measured constants,
        # every graph point must lie in the ball rolled at every other one
        rng = np.random.default_rng(5)
        for _ in range(5):
            patch = QuadraticPatch(rng, 2)
            params = PatchParams(
                lipschitz=patch.lipschitz,
                eta=patch.eta,
                r=patch.r,
                r0=patch.r,
                diam=patch.diam_bound,
            )
            R = enclosing_radius(params)
            ts = patch.sample_domain(rng, 40)
            graph = np.column_stack([ts, [patch.value(t) for t in ts]])
            worst = -np.inf
            for t, z in zip(ts, graph):
                lift = normal_lift(patch.grad(t))
                center = z - R * lift
                margins = np.linalg.norm(graph - center, axis=1) - R
                worst = max(worst, float(np.max(margins)))
            assert worst <= 1e-9
