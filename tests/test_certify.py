import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexsmooth import certify, grids, measure
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
    boundary_surjectivity_probe,
    normal_lift,
    project_body,
    subgradient_certificate,
)
from convexsmooth.bodies import MEMBERSHIP_SLACK, NORMAL_ATOL
from convexsmooth.gauge import member_gauge_derivatives
from convexsmooth.measure import boundary_samples
import oracle
from helpers import (
    AXIS_CASE,
    NEAR_COPY_CASE,
    TINY_W_CASE,
    QuadraticPatch,
    ball_bodies,
    ball_support_margins_reference,
    eq39_points_reference,
    fd_jacobian,
    halfspace_gap_reference,
    halfspace_vertices_reference,
    pairwise_ball_support_margin,
    random_ball_body,
    unit_square,
)


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


THREE_BALL = BallBody(
    radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
)


def _thin_lenses(dims=(2, 3)):
    """Lenses of two unit balls centred at +-t along the first axis, in 2D
    and 3D: thin ones, t from 0.99 to 0.9999, and near copies, t from
    5e-8 to 5e-3."""
    def lens_of(dim, t):
        return BallBody(radius=1.0, centers=np.outer([t, -t], np.eye(dim)[0]), dim=dim)

    dims = st.sampled_from(dims)
    return st.one_of(st.builds(lens_of, dims, st.floats(0.99, 0.9999)), st.builds(lens_of, dims, st.floats(5e-8, 5e-3)))


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
        # the reported margin bounds the sampled one at every radius from
        # the body's own; the pairwise form rolls the ball with the rounded
        # normal, whose centre is off by up to r |dv| (_normal_rounding)
        r = scale * body.radius
        report = ball_support_check(body, r, samples)
        witness = report.worst_witness
        pts, _ = boundary_samples(body, samples)
        _, active, inverse = certify._supporting_ball_margins(body, pts)
        rounding = r * np.max(_normal_rounding(np.count_nonzero(active, axis=1), inverse, body.dim))
        eps = np.finfo(float).eps
        assert witness["margin"] >= pairwise_ball_support_margin(body, r, samples) - 16.0 * eps * r - rounding
        # the witness is a boundary sample, and its active spheres are the
        # outermost from it, within the normal's slack
        y = np.array(witness["boundary_point"])
        assert contains(body, y)
        assert np.any(np.all(pts == y, axis=1))
        d = np.linalg.norm(y - body.centers, axis=1)
        assert np.all(d[witness["active"]] >= np.max(d) - 2.0 * NORMAL_ATOL * body.radius)

    @settings(max_examples=150, deadline=None)
    @given(body=st.one_of(ball_bodies(), _thin_lenses()), samples=st.integers(8, 400))
    @example(body=NEAR_COPY_CASE, samples=8)
    @example(body=BallBody(radius=1.0, centers=[[0.9999, 0.0], [-0.9999, 0.0]], dim=2), samples=360)
    def test_identity_bound_is_at_least_the_farthest_point_margin(self, body, samples):
        # the reference takes each sample's margin exactly, through the
        # farthest point, with the rounded normal v: the exact unit normal's
        # ball differs by R |dv| (_normal_rounding), the pick may lie up to
        # MEMBERSHIP_SLACK R outside a ball, which moves the margin by up to
        # that slack times 1/|n| (|x - c|^2 <= R^2 + (2 R s + s^2)/|n| for x
        # within s of every ball), and the pick itself carries 16 ulp
        R = body.radius
        pts, normals = boundary_samples(body, samples)
        bound, active, inverse = certify._supporting_ball_margins(body, pts)
        reference, _ = ball_support_margins_reference(body, R, samples)
        k = np.count_nonzero(active, axis=1)
        eps = np.finfo(float).eps
        slack = MEMBERSHIP_SLACK * R * inverse + 16.0 * eps * (R + np.linalg.norm(pts - R * normals, axis=1))
        assert np.all(bound >= reference - R * _normal_rounding(k, inverse, body.dim) - slack)
        report = ball_support_check(body, R, samples)
        assert report.worst_witness["margin"] == np.max(bound)
        assert "tested_point" not in report.worst_witness

    @settings(max_examples=30, deadline=None)
    @given(body=st.one_of(ball_bodies(), _thin_lenses()), samples=st.integers(8, 200))
    @example(body=BallBody(radius=1.0, centers=[[0.9999, 0.0], [-0.9999, 0.0]], dim=2), samples=200)
    def test_identity_bound_covers_its_exact_value(self, body, samples):
        # the computed bound, rounding terms included, is at least the
        # bound evaluated in 50 digits from the same samples and active sets
        pts, _ = boundary_samples(body, samples)
        bound, active, _ = certify._supporting_ball_margins(body, pts)
        assert np.all(bound >= oracle.supporting_ball_bounds(body, pts, active))

    def test_a_radius_below_the_body_s_takes_the_farthest_point(self):
        report = ball_support_check(lens(), 0.5, 360)
        assert not report.passed
        margins, far = ball_support_margins_reference(lens(), 0.5, 360)
        j = int(np.argmax(margins))
        assert report.worst_witness["margin"] == margins[j]
        assert report.worst_witness["tested_point"] == far[j].tolist()


def _normal_rounding(k, inverse, dim):
    """Bound on |v - v*|, relative, for the rounded normal v of a sample
    with k active spheres against the exact normalized mean v* of their
    (y - a_i)/R (see certify._supporting_ball_margins): twice the relative
    error of the sum, (k + 1) u/|n| each way, and the rounding of the
    normalization, with u = eps/2."""
    return np.finfo(float).eps * ((k + 1) * np.asarray(inverse) + dim + 2)


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
        # the margins taken exactly at the level-set radius stay below the
        # bound reported at R (certify_body's level_set_e comment), less
        # the reference's rounding: the farthest pick may lie up to
        # MEMBERSHIP_SLACK R outside a ball, and the rounded normal moves
        # the centre by radius_e |dv|; on the pinned body the slack showed
        # as 1.9e-13
        R = body.radius
        radius_e = 16.0 * R * R / body.interior_radius
        report = ball_support_check(body, R, samples)
        at_R = report.worst_witness["margin"]
        assert ball_support_check(body, radius_e, samples).worst_witness["margin"] == at_R
        pts, _ = boundary_samples(body, samples)
        _, active, inverse = certify._supporting_ball_margins(body, pts)
        at_e, _ = ball_support_margins_reference(body, radius_e, samples)
        rounding = radius_e * _normal_rounding(np.count_nonzero(active, axis=1), inverse, body.dim)
        eps = np.finfo(float).eps
        assert np.all(at_e <= at_R + MEMBERSHIP_SLACK * R * inverse + rounding + 8.0 * eps * radius_e)

    def test_thin_lens_rounding_stays_within_the_normal_s_rounding(self):
        # at radius 1600 the rounded normal's ball leaves the body by more
        # than the bound at R, by less than 1600 |dv| (_normal_rounding)
        thin = BallBody(radius=1.0, centers=[[0.99, 0.0], [-0.99, 0.0]], dim=2)
        radius_e = 16.0 / thin.interior_radius  # 1600
        at_R = ball_support_check(thin, 1.0, 360).worst_witness["margin"]
        at_e, _ = ball_support_margins_reference(thin, radius_e, 360)
        pts, _ = boundary_samples(thin, 360)
        _, active, inverse = certify._supporting_ball_margins(thin, pts)
        rounding = radius_e * _normal_rounding(np.count_nonzero(active, axis=1), inverse, 2)
        assert np.max(at_e) > at_R  # rounding of the larger radius shows
        assert np.all(at_e <= at_R + rounding)

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


_SCALE_CALLS = {
    "height": lambda R: cap_graph_height(R, [0.5, 0.0], [0.0, 0.0]),
    "hessian": lambda R: cap_graph_hessian(R, [0.5, 0.0], [0.0, 0.0]),
    "hessian-check": lambda R: cap_graph_hessian_check(R, [0.5, 0.0], [[0.0, 0.0]]),
    "ball-support": lambda R: ball_support_check(lens(), R, 360),
    "level-set-lipschitz": lambda R: level_set_radius(R, 1.0),
    "level-set-eta": lambda R: level_set_radius(1.0, R),
}


@pytest.mark.parametrize("R", [-1.0, 0.0, math.inf, math.nan], ids=["negative", "zero", "inf", "nan"])
@pytest.mark.parametrize("call", list(_SCALE_CALLS.values()), ids=list(_SCALE_CALLS))
def test_a_scale_that_is_not_positive_and_finite_is_refused(call, R):
    # once, a negative R gave a negative cap height, R = 0 a misleading
    # domain error, and an infinite R a passing report with constant inf
    with pytest.raises(ValueError, match="^(R|lipschitz|eta) must be positive and finite$"):
        call(R)


_SAMPLED_CALLS = {
    "ball-support": (lambda n: ball_support_check(lens(), 1.0, n), "samples must be >= 8"),
    "ball-family": (lambda n: ball_family_check(lens(), n), "samples must be positive"),
    "reconstruction": (lambda n: halfspace_reconstruction_gap(lens(), n), "normal_samples must be >= 4"),
    "certify": (lambda n: certify_body(lens(), n), "samples must be >= 8"),
    "probe": (
        lambda n: boundary_surjectivity_probe(lens(), BallBody(radius=2.0, centers=[[0.0, 0.0]], dim=2), n),
        "samples must be positive",
    ),
}


@pytest.mark.parametrize("samples", [0, -5, 2.5, True], ids=["zero", "negative", "fraction", "bool"])
@pytest.mark.parametrize("call, message", list(_SAMPLED_CALLS.values()), ids=list(_SAMPLED_CALLS))
def test_a_sample_count_that_is_not_a_positive_integer_is_refused(call, message, samples):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(samples)


@pytest.mark.parametrize("samples", [8.5, np.float64(16.0), True])
def test_boundary_samples_owns_the_type_check(samples):
    # above each certificate's own minimum only boundary_samples can refuse
    # the count; a bool once shared the cached draw of 1
    body = lens()
    boundary_samples(body, 1)
    with pytest.raises(ValueError, match=f"^samples must be positive and an integer, got {re.escape(repr(samples))}$"):
        boundary_samples(body, samples)
    with pytest.raises(ValueError, match="^samples must be positive and an integer"):
        ball_support_check(body, 1.0, 8.5)
    assert len(boundary_samples(body, np.int64(8))[0]) == 8


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

    @pytest.mark.parametrize(
        "xi, z, message",
        [
            ([1.2, 0.0], [-0.5, 0.0], "|xi_y| must be < 1"),
            ([0.0, 0.0], [2.0, 0.0], "offset leaves the open cap |z + R xi| < R"),
        ],
        ids=["slope-outside-the-unit-ball", "offset-outside-the-cap"],
    )
    @pytest.mark.parametrize(
        "call",
        [cap_graph_height, cap_graph_hessian, lambda R, xi, z: cap_graph_hessian_check(R, xi, [z])],
        ids=["height", "hessian", "check"],
    )
    def test_domain_violation(self, call, xi, z, message):
        # the three share one domain check; the Hessian once skipped |xi| < 1
        # (w = (0.7, 0) lies in the cap here) and returned a matrix
        with pytest.raises(DomainViolation, match=f"^{re.escape(message)}$"):
            call(1.0, np.array(xi), np.array(z))


@st.composite
def _gap_bodies(draw, dims=(2, 3)):
    """Ball bodies of 1-12 balls, near copies and +-0.999 lenses included,
    scaled to a radius between 0.01 and 100."""
    tip = [[0.999], [-0.999]]
    thin_lens = st.sampled_from(dims).map(lambda dim: BallBody(radius=1.0, centers=tip * np.eye(1, dim), dim=dim))
    body = draw(st.one_of(ball_bodies(dims=dims, max_balls=12), thin_lens))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0)) / body.radius
    return BallBody(radius=body.radius * scale, centers=body.centers * scale, dim=body.dim)


def _widest_turn(body, samples):
    """The widest angle between normals of consecutive 2D boundary
    samples, in angular order, from arctan2."""
    _, normals = boundary_samples(body, samples)
    angles = np.sort(np.arctan2(normals[:, 1], normals[:, 0]))
    return float(np.max(np.diff(np.append(angles, angles[0] + 2.0 * math.pi))))


def _every_vertex_gap(body, samples):
    """The reconstruction gap from the projections of every vertex the
    library builds (the unpruned form)."""
    V, _, _ = certify._reconstruction_vertices(*boundary_samples(body, samples))
    return float(np.max(np.linalg.norm(V - project_body(body, V), axis=1)))


def _vertex_rounding(pts, normals, V):
    """Bound on the rounding of each closed-form 2D vertex y + t tau, with
    s the sine of the turn and dy = y_{i+1} - y_i: to first order in the
    unit roundoff u, the numerator <v_{i+1}, dy> carries 3 u |dy| (one
    difference, a two-term dot product), s carries 2 u, and t = num/s
    adds u |t|, so |dt| <= (3 |dy| + 2 |t|) u/s + u |t|; the product and
    the sum add u |t| and u |v|, and rounding the oracle's vertex u |v|.
    Twice that, in eps = 2u."""
    s = np.sum(np.roll(normals, -1, axis=0) * np.column_stack([-normals[:, 1], normals[:, 0]]), axis=1)
    dy = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    t = np.linalg.norm(V - pts, axis=1)
    eps = np.finfo(float).eps
    return eps * ((3.0 * dy + 2.0 * t) / s + 2.0 * t + 2.0 * np.linalg.norm(V, axis=1))


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
        fresh = BallBody(radius=body.radius, centers=body.centers, dim=body.dim)
        if body.dim == 2 and _widest_turn(body, samples) >= math.pi:
            # the halfspaces are unbounded, and the 2D vertices say so
            with pytest.raises(DomainViolation, match="not in convex position"):
                halfspace_reconstruction_gap(body, samples)
            return
        gap = halfspace_reconstruction_gap(body, samples)
        assert np.float64(gap).tobytes() == np.float64(_every_vertex_gap(fresh, samples)).tobytes()

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
        assert np.float64(gap).tobytes() == np.float64(_every_vertex_gap(fresh, samples)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(body=_gap_bodies(dims=(2,)), samples=st.integers(4, 400))
    @example(body=BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2), samples=360)
    @example(body=BallBody(radius=1.0, centers=[[0.999, 0.0], [-0.999, 0.0]], dim=2), samples=400)
    def test_2d_vertices_are_the_adjacent_support_lines_meeting_points(self, body, samples):
        if _widest_turn(body, samples) >= math.pi:
            return  # named by test_pruned_gap_is_the_gap_of_every_vertex
        pts, normals = boundary_samples(body, samples)
        V, flips, enumeration = certify._reconstruction_vertices(pts, normals)
        assert (flips, enumeration) == (0, "adjacent_lines")
        exact = oracle.adjacent_line_vertices(pts, normals)
        bound = _vertex_rounding(pts, normals, V)
        assert np.all(np.linalg.norm(V - exact, axis=1) <= bound)
        # qhull's vertices carry their own rounding, read off the oracle:
        # the two gaps differ by at most both vertex errors plus the
        # projections' rounding. Over 300 random bodies at 4-1000 samples
        # the closed-form vertices erred by up to 0.35 of their bound (366
        # ulp of R + max |v| at a turn near pi), qhull's by up to 1,926 ulp,
        # and the gaps by up to 1,926 ulp, 0.39 ulp inside B + q
        qhull = halfspace_vertices_reference(body, samples)
        apart = np.linalg.norm(qhull[:, None] - exact[None], axis=2)
        q = max(apart.min(axis=0).max(), apart.min(axis=1).max())
        scale = body.radius + np.max(np.linalg.norm(V, axis=1))
        gap = halfspace_reconstruction_gap(body, samples)
        fresh = BallBody(radius=body.radius, centers=body.centers, dim=2)
        eps = np.finfo(float).eps
        assert abs(gap - halfspace_gap_reference(fresh, samples)) <= np.max(bound) + q + 8.0 * eps * scale

    def test_samples_not_in_convex_position_are_named(self):
        # at 4 samples the normals of this body turn by 203 degrees from
        # the first sample to the second, so the halfspaces are unbounded
        body = BallBody(radius=1.0, centers=[[0.9, 0.0], [0.48627208, 0.75732389]], dim=2)
        assert _widest_turn(body, 4) > math.pi
        with pytest.raises(DomainViolation, match="^boundary samples 0 and 1 are not in convex position: "):
            halfspace_reconstruction_gap(body, 4)

    def test_2d_certify_loads_no_scipy(self):
        code = (
            "import sys; from convexsmooth import BallBody, certify_body; "
            "body = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2); "
            "assert all(r.passed for r in certify_body(body, 360)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(certify.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_only_vertices_that_can_attain_the_gap_are_projected(self, monkeypatch):
        projected = []

        def counted(body, x):
            projected.append(len(x))
            return project_body(body, x)

        monkeypatch.setattr(certify, "project_body", counted)
        gap = halfspace_reconstruction_gap(THREE_BALL, 360)
        # 21 of the 1,280 vertices, found by three edge flips from the
        # icosphere's triangles; the witness counts them
        assert len(projected) == 1 and projected[0] < 64
        assert (gap.how["vertices"], gap.how["projected"]) == (1280, projected[0])

    @pytest.mark.parametrize(
        "body",
        [
            "BallBody(radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3)",
            "HalfspaceBody(normals=np.vstack([np.eye(3), -np.eye(3)]), offsets=[1.0, 0.5, 0.7, 0.9, 1.1, 0.6])",
        ],
        ids=["three-ball", "box"],
    )
    def test_3d_and_halfspace_certify_load_no_scipy(self, body):
        code = (
            "import sys; import numpy as np; from convexsmooth import BallBody, HalfspaceBody, certify_body; "
            f"reports = certify_body({body}, 360); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(certify.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "make, how",
        [
            (lens, {"vertices": 360, "flips": 0, "enumeration": "adjacent_lines"}),
            (lambda: THREE_BALL, {"vertices": 1280, "flips": 3, "enumeration": "flips"}),
        ],
        ids=["lens", "three-ball"],
    )
    def test_the_witness_says_how_the_vertices_were_found(self, make, how):
        report = certify_body(make(), 360)[-1]
        witness = report.worst_witness
        assert report.condition == "halfspace_reconstruction"
        assert {key: witness[key] for key in how} == how
        assert 1 <= witness["projected"] <= witness["vertices"]
        assert type(report.constant) is float and witness["gap"] == report.constant


# random_body_3d(default_rng(10), 4) of bench/corpus.py. At 1000 samples, the
# level-4 icosphere's 2,562, one of the icosphere's triangles is inverted
# among the sampled normals, so no flip can start and qhull runs instead.
FALLBACK_BODY = BallBody(
    radius=1.230200769333039,
    centers=[
        [-0.4402376060741758, -0.09968681776117262, 0.23874420228516088],
        [0.3940987825557419, 0.25240916199109875, -0.09537178188659778],
        [-0.5386195343573597, 0.04950723796973092, -0.05137569124751054],
        [0.013681724112747727, 0.27475802835396634, 0.03272281164301402],
    ],
    dim=3,
)


# near copies of balls near tangency, drawn by ball_bodies(): at 2,562
# samples qhull gives 5,118 vertices for the 5,120 faces, whose vertices
# come to 5,119 once those within their rounding of each other are merged
NEAR_TANGENT_COPIES = BallBody(
    radius=1.5,
    centers=[
        [7.19440365e-01, 1.57533698e-71, 6.07877532e-01],
        [1.03148049e00, 1.03148049e-12, 1.08030832e00],
        [-1.03191763e00, 2.06955640e-04, -1.08006787e00],
        [1.03128618e00, 1.03128618e-12, 1.08010482e00],
        [1.03163344e00, 1.09523129e-03, 1.08006787e00],
    ],
    dim=3,
)


def _triple_rounding(pts, normals, faces, V):
    """The bound of ``certify._face_vertices`` on the rounding of each 3D
    vertex, eps (|x| + (13 + 10 kappa) Q/det) with a = |v_j - v_i|,
    s = |y_j - y_i|, Q = s_j a_l + s_l a_j and kappa = a_j a_l/det,
    recomputed here from the triples, plus u |x| for rounding the oracle's
    vertex to float. det is <v_i, e_j x e_l>, e = v - v_i, within a
    relative 10 u/sin of the angle between e_j and e_l of exact."""
    n, y = normals[faces], pts[faces]
    e = n[:, 1:] - n[:, :1]
    a = np.linalg.norm(e, axis=2)
    s = np.linalg.norm(y[:, 1:] - y[:, :1], axis=2)
    det = np.einsum("ij,ij->i", n[:, 0], np.cross(e[:, 0], e[:, 1]))
    eps = np.finfo(float).eps
    spread = (s[:, 0] * a[:, 1] + s[:, 1] * a[:, 0]) / det
    return eps * (1.5 * np.linalg.norm(V, axis=1) + (13.0 + 10.0 * a[:, 0] * a[:, 1] / det) * spread)


def _distinct(V, within):
    """The number of rows of V once each row closer to an earlier one than
    the sum of their ``within`` radii is merged into it."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(V).query_pairs(2.0 * np.max(within), output_type="ndarray")
    close = np.linalg.norm(V[pairs[:, 0]] - V[pairs[:, 1]], axis=1) <= within[pairs[:, 0]] + within[pairs[:, 1]]
    return len(V) - len(np.unique(pairs[close, 1]))


def _hausdorff(P, Q):
    from scipy.spatial import cKDTree

    return max(cKDTree(P).query(Q)[0].max(), cKDTree(Q).query(P)[0].max())


class TestFlippedHull:
    @settings(max_examples=30, deadline=None)
    @given(
        body=st.one_of(ball_bodies(dims=(3,)), _thin_lenses(dims=(3,))),
        samples=st.sampled_from([12, 42, 162, 642, 2562]),
    )
    @example(body=THREE_BALL, samples=360)
    @example(body=BallBody(radius=1.0, centers=[[0.999, 0.0, 0.0], [-0.999, 0.0, 0.0]], dim=3), samples=642)
    @example(body=FALLBACK_BODY, samples=1000)
    @example(body=NEAR_TANGENT_COPIES, samples=2562)
    def test_vertices_and_gap_are_qhull_s_within_their_rounding(self, body, samples):
        # each vertex is within its derived bound of the 50-digit meeting
        # point of its planes (worst seen: 0.03 of the bound). The vertex
        # count is qhull's, but qhull merges vertices it cannot tell apart:
        # where four planes meet (the +-0.999 lens), each of the two
        # triangles of their quadrilateral solves the vertex, and qhull
        # keeps one. On a body of near-tangent near copies, four pairs of
        # vertices 2e-14 to 4.4e-13 apart, closer than qhull's own error q
        # (its distance to the 50-digit vertices, 3.8e-13 there), came out
        # of qhull as 5,118 vertices for 5,120 faces. So qhull's count lies
        # between the face count and the count with vertices within their
        # bounds plus q merged. The gaps differ by at most both vertex errors plus the
        # projections' rounding. Over 322 random bodies (THREE_BALL and
        # bench/corpus.py's random_body_3d, m = 2-5, at 360 and 1000
        # samples) the gaps differed by at most 1.5 ulp of R + max |v|
        pts, normals = boundary_samples(body, samples)
        V, faces, flips = certify._flipped_hull_vertices(pts, normals)
        fresh = BallBody(radius=body.radius, centers=body.centers, dim=3)
        gap = halfspace_reconstruction_gap(body, samples)
        reference = halfspace_gap_reference(fresh, samples)
        if V is None:
            assert gap.how["enumeration"] == "qhull"
            assert np.float64(gap).tobytes() == np.float64(reference).tobytes()
            return
        assert gap.how == {"vertices": len(V), "projected": gap.how["projected"], "flips": flips, "enumeration": "flips"}
        exact = oracle.plane_triple_vertices(pts, normals, faces)
        bound = _triple_rounding(pts, normals, faces, V)
        assert np.all(np.linalg.norm(V - exact, axis=1) <= bound)
        qhull = halfspace_vertices_reference(fresh, samples)
        q = _hausdorff(qhull, exact)
        assert _distinct(V, bound + q) <= len(qhull) <= len(V)
        scale = body.radius + np.max(np.linalg.norm(V, axis=1))
        assert abs(gap - reference) <= np.max(bound) + q + 8.0 * np.finfo(float).eps * scale

    def test_an_inverted_starting_triangle_falls_back_to_qhull(self):
        pts, normals = boundary_samples(FALLBACK_BODY, 1000)
        V, flips, enumeration = certify._reconstruction_vertices(pts, normals)
        assert (flips, enumeration) == (0, "qhull")
        assert np.array_equal(V, halfspace_vertices_reference(FALLBACK_BODY, 1000))
        fresh = BallBody(radius=FALLBACK_BODY.radius, centers=FALLBACK_BODY.centers, dim=3)
        gap = halfspace_reconstruction_gap(fresh, 1000)
        assert np.float64(gap).tobytes() == np.float64(halfspace_gap_reference(FALLBACK_BODY, 1000)).tobytes()

    def test_the_grid_is_read_once(self, monkeypatch):
        # the faces and their adjacency come from the grid entry that
        # sample_directions fills, so a 3D gap makes one icosphere call
        calls = []
        icosphere = grids.icosphere
        monkeypatch.setattr(grids, "icosphere", lambda level: calls.append(level) or icosphere(level))
        body = BallBody(radius=1.0, centers=THREE_BALL.centers, dim=3)
        assert halfspace_reconstruction_gap(body, 360).how["enumeration"] == "flips"
        assert calls == [3]


class TestScaledVerdicts:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
    @pytest.mark.parametrize("make", [lens, lambda: THREE_BALL], ids=["lens", "three-ball"])
    def test_a_scaled_body_gets_the_unit_body_s_verdicts(self, make, scale):
        # every tolerance scales with R; an absolute one failed the
        # three-ball body at R = 1e8 on ball_support_b, ball_family_c and
        # level_set_e, whose margins there are an ulp of 1e8 or two
        unit = make()
        body = BallBody(radius=scale * unit.radius, centers=scale * unit.centers, dim=unit.dim)
        verdicts = {r.condition: r.passed for r in certify_body(body, 360)}
        assert verdicts == {r.condition: r.passed for r in certify_body(unit, 360)}
        assert all(verdicts.values())


    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_the_3d_gap_scales_with_the_body(self, scale):
        # the scaled samples round differently from scale times the unit
        # ones, by dy and dn (measured). To first order a vertex x = A^-1 h
        # of planes k moves by sum_k (dn |y_k - x| + dy) |column k of A^-1|,
        # that column being the cross product of the other two normals over
        # det; each computed vertex is within its own rounding of the exact
        # one; and each gap's projections round within 8 eps (R + max |v|)
        unit = THREE_BALL
        body = BallBody(radius=scale * unit.radius, centers=scale * unit.centers, dim=3)
        (pu, nu), (ps, ns) = boundary_samples(unit, 360), boundary_samples(body, 360)
        Vu, faces, flips = certify._flipped_hull_vertices(pu, nu)
        Vs, faces_s, flips_s = certify._flipped_hull_vertices(ps, ns)
        assert flips_s == flips and np.array_equal(faces_s, faces)
        gu, gs = halfspace_reconstruction_gap(unit, 360), halfspace_reconstruction_gap(body, 360)
        assert gu.how == gs.how and gs.how["enumeration"] == "flips"
        dy = np.max(np.linalg.norm(ps / scale - pu, axis=1))
        dn = np.max(np.linalg.norm(ns - nu, axis=1))
        n, y = nu[faces], pu[faces]
        columns = np.linalg.norm(np.cross(n[:, [1, 2, 0]], n[:, [2, 0, 1]]), axis=2) / np.linalg.det(n)[:, None]
        moved = np.sum((dn * np.linalg.norm(y - Vu[:, None], axis=2) + dy) * columns, axis=1)
        rounding = _triple_rounding(pu, nu, faces, Vu) + _triple_rounding(ps, ns, faces, Vs) / scale
        eps = np.finfo(float).eps
        bound = np.max(moved + rounding) + 16.0 * eps * (unit.radius + np.max(np.linalg.norm(Vu, axis=1)))
        assert abs(gs / scale - gu) <= bound


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
