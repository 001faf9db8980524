import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import (
    BallBody,
    BlendedGauge,
    DegenerateEpsilon,
    ShrinkDelta,
    agreement_indicator,
    blended_gauge_sq,
    blended_gauge_sq_many,
    blended_values,
    boundary_mesh,
    contains,
    extract_smoothed_body,
    hausdorff_measure,
    level_disagreement_scan,
    select_regular_value,
    smooth_max,
)
from convexsmooth import smooth
from convexsmooth.gauge import body_gauge_values, member_gauges
from convexsmooth.measure import batch_ray_crossings, direction_grid
from convexsmooth.smooth import (
    _level_grid,
    _mesh_levels,
    _phi_terms,
    blended_h_values,
    blended_level_mesh,
)
from helpers import (
    ball_bodies,
    blended_gauge_sq_reference,
    fd_gradient,
    fd_jacobian,
    random_ball_body,
)

# Closed-form and Newton level-set radii against bisection, and batched
# blend Hessians against the member-by-member fold; fixed before the
# batched code was written.
RADIUS_REL_TOL = 1e-14
HESSIAN_TOL = 1e-12


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


def single():
    return BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)


THREE_BALL = BallBody(
    radius=1.0, centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]], dim=3
)


class TestSmoothMax:
    def test_exact_outside_blend_zone(self):
        value, weight = smooth_max(0.0, 1.0, 0.5, "C11")
        assert value == 1.0 and weight == 0.0  # bit-exact maximum

    def test_tie_c11(self):
        value, weight = smooth_max(1.0, 1.0, 0.5, "C11")
        assert value == pytest.approx(1.125)
        assert weight == pytest.approx(0.5)

    def test_tie_c2(self):
        value, weight = smooth_max(1.0, 1.0, 0.5, "C2")
        assert value == pytest.approx(1.09375)
        assert weight == pytest.approx(0.5)

    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_profile_contact_at_delta(self, order):
        # phi(delta) = delta, phi'(delta) = 1, phi''(delta) = 0 for C2
        delta = 0.7
        phi, dphi, d2 = _phi_terms(delta * (1 - 1e-15), delta, order)
        assert float(phi) == pytest.approx(delta, rel=1e-12)
        assert float(dphi) == pytest.approx(1.0, rel=1e-12)
        if order == "C2":
            assert abs(float(d2)) <= 1e-12
        else:
            assert float(d2) == pytest.approx(1.0 / delta)

    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_bounds_and_weights(self, order):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = rng.uniform(-2, 2, size=2)
            delta = rng.uniform(0.05, 1.0)
            value, weight = smooth_max(a, b, delta, order)
            assert max(a, b) - 1e-15 <= value <= max(a, b) + delta / 4 + 1e-15
            assert 0.0 <= weight <= 1.0
            if abs(a - b) >= delta:
                assert value == max(a, b)

    def test_c2_second_derivative_continuous(self):
        # one-sided second differences at the blend boundary agree within 1e-4
        delta, h = 1.0, 1e-5
        f = lambda a: smooth_max(a, 0.0, delta, "C2")[0]
        left = (2 * f(delta) - 5 * f(delta - h) + 4 * f(delta - 2 * h) - f(delta - 3 * h)) / h**2
        right = (2 * f(delta) - 5 * f(delta + h) + 4 * f(delta + 2 * h) - f(delta + 3 * h)) / h**2
        assert abs(left - right) <= 1e-4

    def test_c11_first_derivative_continuous_second_bounded(self):
        delta, h = 1.0, 1e-6
        f = lambda a: smooth_max(a, 0.0, delta, "C11")[0]
        dleft = (3 * f(delta) - 4 * f(delta - h) + f(delta - 2 * h)) / (2 * h)
        dright = (-3 * f(delta) + 4 * f(delta + h) - f(delta + 2 * h)) / (2 * h)
        assert abs(dleft - dright) <= 1e-6
        h2 = 1e-4
        inside = (2 * f(delta) - 5 * f(delta - h2) + 4 * f(delta - 2 * h2) - f(delta - 3 * h2)) / h2**2
        assert abs(inside) <= 1.0 / (2 * delta) + 1e-3  # jumps but stays bounded

    def test_validation(self):
        with pytest.raises(ValueError):
            smooth_max(0.0, 1.0, -0.1, "C11")
        with pytest.raises(ValueError):
            smooth_max(0.0, 1.0, 0.1, "C3")


class TestBlendedGauge:
    def test_single_ball_is_plain_squared_gauge(self):
        gauge = BlendedGauge(body=single(), delta=1e-3, order="C2")
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 2))
        assert np.array_equal(
            blended_values(gauge, pts), body_gauge_values(single(), pts) ** 2
        )

    def test_exact_off_the_ridge(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3, order="C2")
        x = np.array([0.9, 0.1])  # far from the symmetry plane
        assert agreement_indicator(gauge, x)
        value, _, _ = blended_gauge_sq(gauge, x)
        assert value == body_gauge_values(lens(), x[None, :])[0] ** 2  # same floats

    def test_dominates_squared_gauge_with_bounded_excess(self):
        rng = np.random.default_rng(2)
        body = random_ball_body(rng, 2, 5)
        delta = 0.05
        gauge = BlendedGauge(body=body, delta=delta, order="C11")
        pts = rng.uniform(-2, 2, size=(2000, 2))
        excess = blended_values(gauge, pts) - body_gauge_values(body, pts) ** 2
        assert np.all(excess >= -1e-15)
        assert np.all(excess <= delta / 4 * (body.num_balls - 1) + 1e-12)

    def test_indicator_examples(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3, order="C2")
        assert not agreement_indicator(gauge, np.array([0.0, 0.5]))  # symmetry plane
        assert agreement_indicator(gauge, np.array([1.0, 0.0]))
        single_gauge = BlendedGauge(body=single(), delta=1e-3, order="C2")
        assert agreement_indicator(single_gauge, np.array([0.3, -0.8]))

    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_derivatives_match_finite_differences(self, order):
        # wide blend keeps the finite differences well conditioned inside
        # the tube; the Hessian check differences the closed-form gradient
        delta = 0.08
        gauge = BlendedGauge(body=lens(), delta=delta, order=order)
        rng = np.random.default_rng(3)
        tested_tube = 0
        for k in range(40):
            x = rng.standard_normal(2) * rng.uniform(0.3, 1.2)
            if k % 2:  # steer onto the ridge tube around the symmetry plane
                x[0] = rng.uniform(-0.02, 0.02)
                x[1] = rng.uniform(0.5, 1.2) * rng.choice([-1.0, 1.0])
            value, grad, hess = blended_gauge_sq(gauge, x)
            if not agreement_indicator(gauge, x):
                tested_tube += 1
            f = lambda y: float(blended_values(gauge, y[None, :])[0])
            g_fd = fd_gradient(f, x, h=1e-6)
            assert np.linalg.norm(g_fd - grad) <= 1e-5 * (1 + np.linalg.norm(grad))
            grad_fn = lambda y: blended_gauge_sq(gauge, y)[1]
            h_fd = fd_jacobian(grad_fn, x, h=1e-6)
            h_fd = 0.5 * (h_fd + h_fd.T)
            assert np.abs(h_fd - hess).max() <= 1e-5 * (1 + np.abs(hess).max())
        assert tested_tube >= 5  # the sample actually hit the blend zone

    def test_fold_preserves_strong_convexity(self):
        rng = np.random.default_rng(4)
        body = random_ball_body(rng, 2, 4)
        gauge = BlendedGauge(body=body, delta=0.05, order="C2")
        floor = 1.0 / (2.0 * body.radius**2)
        for _ in range(200):
            x = rng.standard_normal(2) * rng.uniform(0.1, 2.0)
            _, _, hess = blended_gauge_sq(gauge, x)
            assert np.linalg.eigvalsh(hess)[0] >= floor - 1e-6

    def test_hessian_field_continuous_across_blend_boundary_c2_only(self):
        # straddle the gap = delta surface at a relative offset of 1e-9;
        # the C2 profile's curvature vanishes there, the C11 one jumps
        body = lens()
        jumps = {}
        for order in ("C11", "C2"):
            gauge = BlendedGauge(body=body, delta=1e-3, order=order)
            x_in, x_out = _straddle_points(gauge, rel_offset=1e-9)
            _, _, h_in = blended_gauge_sq(gauge, x_in)
            _, _, h_out = blended_gauge_sq(gauge, x_out)
            jumps[order] = float(np.abs(h_in - h_out).max())
        assert jumps["C2"] <= 1e-4
        assert jumps["C11"] > 1.0


class TestBatchedBlend:
    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_batched_matches_member_by_member_fold(self, order):
        rng = np.random.default_rng(11)
        for dim in (2, 3):
            body = random_ball_body(rng, dim, 5)
            gauge = BlendedGauge(body=body, delta=0.05, order=order)
            pts = rng.standard_normal((300, dim)) * rng.uniform(0.2, 1.5, size=(300, 1))
            values, grads, hessians = blended_gauge_sq_many(gauge, pts)
            in_tube = 0
            for x, v, g, h in zip(pts, values, grads, hessians):
                rv, rg, rh = blended_gauge_sq_reference(gauge, x)
                in_tube += not agreement_indicator(gauge, x)
                assert abs(v - rv) <= HESSIAN_TOL * max(1.0, abs(rv))
                assert np.abs(g - rg).max() <= HESSIAN_TOL * max(1.0, np.abs(rg).max())
                assert np.abs(h - rh).max() <= HESSIAN_TOL * max(1.0, np.abs(rh).max())
            assert in_tube >= 10  # the blend branch is exercised, not only the max

    def test_single_point_is_a_batch_of_one(self):
        gauge = BlendedGauge(body=lens(), delta=0.08, order="C2")
        pts = np.array([[0.01, 0.8], [0.9, 0.1], [-0.3, -0.6]])
        values, grads, hessians = blended_gauge_sq_many(gauge, pts)
        for i, x in enumerate(pts):
            value, grad, hess = blended_gauge_sq(gauge, x)
            assert isinstance(value, float)
            assert value == pytest.approx(values[i], rel=1e-15)
            assert np.allclose(grad, grads[i], rtol=1e-15, atol=0.0)
            assert np.allclose(hess, hessians[i], rtol=1e-15, atol=0.0)


class TestLevelMeshRadii:
    """Closed-form and tube-solve radii of ``blended_level_mesh`` against
    bisection of h along every grid direction (``batch_ray_crossings``)."""

    @pytest.mark.parametrize("order", ["C11", "C2"])
    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        level=st.floats(1.0, 1.25, exclude_min=True),
        res2d=st.integers(16, 400),
    )
    def test_radii_match_bisection(self, order, body, log_delta, level, res2d):
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2, order=order)
        resolution = res2d if body.dim == 2 else 2
        mesh = blended_level_mesh(gauge, level, resolution)
        dirs, _ = direction_grid(body.dim, resolution)
        ref = batch_ray_crossings(
            lambda p: blended_h_values(gauge, p), dirs, level, 20.0 * body.radius
        )
        assert np.array_equal(mesh.directions, dirs)
        assert np.all(np.abs(mesh.radii - ref) <= RADIUS_REL_TOL * ref)

    def test_rescaled_radii(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3, order="C2")
        plain = blended_level_mesh(gauge, 1.02, 512)
        scaled = blended_level_mesh(gauge, 1.02, 512, rescale=1.02)
        assert np.allclose(scaled.radii, plain.radii / 1.02, rtol=1e-15, atol=0.0)
        assert np.array_equal(scaled.agreement, plain.agreement)
        assert np.any(~plain.agreement)

    def test_blended_single_ball_levels_are_spheres(self):
        gauge = BlendedGauge(body=single(), delta=1e-3, order="C2")
        t0 = 1.02
        mesh = blended_level_mesh(gauge, t0, 64)
        assert np.allclose(mesh.radii, t0, rtol=1e-12, atol=0.0)
        assert np.all(mesh.agreement)


def _gap_values(body, pts):
    sq = member_gauges(body, pts) ** 2
    part = -np.sort(-sq, axis=-1)
    return part[..., 0] - part[..., 1]


def _straddle_points(gauge, rel_offset, radius=0.8):
    """Two points on a ray-circle path with gaps delta*(1 -+ rel_offset)."""
    body, delta = gauge.body, gauge.delta

    def gap_at(theta):
        p = radius * np.array([np.cos(theta), np.sin(theta)])
        return float(_gap_values(body, p[None, :])[0])

    def solve(target):
        lo, hi = np.pi / 2, np.pi / 2 + 0.5  # ridge on the symmetry plane
        assert gap_at(lo) < target < gap_at(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap_at(mid) < target:
                lo = mid
            else:
                hi = mid
        return radius * np.array([np.cos(hi), np.sin(hi)])

    return solve(delta * (1 - rel_offset)), solve(delta * (1 + rel_offset))


class TestRegularValueSelection:
    def test_single_ball_returns_scan_midpoint(self):
        gauge = BlendedGauge(body=single(), delta=1e-3, order="C2")
        eps, scan = 0.05, 64
        t0 = select_regular_value(gauge, eps, scan)
        assert abs(t0 - (1 + eps / 2)) <= eps / (scan + 1)
        assert 1.0 < t0 < 1.0 + eps

    def test_lens_minimizes_disagreement(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3, order="C2")
        eps, scan = 0.05, 16
        levels, measures = level_disagreement_scan(gauge, eps, scan, resolution=512)
        t0 = select_regular_value(gauge, eps, scan, resolution=512)
        at_t0 = measures[np.argmin(np.abs(levels - t0))]
        assert at_t0 <= measures.min() + 1e-15

    def test_min_bounded_by_scan_average(self):
        gauge = BlendedGauge(body=lens(), delta=5e-3, order="C2")
        _, measures = level_disagreement_scan(gauge, 0.05, 16, resolution=2048)
        assert measures.min() <= measures.mean() + 1e-15

    @pytest.mark.parametrize(
        "body, resolution",
        [(lens(), 512), (THREE_BALL, 3), (random_ball_body(np.random.default_rng(21), 2, 6), 333)],
        ids=["lens", "three-ball-3d", "six-ball-2d"],
    )
    def test_scan_measures_are_those_of_each_level_mesh(self, body, resolution):
        gauge = BlendedGauge(body=body, delta=1e-3, order="C2")
        levels, measures = level_disagreement_scan(gauge, 0.05, 16, resolution=resolution)
        for t, m in zip(levels, measures):
            assert m == hausdorff_measure(blended_level_mesh(gauge, t, resolution), "disagree")
        assert np.any(measures > 0.0)

    def test_epsilon_validation(self):
        gauge = BlendedGauge(body=single(), delta=1e-3, order="C2")
        for bad in (0.0, 0.25, 0.5, -0.1):
            with pytest.raises(DegenerateEpsilon):
                select_regular_value(gauge, bad, 16)
        with pytest.raises(ValueError):
            select_regular_value(gauge, 0.05, 4)


def ring(m, offset):
    angles = 2.0 * np.pi * np.arange(m) / m
    return BallBody(
        radius=1.0, centers=offset * np.column_stack([np.cos(angles), np.sin(angles)]), dim=2
    )


class TestBatchedScan:
    """The scan meshes all its levels in one batch; every level must get
    the measure, and radii, of meshing it alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, -1.0),
        res2d=st.integers(16, 300),
        scan=st.integers(8, 24),
    )
    def test_scan_measures_are_single_level_measures(self, body, order, log_delta, res2d, scan):
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2, order=order)
        resolution = res2d if body.dim == 2 else 2
        levels, measures = level_disagreement_scan(gauge, 0.05, scan, resolution=resolution)
        for t, m in zip(levels, measures):
            assert m == hausdorff_measure(blended_level_mesh(gauge, t, resolution), "disagree")

    @pytest.mark.parametrize(
        "order, epsilon", [("C11", 0.2), ("C2", 0.05)], ids=["C11", "C2"]
    )
    def test_levels_taking_different_newton_step_counts(self, order, epsilon, monkeypatch):
        # a wide blend on an 8-ball ring: some levels need one Newton step
        # more than others, and a level's rows stop with the level
        gauge = BlendedGauge(body=ring(8, 0.1), delta=0.1, order=order)
        levels = 1.0 + epsilon * (np.arange(16) + 1.0) / 17.0
        radii, _ = _mesh_levels(gauge, _level_grid(gauge, 256), levels)
        fold = smooth._fold
        steps = []
        for t, batched in zip(levels, radii):
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return fold(*args, **kwargs)

            monkeypatch.setattr(smooth, "_fold", counted)
            alone = blended_level_mesh(gauge, t, 256)
            monkeypatch.setattr(smooth, "_fold", fold)
            steps.append(len(calls))
            assert np.array_equal(batched, alone.radii)
        assert min(steps) > 0 and len(set(steps)) > 1

    def test_scan_spanning_several_level_blocks(self, monkeypatch):
        gauge = BlendedGauge(
            body=random_ball_body(np.random.default_rng(21), 2, 6), delta=1e-3, order="C2"
        )
        resolution = 2048  # 2D: as many facets as directions
        scan = 2 * (smooth._SCAN_BLOCK_CELLS // resolution) + 5
        levels, measures = level_disagreement_scan(gauge, 0.05, scan, resolution=resolution)
        for t, m in zip(levels, measures):
            assert m == hausdorff_measure(blended_level_mesh(gauge, t, resolution), "disagree")
        monkeypatch.setattr(smooth, "_SCAN_BLOCK_CELLS", scan * resolution)
        _, unblocked = level_disagreement_scan(gauge, 0.05, scan, resolution=resolution)
        assert np.array_equal(measures, unblocked)
        assert np.any(measures > 0.0)


class TestExtract:
    def test_single_ball_reproduces_itself(self):
        from convexsmooth import symmetric_difference_measure

        body = single()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
        assert 1.0 < smoothed.t0 < 1.05
        for res in (128, 512):
            w = boundary_mesh(body, res)
            we = boundary_mesh(smoothed, res)
            assert symmetric_difference_measure(w, we) == 0.0

    def test_lens_pipeline(self):
        from convexsmooth import hausdorff_measure, symmetric_difference_measure

        body = lens()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
        checks = smoothed.checks
        assert checks["contained"] and checks["tube_ok"]
        assert checks["hessian_min_eig"] >= 0.9 * 0.5
        w = boundary_mesh(body, 10_000)
        we = boundary_mesh(smoothed, 10_000)
        assert symmetric_difference_measure(w, we) < 0.05 * hausdorff_measure(w)

    def test_containment_chain(self):
        body = lens()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C11")
        mesh = boundary_mesh(smoothed, 512)
        rng = np.random.default_rng(5)
        shrink = rng.random((len(mesh.points), 1)) ** 0.5
        for p in np.vstack([mesh.points, mesh.points * shrink])[::7]:
            assert contains(body, p)

    @pytest.mark.parametrize(
        "body, resolution",
        [(lens(), None), (lens(), 1000), (THREE_BALL, None), (THREE_BALL, 2)],
        ids=["lens-default", "lens-1000", "three-ball-3d-default", "three-ball-3d-2"],
    )
    def test_returned_meshes_are_those_of_boundary_mesh(self, body, resolution):
        smoothed = extract_smoothed_body(
            body, delta=1e-3, epsilon=0.05, order="C2", resolution=resolution
        )
        res = resolution if resolution is not None else {2: 1024, 3: 4}[body.dim]
        for built, ref in zip(smoothed.meshes, (boundary_mesh(body, res), boundary_mesh(smoothed, res))):
            assert np.array_equal(built.directions, ref.directions)
            assert np.array_equal(built.radii, ref.radii)
            assert np.array_equal(built.agreement, ref.agreement)
        assert not np.all(smoothed.meshes[1].agreement)

    def test_separate_runs_compare_equal(self):
        first = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C2")
        second = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C2")
        assert first == second
        assert first != extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C11")

    def test_fat_tube_rejected(self):
        with pytest.raises(ShrinkDelta):
            extract_smoothed_body(lens(), delta=0.5, epsilon=0.05, order="C2")

    def test_epsilon_validation(self):
        with pytest.raises(DegenerateEpsilon):
            extract_smoothed_body(lens(), delta=1e-3, epsilon=0.3, order="C2")

    def test_serialization(self):
        smoothed = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C2")
        data = smoothed.to_json()
        assert set(data) == {"body", "delta", "order", "t0"}
        assert data["order"] == "C2"
        assert data["t0"] == smoothed.t0
