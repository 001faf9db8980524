import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import (
    BallBody,
    BlendedGauge,
    ConvexSmoothError,
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
    smooth_max,
)
from convexsmooth import smooth
from convexsmooth.bodies import contains_many
from convexsmooth.gauge import body_gauge_values, member_gauges
from convexsmooth.measure import (
    batch_ray_crossings,
    direction_grid,
    facet_centroids,
    symmetric_difference_breakdown,
)
from convexsmooth.smooth import (
    RIDGE_GUARD,
    _level_grid,
    _level_mesh,
    _phi_terms,
    blended_h_values,
    blended_level_mesh,
    level_disagreement_scan,
)
from helpers import (
    ball_bodies,
    blended_gauge_sq_reference,
    fd_gradient,
    fd_jacobian,
    level_flags_reference,
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

    @settings(max_examples=150, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, -0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blend_keeps_the_proven_floor(self, body, order, log_delta, seed):
        # the floor extract_smoothed_body reports: 2/(2R - rho)^2
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2, order=order)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((128, body.dim)) * rng.uniform(0.05, 3.0, (128, 1)) * body.radius
        _, _, hess = blended_gauge_sq_many(gauge, x)
        lam = np.linalg.eigvalsh(hess)[:, 0]
        floor = 2.0 / (2.0 * body.radius - body.interior_radius) ** 2
        assert np.all(lam >= floor - 1e-12 * np.abs(hess).max(axis=(1, 2)))

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
    """Level 1 is the only level worth meshing: level t of a blend of width
    delta is t times level 1 of width delta/t^2, and a narrower blend never
    gives a smaller body. The level scan, kept for the benchmark's tracer,
    still measures each level's tube facets."""

    @pytest.mark.parametrize("order", ["C11", "C2"])
    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        t=st.floats(1.0, 1.25, exclude_min=True, exclude_max=True),
        res2d=st.integers(16, 400),
    )
    def test_level_t_is_level_one_of_a_narrower_blend(self, order, body, log_delta, t, res2d):
        # phi_delta(s) = delta Phi(s/delta) and 2-homogeneous member squared
        # gauges: (1/t) {sqrt(g_delta) <= t} = {g_(delta/t^2) <= 1}
        delta = 10.0**log_delta * body.radius**2
        resolution = res2d if body.dim == 2 else 2
        level_t = blended_level_mesh(BlendedGauge(body, delta, order), t, resolution)
        level_1 = blended_level_mesh(BlendedGauge(body, delta / t**2, order), 1.0, resolution)
        assert np.all(np.abs(level_t.radii - t * level_1.radii) <= 1e-13 * level_t.radii)

    @settings(max_examples=60, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, -1.0),
        shrink=st.floats(1e-3, 1.0),
        res2d=st.integers(16, 400),
        res3d=st.integers(2, 3),
    )
    def test_a_narrower_blend_never_shrinks_the_body(
        self, body, order, log_delta, shrink, res2d, res3d
    ):
        # d phi_delta / d delta >= 0 for both profiles, so g grows with delta
        # and the level-1 radii can only grow as delta shrinks
        delta = 10.0**log_delta * body.radius**2
        resolution = res2d if body.dim == 2 else res3d
        wide = blended_level_mesh(BlendedGauge(body, delta, order), 1.0, resolution)
        narrow = blended_level_mesh(BlendedGauge(body, shrink * delta, order), 1.0, resolution)
        assert np.all(narrow.radii >= wide.radii * (1.0 - 1e-14))

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
                level_disagreement_scan(gauge, bad, 16)


def ring(m, offset):
    angles = 2.0 * np.pi * np.arange(m) / m
    return BallBody(
        radius=1.0, centers=offset * np.column_stack([np.cos(angles), np.sin(angles)]), dim=2
    )


class TestOneLevelMesher:
    """A level's tube directions go through one Newton solve; every row must
    get the radius of solving it alone, and the facets the flags of the
    level's own centroids."""

    @pytest.mark.parametrize("order", ["C11", "C2"])
    def test_rows_taking_different_newton_step_counts(self, order, monkeypatch):
        # a wide blend on an 8-ball ring: some rows need more Newton steps
        # than others, and each still gets its own radius
        gauge = BlendedGauge(body=ring(8, 0.1), delta=0.1, order=order)
        grid = _level_grid(gauge, 256)
        radii = _level_mesh(gauge, grid, 1.0).radii
        tube = np.nonzero(grid.sq[:, 0] - grid.sq[:, 1] < gauge.delta * (1.0 + RIDGE_GUARD))[0]
        fold = smooth._fold
        steps = []
        for row in tube:
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return fold(*args, **kwargs)

            monkeypatch.setattr(smooth, "_fold", counted)
            alone = smooth._tube_radii(gauge, grid.sq[row : row + 1], 1.0)
            monkeypatch.setattr(smooth, "_fold", fold)
            steps.append(len(calls))
            assert radii[row] == alone[0]
        assert min(steps) > 0 and len(set(steps)) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, -1.0),
        level=st.floats(1.0, 1.25),
        res2d=st.integers(16, 200),
    )
    def test_each_tube_row_is_solved_as_if_alone(self, body, order, log_delta, level, res2d):
        # every row stops on its own Newton step, so no row's radius depends
        # on the rows batched with it
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2, order=order)
        grid = _level_grid(gauge, res2d if body.dim == 2 else 2)
        radii = _level_mesh(gauge, grid, level).radii
        if grid.sq is None:
            return
        r = level / grid.mu
        tube = r * r * (grid.sq[:, 0] - grid.sq[:, 1]) < gauge.delta * (1.0 + RIDGE_GUARD)
        for row in np.nonzero(tube)[0]:
            alone = smooth._tube_radii(gauge, grid.sq[row : row + 1], level * level)
            assert radii[row] == alone[0]

    @settings(max_examples=60, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, np.log10(0.3)),
        level=st.floats(1.0, 1.25),
        res2d=st.integers(16, 700),
        res3d=st.integers(2, 3),
    )
    def test_flags_are_those_of_the_level_centroids(
        self, body, order, log_delta, level, res2d, res3d
    ):
        # the flags scale the level-1 gap by level^2; testing the level's own
        # centroids must agree except where the gap sits at the threshold to
        # rounding
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2, order=order)
        grid = _level_grid(gauge, res2d if body.dim == 2 else res3d)
        mesh = _level_mesh(gauge, grid, level)
        ref = level_flags_reference(gauge, grid, level, mesh.radii)
        if len(body.centers) == 1:
            assert np.array_equal(mesh.agreement, ref) and np.all(ref)
            return
        threshold = gauge.delta * (1.0 + RIDGE_GUARD)
        gap = _gap_values(body, facet_centroids(mesh.radii[:, None] * grid.dirs, grid.facets))
        at_threshold = np.abs(gap - threshold) <= 1e-12 * threshold
        assert np.array_equal(mesh.agreement[~at_threshold], ref[~at_threshold])
        assert np.count_nonzero(at_threshold) <= 1 + 1e-3 * len(ref)


class TestExtract:
    def test_single_ball_reproduces_itself(self):
        from convexsmooth import symmetric_difference_measure

        body = single()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
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

    def test_duplicate_centers_are_named(self):
        # identical balls tie on their whole boundary: no delta helps, so
        # the advice names the copies instead
        body = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]], dim=2)
        with pytest.raises(ShrinkDelta, match=r"balls \(0, 2\) have identical centers") as info:
            extract_smoothed_body(body, delta=1e-3, epsilon=0.05, order="C2")
        assert "remove" in str(info.value) and "decrease delta" not in str(info.value)
        with pytest.raises(ShrinkDelta, match="decrease delta"):
            extract_smoothed_body(lens(), delta=0.5, epsilon=0.05, order="C2")

    def test_epsilon_validation(self):
        with pytest.raises(DegenerateEpsilon):
            extract_smoothed_body(lens(), delta=1e-3, epsilon=0.3, order="C2")

    @pytest.mark.parametrize(
        "body, resolution",
        [(lens(), None), (lens(), 100), (THREE_BALL, None)],
        ids=["lens-default", "lens-100", "three-ball-3d-default"],
    )
    def test_checks_carry_the_verdict(self, body, resolution):
        epsilon = 0.05
        smoothed = extract_smoothed_body(
            body, delta=1e-3, epsilon=epsilon, order="C2", resolution=resolution
        )
        checks = smoothed.checks
        w_mesh, we_mesh = smoothed.meshes
        breakdown = symmetric_difference_breakdown(w_mesh, we_mesh)
        assert checks["symdiff_measure"] == breakdown["combined"]
        spread = abs(breakdown["radius_based"] - breakdown["flag_based"])
        reported = spread > 0.01 * breakdown["combined"]
        assert checks.get("symdiff_breakdown") == (breakdown if reported else None)
        assert checks["contained"] == bool(np.all(contains_many(body, we_mesh.points)))
        assert checks["passed"] == (
            breakdown["combined"] < epsilon * checks["boundary_measure"]
            and checks["contained"]
            and checks["tube_ok"]
        )
        rho = body.interior_radius
        assert checks["hessian_min_eig"] == 2.0 / (2.0 * body.radius - rho) ** 2
        assert checks["hessian_min_eig"] >= checks["hessian_floor"]

    def test_serialization(self):
        smoothed = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05, order="C2")
        data = smoothed.to_json()
        assert set(data) == {"body", "delta", "order"}
        assert data["order"] == "C2"


class TestPipelineInvariants:
    """Random bodies, near-tangent, near-copy and |a_i| -> R ones included:
    the pipeline either refuses with a named error or returns a body that
    meets every documented invariant."""

    @settings(max_examples=80, deadline=None)
    @given(
        body=ball_bodies(),
        order=st.sampled_from(["C11", "C2"]),
        log_delta=st.floats(-4.0, -1.5),
        epsilon=st.floats(0.01, 0.2),
        res2d=st.integers(64, 1024),
        res3d=st.integers(2, 3),
    )
    def test_named_error_or_invariants_hold(self, body, order, log_delta, epsilon, res2d, res3d):
        try:
            smoothed = extract_smoothed_body(
                body,
                delta=10.0**log_delta * body.radius**2,
                epsilon=epsilon,
                order=order,
                resolution=res2d if body.dim == 2 else res3d,
            )
        except ConvexSmoothError as e:
            assert type(e) is not ConvexSmoothError
            return
        checks = smoothed.checks
        assert checks["contained"] and checks["tube_ok"]
        assert checks["hessian_min_eig"] >= checks["hessian_floor"] * (1.0 - 1e-9)
        w_mesh, we_mesh = smoothed.meshes
        agreeing = np.unique(we_mesh.facets[we_mesh.agreement])
        assert np.array_equal(w_mesh.radii[agreeing], we_mesh.radii[agreeing])
