import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import (
    BallBody,
    BlendedGauge,
    ConvexSmoothError,
    DegenerateEpsilon,
    ShrinkDelta,
    blended_gauge_sq,
    blended_gauge_sq_many,
    blended_values,
    boundary_mesh,
    contains,
    extract_smoothed_body,
)
from convexsmooth import smooth
from convexsmooth.bodies import contains_many
from convexsmooth.gauge import body_gauge_values, member_gauges
from convexsmooth.measure import (
    _symdiff_masks,
    batch_ray_crossings,
    direction_grid,
    facet_centroids,
    facet_measures,
    symmetric_difference_breakdown,
    symmetric_difference_measure,
)
from convexsmooth.smooth import (
    RIDGE_GUARD,
    _fold,
    _level_mesh,
    _original_mesh,
    _phi_terms,
    agreement_many,
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
    """The pairwise blend of the fold on two members, sorted descending;
    a gradient of the identity carries the weight of each member."""

    def test_exact_outside_blend_zone(self):
        value, weights, _ = _fold(np.array([1.0, 0.0]), 0.5, grad=np.eye(2))
        assert value == 1.0 and np.array_equal(weights, [1.0, 0.0])  # bit-exact maximum

    def test_tie_c2(self):
        value, weights, _ = _fold(np.array([1.0, 1.0]), 0.5, grad=np.eye(2))
        assert value == pytest.approx(1.09375)
        assert weights == pytest.approx([0.5, 0.5])

    def test_profile_contact_at_delta(self):
        # phi(delta) = delta, phi'(delta) = 1, phi''(delta) = 0
        delta = 0.7
        phi, dphi, d2 = _phi_terms(delta * (1 - 1e-15), delta)
        assert float(phi) == pytest.approx(delta, rel=1e-12)
        assert float(dphi) == pytest.approx(1.0, rel=1e-12)
        assert abs(float(d2)) <= 1e-12

    def test_bounds_and_weights(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a, b = rng.uniform(-2, 2, size=2)
            delta = rng.uniform(0.05, 1.0)
            top = max(a, b)
            value, weights, _ = _fold(np.array([top, min(a, b)]), delta, grad=np.eye(2))
            assert top - 1e-15 <= value <= top + delta / 4 + 1e-15
            assert np.all((weights >= 0.0) & (weights <= 1.0))
            assert weights.sum() == pytest.approx(1.0, rel=1e-15)
            if abs(a - b) >= delta:
                assert value == top

    @staticmethod
    def _blend_near_delta(delta, h, steps):
        """Blend of (delta + k h, 0), k = -steps..steps, one fold over the batch."""
        a = delta + h * np.arange(-steps, steps + 1)
        return _fold(np.stack([a, np.zeros_like(a)], axis=-1), delta)[0]

    def test_c2_second_derivative_continuous(self):
        # one-sided second differences at the blend boundary agree within 1e-4
        delta, h = 1.0, 1e-5
        f = dict(zip(range(-3, 4), self._blend_near_delta(delta, h, 3)))
        left = (2 * f[0] - 5 * f[-1] + 4 * f[-2] - f[-3]) / h**2
        right = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
        assert abs(left - right) <= 1e-4

    def test_validation(self):
        # a NaN or infinite width used to reach the tube estimate and be
        # reported as a fat tube
        for delta in (-0.1, 0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                BlendedGauge(body=lens(), delta=delta)
            with pytest.raises(ValueError, match="delta must be positive and finite"):
                extract_smoothed_body(single(), delta=delta, epsilon=0.05)


class TestBlendedGauge:
    def test_single_ball_is_plain_squared_gauge(self):
        gauge = BlendedGauge(body=single(), delta=1e-3)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((100, 2))
        assert np.array_equal(
            blended_values(gauge, pts), body_gauge_values(single(), pts) ** 2
        )

    def test_exact_off_the_ridge(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3)
        x = np.array([0.9, 0.1])  # far from the symmetry plane
        assert agreement_many(gauge, x[None])[0]
        value, _, _ = blended_gauge_sq(gauge, x)
        assert value == body_gauge_values(lens(), x[None, :])[0] ** 2  # same floats

    def test_dominates_squared_gauge_with_bounded_excess(self):
        rng = np.random.default_rng(2)
        body = random_ball_body(rng, 2, 5)
        delta = 0.05
        gauge = BlendedGauge(body=body, delta=delta)
        pts = rng.uniform(-2, 2, size=(2000, 2))
        excess = blended_values(gauge, pts) - body_gauge_values(body, pts) ** 2
        assert np.all(excess >= -1e-15)
        assert np.all(excess <= delta / 4 * (body.num_balls - 1) + 1e-12)

    def test_indicator_examples(self):
        gauge = BlendedGauge(body=lens(), delta=1e-3)
        on_plane, off_plane = agreement_many(gauge, np.array([[0.0, 0.5], [1.0, 0.0]]))
        assert not on_plane and off_plane  # the symmetry plane is the ridge
        single_gauge = BlendedGauge(body=single(), delta=1e-3)
        assert agreement_many(single_gauge, np.array([[0.3, -0.8]]))[0]

    def test_derivatives_match_finite_differences(self):
        # wide blend keeps the finite differences well conditioned inside
        # the tube; the Hessian check differences the closed-form gradient
        delta = 0.08
        gauge = BlendedGauge(body=lens(), delta=delta)
        rng = np.random.default_rng(3)
        tested_tube = 0
        for k in range(40):
            x = rng.standard_normal(2) * rng.uniform(0.3, 1.2)
            if k % 2:  # steer onto the ridge tube around the symmetry plane
                x[0] = rng.uniform(-0.02, 0.02)
                x[1] = rng.uniform(0.5, 1.2) * rng.choice([-1.0, 1.0])
            value, grad, hess = blended_gauge_sq(gauge, x)
            if not agreement_many(gauge, x[None])[0]:
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
        gauge = BlendedGauge(body=body, delta=0.05)
        floor = 1.0 / (2.0 * body.radius**2)
        for _ in range(200):
            x = rng.standard_normal(2) * rng.uniform(0.1, 2.0)
            _, _, hess = blended_gauge_sq(gauge, x)
            assert np.linalg.eigvalsh(hess)[0] >= floor - 1e-6

    @settings(max_examples=150, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blend_keeps_the_proven_floor(self, body, log_delta, seed):
        # the floor extract_smoothed_body reports: 2/(2R - rho)^2
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((128, body.dim)) * rng.uniform(0.05, 3.0, (128, 1)) * body.radius
        _, _, hess = blended_gauge_sq_many(gauge, x)
        lam = np.linalg.eigvalsh(hess)[:, 0]
        floor = 2.0 / (2.0 * body.radius - body.interior_radius) ** 2
        assert np.all(lam >= floor - 1e-12 * np.abs(hess).max(axis=(1, 2)))

    def test_hessian_field_continuous_across_blend_boundary_c2_only(self):
        # straddle the gap = delta surface at a relative offset of 1e-9;
        # the profile's curvature vanishes there
        gauge = BlendedGauge(body=lens(), delta=1e-3)
        x_in, x_out = _straddle_points(gauge, rel_offset=1e-9)
        _, _, h_in = blended_gauge_sq(gauge, x_in)
        _, _, h_out = blended_gauge_sq(gauge, x_out)
        assert float(np.abs(h_in - h_out).max()) <= 1e-4


class TestBatchedBlend:
    def test_batched_matches_member_by_member_fold(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3):
            body = random_ball_body(rng, dim, 5)
            gauge = BlendedGauge(body=body, delta=0.05)
            pts = rng.standard_normal((300, dim)) * rng.uniform(0.2, 1.5, size=(300, 1))
            values, grads, hessians = blended_gauge_sq_many(gauge, pts)
            in_tube = 0
            for x, v, g, h in zip(pts, values, grads, hessians):
                rv, rg, rh = blended_gauge_sq_reference(gauge, x)
                in_tube += not agreement_many(gauge, x[None])[0]
                assert abs(v - rv) <= HESSIAN_TOL * max(1.0, abs(rv))
                assert np.abs(g - rg).max() <= HESSIAN_TOL * max(1.0, np.abs(rg).max())
                assert np.abs(h - rh).max() <= HESSIAN_TOL * max(1.0, np.abs(rh).max())
            assert in_tube >= 10  # the blend branch is exercised, not only the max

    def test_single_point_is_a_batch_of_one(self):
        gauge = BlendedGauge(body=lens(), delta=0.08)
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
    bisection of h along every grid direction (``batch_ray_crossings``).
    Level t at width delta is t times level 1 at width delta/t^2."""

    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        level=st.floats(1.0, 1.25, exclude_min=True),
        res2d=st.integers(16, 400),
    )
    def test_radii_match_bisection(self, body, log_delta, level, res2d):
        delta = 10.0**log_delta * body.radius**2
        gauge = BlendedGauge(body=body, delta=delta)
        resolution = res2d if body.dim == 2 else 2
        mesh = blended_level_mesh(BlendedGauge(body, delta / level**2), resolution)
        dirs, _ = direction_grid(body.dim, resolution)
        ref = batch_ray_crossings(
            lambda p: np.sqrt(blended_values(gauge, p)), dirs, level, 20.0 * body.radius
        )
        assert np.array_equal(mesh.directions, dirs)
        assert np.all(np.abs(level * mesh.radii - ref) <= RADIUS_REL_TOL * ref)

    def test_blended_single_ball_levels_are_spheres(self):
        gauge = BlendedGauge(body=single(), delta=1e-3)
        mesh = blended_level_mesh(gauge, 64)
        assert np.allclose(mesh.radii, 1.0, rtol=1e-12, atol=0.0)
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
    measures each level's tube facets through that identity."""

    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        t=st.floats(1.0, 1.25, exclude_min=True, exclude_max=True),
        res2d=st.integers(16, 400),
    )
    def test_level_t_is_level_one_of_a_narrower_blend(self, body, log_delta, t, res2d):
        # phi_delta(s) = delta Phi(s/delta) and 2-homogeneous member squared
        # gauges: g_delta(t x) = t^2 g_(delta/t^2)(x), hence
        # (1/t) {sqrt(g_delta) <= t} = {g_(delta/t^2) <= 1}
        delta = 10.0**log_delta * body.radius**2
        dirs, _ = direction_grid(body.dim, res2d if body.dim == 2 else 2)
        pts = np.vstack([dirs / body_gauge_values(body, dirs)[:, None], 0.5 * dirs])
        wide = blended_values(BlendedGauge(body, delta), t * pts)
        narrow = blended_values(BlendedGauge(body, delta / t**2), pts)
        assert np.all(np.abs(wide - t * t * narrow) <= 1e-13 * wide)

    @settings(max_examples=60, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        shrink=st.floats(1e-3, 1.0),
        res2d=st.integers(16, 400),
        res3d=st.integers(2, 3),
    )
    def test_a_narrower_blend_never_shrinks_the_body(
        self, body, log_delta, shrink, res2d, res3d
    ):
        # d phi_delta / d delta >= 0, so g grows with delta
        # and the level-1 radii can only grow as delta shrinks
        delta = 10.0**log_delta * body.radius**2
        resolution = res2d if body.dim == 2 else res3d
        wide = blended_level_mesh(BlendedGauge(body, delta), resolution)
        narrow = blended_level_mesh(BlendedGauge(body, shrink * delta), resolution)
        assert np.all(narrow.radii >= wide.radii * (1.0 - 1e-14))

    def test_min_bounded_by_scan_average(self):
        gauge = BlendedGauge(body=lens(), delta=5e-3)
        _, measures = level_disagreement_scan(gauge, 0.05, 16, resolution=2048)
        assert measures.min() <= measures.mean() + 1e-15

    @pytest.mark.parametrize(
        "body, resolution",
        [(lens(), 512), (THREE_BALL, 3), (random_ball_body(np.random.default_rng(21), 2, 6), 333)],
        ids=["lens", "three-ball-3d", "six-ball-2d"],
    )
    def test_scan_measures_are_those_of_each_level_mesh(self, body, resolution):
        # the level-t mesh is t times the level-1 mesh of width delta/t^2;
        # its facet measures are taken on the scaled points
        gauge = BlendedGauge(body=body, delta=1e-3)
        levels, measures = level_disagreement_scan(gauge, 0.05, 16, resolution=resolution)
        for t, m in zip(levels, measures):
            mesh = blended_level_mesh(BlendedGauge(body, 1e-3 / t**2), resolution)
            level_t = facet_measures(t * mesh.points, mesh.facets)
            assert m == pytest.approx(np.sum(level_t[~mesh.agreement]), rel=1e-12)
        assert np.any(measures > 0.0)

    def test_epsilon_validation(self):
        gauge = BlendedGauge(body=single(), delta=1e-3)
        for bad in (0.0, 0.25, 0.5, -0.1):
            with pytest.raises(DegenerateEpsilon):
                level_disagreement_scan(gauge, bad, 16)


def ring(m, offset):
    angles = 2.0 * np.pi * np.arange(m) / m
    return BallBody(
        radius=1.0, centers=offset * np.column_stack([np.cos(angles), np.sin(angles)]), dim=2
    )


def _tube_rows(gauge, w_mesh, mus):
    """Tube directions of a grid and their member squared gauges, sorted
    descending: the rows ``_level_mesh`` hands to ``_tube_radii``."""
    sq = -np.sort(-(mus * mus), axis=-1)
    r = w_mesh.radii
    tube = r * r * (sq[:, 0] - sq[:, 1]) < gauge.delta * (1.0 + RIDGE_GUARD)
    return np.nonzero(tube)[0], sq


class TestOneLevelMesher:
    """A level's tube directions go through one Newton solve; every row must
    get the radius of solving it alone, and the facets the flags of the
    level's own centroids."""

    def test_rows_taking_different_newton_step_counts(self, monkeypatch):
        # a wide blend on an 8-ball ring: some rows need more Newton steps
        # than others, and each still gets its own radius
        gauge = BlendedGauge(body=ring(8, 0.1), delta=0.1)
        w_mesh, mus, flags = _original_mesh(gauge, 256)
        radii = _level_mesh(gauge, w_mesh, mus, flags).radii
        tube, sq = _tube_rows(gauge, w_mesh, mus)
        fold = smooth._fold
        steps = []
        for row in tube:
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return fold(*args, **kwargs)

            monkeypatch.setattr(smooth, "_fold", counted)
            alone = smooth._tube_radii(gauge, sq[row : row + 1])
            monkeypatch.setattr(smooth, "_fold", fold)
            steps.append(len(calls))
            assert radii[row] == alone[0]
        assert min(steps) > 0 and len(set(steps)) > 1

    @settings(max_examples=40, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.0),
        res2d=st.integers(16, 200),
    )
    def test_each_tube_row_is_solved_as_if_alone(self, body, log_delta, res2d):
        # every row stops on its own Newton step, so no row's radius depends
        # on the rows batched with it; closed-form rows keep the original
        # radius to the bit
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2)
        w_mesh, mus, flags = _original_mesh(gauge, res2d if body.dim == 2 else 2)
        radii = _level_mesh(gauge, w_mesh, mus, flags).radii
        if mus.shape[-1] == 1:
            assert np.array_equal(radii, w_mesh.radii)
            return
        tube, sq = _tube_rows(gauge, w_mesh, mus)
        closed = np.ones(len(radii), dtype=bool)
        closed[tube] = False
        assert np.array_equal(radii[closed], w_mesh.radii[closed])
        for row in tube:
            alone = smooth._tube_radii(gauge, sq[row : row + 1])
            assert radii[row] == alone[0]

    @settings(max_examples=60, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, np.log10(0.3)),
        level=st.floats(1.0, 1.25),
        res2d=st.integers(16, 700),
        res3d=st.integers(2, 3),
    )
    def test_flags_are_those_of_the_level_centroids(
        self, body, log_delta, level, res2d, res3d
    ):
        # level t at width delta is t times level 1 at width delta/t^2: the
        # flags of the narrower blend, tested at the original mesh's
        # centroids, must be those of the level-t set tested at its own
        # centroids, except where the gap sits at the threshold to rounding
        gauge = BlendedGauge(body=body, delta=10.0**log_delta * body.radius**2)
        narrow = BlendedGauge(body, gauge.delta / level**2)
        w_mesh, mus, flags = _original_mesh(narrow, res2d if body.dim == 2 else res3d)
        mesh = _level_mesh(narrow, w_mesh, mus, flags)
        ref = level_flags_reference(gauge, w_mesh, mus, level, level * mesh.radii)
        if len(body.centers) == 1:
            assert np.array_equal(mesh.agreement, ref) and np.all(ref)
            return
        threshold = gauge.delta * (1.0 + RIDGE_GUARD)
        gap = _gap_values(body, facet_centroids(level * mesh.points, w_mesh.facets))
        at_threshold = np.abs(gap - threshold) <= 1e-12 * threshold
        assert np.array_equal(mesh.agreement[~at_threshold], ref[~at_threshold])
        assert np.count_nonzero(at_threshold) <= 1 + 1e-3 * len(ref)


class TestExtract:
    def test_single_ball_reproduces_itself(self):
        from convexsmooth import symmetric_difference_measure

        body = single()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        for res in (128, 512):
            w = boundary_mesh(body, res)
            we = boundary_mesh(smoothed, res)
            assert symmetric_difference_measure(w, we) == 0.0

    def test_lens_pipeline(self):
        from convexsmooth import hausdorff_measure, symmetric_difference_measure

        body = lens()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        checks = smoothed.checks
        assert checks["contained"] and checks["tube_ok"]
        assert checks["hessian_min_eig"] >= 0.9 * 0.5
        w = boundary_mesh(body, 10_000)
        we = boundary_mesh(smoothed, 10_000)
        assert symmetric_difference_measure(w, we) < 0.05 * hausdorff_measure(w)

    def test_containment_chain(self):
        body = lens()
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
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
            body, delta=1e-3, epsilon=0.05, resolution=resolution
        )
        res = resolution if resolution is not None else {2: 1024, 3: 4}[body.dim]
        for built, ref in zip(smoothed.meshes, (boundary_mesh(body, res), boundary_mesh(smoothed, res))):
            assert np.array_equal(built.directions, ref.directions)
            assert np.array_equal(built.radii, ref.radii)
            assert np.array_equal(built.agreement, ref.agreement)
        assert not np.all(smoothed.meshes[1].agreement)

    @pytest.mark.parametrize("body", [lens(), THREE_BALL], ids=["lens", "three-ball-3d"])
    def test_one_run_makes_two_member_gauge_passes(self, body, monkeypatch):
        # one over the grid directions and one over the original mesh's
        # facet centroids; the tube solve and every check reuse them
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return member_gauges(*args, **kwargs)

        monkeypatch.setattr(smooth, "member_gauges", counted)
        smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        w_mesh, we_mesh = smoothed.meshes
        assert not np.array_equal(w_mesh.radii, we_mesh.radii)  # the tube solve ran
        assert len(calls) == 2

    def test_separate_runs_compare_equal(self):
        first = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05)
        second = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05)
        assert first == second
        assert first != extract_smoothed_body(lens(), delta=2e-3, epsilon=0.05)

    def test_fat_tube_rejected(self):
        with pytest.raises(ShrinkDelta):
            extract_smoothed_body(lens(), delta=0.5, epsilon=0.05)

    def test_duplicate_centers_are_named(self):
        # identical balls tie on their whole boundary: no delta helps, so
        # the advice names the copies instead
        body = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]], dim=2)
        with pytest.raises(ShrinkDelta, match=r"balls \(0, 2\) have identical centers") as info:
            extract_smoothed_body(body, delta=1e-3, epsilon=0.05)
        assert "remove" in str(info.value) and "decrease delta" not in str(info.value)
        with pytest.raises(ShrinkDelta, match="decrease delta"):
            extract_smoothed_body(lens(), delta=0.5, epsilon=0.05)

    def test_epsilon_validation(self):
        with pytest.raises(DegenerateEpsilon):
            extract_smoothed_body(lens(), delta=1e-3, epsilon=0.3)

    @pytest.mark.parametrize("scale", [0.25, 8.0], ids=["quarter", "eight"])
    def test_default_width_is_scale_invariant(self, scale):
        # squared gauges are dimensionless, so the default width fits every
        # scale; a power-of-two scale multiplies each radius exactly
        unit = extract_smoothed_body(lens(), delta=None, epsilon=0.05)
        body = BallBody(radius=scale, centers=scale * lens().centers, dim=2)
        scaled = extract_smoothed_body(body, delta=None, epsilon=0.05)
        assert scaled.gauge.delta == unit.gauge.delta
        for got, ref in zip(scaled.meshes, unit.meshes):
            assert np.array_equal(got.radii, scale * ref.radii)
            assert np.array_equal(got.agreement, ref.agreement)
        assert scaled.checks["passed"] == unit.checks["passed"] is True

    @pytest.mark.parametrize(
        "body, resolution",
        [(lens(), None), (lens(), 100), (THREE_BALL, None)],
        ids=["lens-default", "lens-100", "three-ball-3d-default"],
    )
    def test_checks_carry_the_verdict(self, body, resolution):
        epsilon = 0.05
        smoothed = extract_smoothed_body(
            body, delta=1e-3, epsilon=epsilon, resolution=resolution
        )
        checks = smoothed.checks
        w_mesh, we_mesh = smoothed.meshes
        symdiff = symmetric_difference_measure(w_mesh, we_mesh)
        assert checks["symdiff_measure"] == symdiff
        assert checks["contained"] == bool(np.all(contains_many(body, we_mesh.points)))
        assert checks["passed"] == (
            symdiff < epsilon * checks["boundary_measure"]
            and checks["contained"]
            and checks["tube_ok"]
        )
        rho = body.interior_radius
        assert checks["hessian_min_eig"] == 2.0 / (2.0 * body.radius - rho) ** 2
        assert checks["hessian_min_eig"] >= checks["hessian_floor"]

    def test_serialization(self):
        smoothed = extract_smoothed_body(lens(), delta=1e-3, epsilon=0.05)
        data = smoothed.to_json()
        assert set(data) == {"body", "delta"}
        assert data["delta"] == 1e-3


class TestPipelineInvariants:
    """Random bodies, near-tangent, near-copy and |a_i| -> R ones included:
    the pipeline either refuses with a named error or returns a body that
    meets every documented invariant."""

    @settings(max_examples=80, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.5),
        epsilon=st.floats(0.01, 0.2),
        res2d=st.integers(64, 1024),
        res3d=st.integers(2, 3),
    )
    def test_named_error_or_invariants_hold(self, body, log_delta, epsilon, res2d, res3d):
        try:
            smoothed = extract_smoothed_body(
                body,
                delta=10.0**log_delta * body.radius**2,
                epsilon=epsilon,
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

    @settings(max_examples=80, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.5),
        res2d=st.integers(64, 1024),
        res3d=st.integers(2, 3),
    )
    def test_smoothed_vertices_lie_in_the_gauge_band(self, body, log_delta, res2d, res3d):
        # g >= q, and each of the m - 1 fold steps adds at most delta/4: on
        # the level-1 set the body gauge, the ratio of the smoothed radius to
        # the original one, lies in [sqrt(1 - (m - 1) delta/4), 1]
        delta = 10.0**log_delta
        try:
            smoothed = extract_smoothed_body(
                body,
                delta=delta,
                epsilon=0.2,
                resolution=res2d if body.dim == 2 else res3d,
            )
        except ShrinkDelta:
            return
        checks = smoothed.checks
        w_mesh, we_mesh = smoothed.meshes
        ratio = we_mesh.radii / w_mesh.radii
        m = len(body.centers)
        assert np.min(ratio) >= np.sqrt(max(1.0 - (m - 1) * delta / 4.0, 0.0))
        # a tube row whose gap rounds onto the threshold may land an ulp
        # off the original radius
        assert np.max(ratio) <= 1.0 + 4.0 * np.finfo(float).eps
        # the checks read off the radii are those of a membership and a
        # gauge pass over the smoothed vertices; the gauge pass rounds to
        # ~7e-15 on bodies with an interior radius near 1e-4 R
        assert checks["contained"] == bool(np.all(contains_many(body, we_mesh.points)))
        mus = body_gauge_values(body, we_mesh.points)
        low, high = checks["gauge_range_on_boundary"]
        assert abs(low - np.min(mus)) <= 1e-14 and abs(high - np.max(mus)) <= 1e-14
        # off-tube radii coincide to the bit and tube facets are flagged, so
        # the flags alone give the symmetric difference
        breakdown = symmetric_difference_breakdown(w_mesh, we_mesh)
        assert checks["symdiff_measure"] == breakdown["combined"] == breakdown["flag_based"]

    @settings(max_examples=60, deadline=None)
    @given(
        body=ball_bodies(),
        log_delta=st.floats(-4.0, -1.5),
        res2d=st.integers(16, 1024),
        res3d=st.integers(2, 3),
    )
    def test_flags_alone_give_the_symmetric_difference(self, body, log_delta, res2d, res3d):
        # a vertex whose radii differ is a tube vertex, so every facet it
        # touches is flagged: the pipeline's flag-only measure is that of
        # symmetric_difference_measure, whose radius mask adds nothing
        try:
            smoothed = extract_smoothed_body(
                body,
                delta=10.0**log_delta * body.radius**2,
                epsilon=0.2,
                resolution=res2d if body.dim == 2 else res3d,
            )
        except ShrinkDelta:
            return
        w_mesh, we_mesh = smoothed.meshes
        assert smoothed.checks["symdiff_measure"] == symmetric_difference_measure(w_mesh, we_mesh)
        by_radius, by_flag = _symdiff_masks(w_mesh, we_mesh)
        assert not np.any(by_radius & ~by_flag)
        differ = (w_mesh.radii != we_mesh.radii)[w_mesh.facets].any(axis=1)
        assert not np.any(differ & ~by_flag)
