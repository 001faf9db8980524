import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import (
    Ball,
    BallBody,
    BlendedGauge,
    DegenerateBall,
    HalfspaceBody,
    ball_gauge,
    ball_gauge_derivatives,
    blended_values,
    body_gauge_values,
    gauge_lipschitz_bound,
    member_gauge_derivatives,
    member_gauges,
)
from convexsmooth.bodies import contains_many
from convexsmooth.measure import radial_function
from convexsmooth.smooth import RIDGE_GUARD, agreement_many
from helpers import (
    ball_bodies,
    fd_gradient,
    fd_jacobian,
    gauge_by_bisection,
    gauge_condition,
    member_gauges_reference,
    random_ball_body,
)

# Tolerances of the vectorized kernels against the per-ball reference
# loops, fixed from the arithmetic before the kernels were written: the
# same formulas, with <x, a> summed in another order (4 ulp relative, times
# the gauge's condition number in <x, a>), and derivative data within
# 1e-12 of its magnitude.
KERNEL_ULPS = 4
DERIVATIVE_REL_TOL = 1e-12


def lens():
    return BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)


class TestBallGauge:
    def test_centered_ball_is_scaled_norm(self):
        assert ball_gauge(Ball([0.0, 0.0], 1.0), [0.3, 0.4]) == pytest.approx(0.5)

    def test_off_center_matches_bisection_oracle(self):
        ball = Ball([0.5, 0.0], 1.0)
        val = ball_gauge(ball, [1.0, 0.0])
        assert val == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert val == pytest.approx(gauge_by_bisection(ball, [1.0, 0.0]), rel=1e-12)

    def test_zero_at_origin(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            c = rng.uniform(-0.5, 0.5, size=3)
            assert ball_gauge(Ball(c, 1.0), np.zeros(3)) == 0.0

    def test_unit_value_is_boundary(self):
        ball = Ball([0.3, -0.2], 1.1)
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.standard_normal(2) * 2
            mu = ball_gauge(ball, x)
            if mu > 0:
                assert np.linalg.norm(x / mu - ball.center) == pytest.approx(
                    ball.radius, rel=1e-12
                )

    def test_degenerate_ball_raises(self):
        with pytest.raises(DegenerateBall):
            ball_gauge(Ball([2.0, 0.0], 1.0), [1.0, 0.0])

    def test_homogeneity(self):
        ball = Ball([0.4, 0.1], 1.2)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(2)
            t = rng.uniform(0.01, 50)
            assert ball_gauge(ball, t * x) == pytest.approx(
                t * ball_gauge(ball, x), rel=1e-12
            )


class TestDerivatives:
    def test_centered_ball(self):
        ev = ball_gauge_derivatives(Ball([0.0, 0.0], 1.0), [1.0, 0.0])
        assert np.allclose(ev.grad, [1.0, 0.0])
        assert np.allclose(ev.hess_sq, 2.0 * np.eye(2))
        assert np.linalg.eigvalsh(ev.hess_sq)[0] >= 0.5

    def test_matches_finite_differences(self):
        # gradient against value differences; Hessian of the squared gauge
        # against differences of its closed-form gradient (second
        # differences of values cannot reach 1e-6 in double precision)
        rng = np.random.default_rng(3)
        for _ in range(25):
            ball = Ball(rng.uniform(-0.4, 0.4, size=2), rng.uniform(0.8, 1.5))
            x = rng.standard_normal(2)
            x *= rng.uniform(0.3, 2.0) / np.linalg.norm(x)
            ev = ball_gauge_derivatives(ball, x)
            g_fd = fd_gradient(lambda y: ball_gauge(ball, y), x, h=1e-6)
            assert np.linalg.norm(g_fd - ev.grad) <= 1e-6 * (1 + np.linalg.norm(ev.grad))

            def grad_sq(y):
                e = ball_gauge_derivatives(ball, y)
                return 2.0 * e.value * e.grad

            h_fd = fd_jacobian(grad_sq, x, h=1e-6)
            h_fd = 0.5 * (h_fd + h_fd.T)
            scale = max(1.0, float(np.abs(ev.hess_sq).max()))
            assert np.abs(h_fd - ev.hess_sq).max() <= 1e-6 * scale

    def test_eigenvalue_floor_everywhere(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            dim = int(rng.integers(2, 4))
            radius = rng.uniform(0.5, 2.0)
            center = rng.standard_normal(dim)
            center *= rng.uniform(0.0, 0.8) * radius / max(np.linalg.norm(center), 1e-12)
            x = rng.standard_normal(dim) * rng.uniform(0.05, 3.0)
            ev = ball_gauge_derivatives(Ball(center, radius), x)
            floor = 1.0 / (2.0 * radius**2)
            assert np.linalg.eigvalsh(ev.hess_sq)[0] >= floor - 1e-9

    def test_origin_extension(self):
        ball = Ball([0.5, 0.0], 1.0)
        ev = ball_gauge_derivatives(ball, np.zeros(2))
        assert ev.value == 0.0
        assert np.allclose(ev.grad, 0.0)
        assert np.allclose(ev.hess_sq, ev.hess_sq.T)
        # quadratic form averages the two one-sided second derivatives
        v = np.array([1.0, 0.0])
        fwd = 2.0 * ball_gauge(ball, v) ** 2
        bwd = 2.0 * ball_gauge(ball, -v) ** 2
        assert v @ ev.hess_sq @ v == pytest.approx(0.5 * (fwd + bwd), rel=1e-12)
        assert np.linalg.eigvalsh(ev.hess_sq)[0] >= 0.5 - 1e-12


def _attaining(mus):
    """The members whose squared gauge is within 1e-10 of the largest: more
    than one means the point sits on a ridge."""
    sq = mus * mus
    return sq >= np.max(sq, axis=-1, keepdims=True) - 1e-10


class TestBodyGauge:
    """The body gauge is the maximum of the member gauges."""

    def test_single_ball(self):
        body = BallBody(radius=1.0, centers=[[0.2, 0.1]], dim=2)
        mus = member_gauges(body, [0.7, -0.3])
        assert np.max(mus) == pytest.approx(ball_gauge(Ball([0.2, 0.1], 1.0), [0.7, -0.3]))
        assert _attaining(mus).tolist() == [True]

    def test_lens_tip_is_a_ridge_point(self):
        mus = member_gauges(lens(), [0.0, np.sqrt(0.75)])
        assert np.max(mus) == pytest.approx(1.0, abs=1e-12)
        assert _attaining(mus).tolist() == [True, True]

    def test_dominates_members(self):
        body = lens()
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((50, 2))
        values = body_gauge_values(body, xs)
        for c in body.centers:
            assert np.all(values >= ball_gauge(Ball(c, body.radius), xs) - 1e-15)

    def test_subadditivity(self):
        body = lens()
        rng = np.random.default_rng(6)
        x, y = np.moveaxis(rng.standard_normal((200, 2, 2)), 1, 0)
        vx, vy = body_gauge_values(body, x), body_gauge_values(body, y)
        assert np.all(body_gauge_values(body, x + y) <= vx + vy + 1e-12)

    def test_level_set_matches_containment(self):
        rng = np.random.default_rng(7)
        body = random_ball_body(rng, 2, 4)
        xs = rng.uniform(-2.5, 2.5, size=(300, 2))
        values = body_gauge_values(body, xs)
        assert np.array_equal(contains_many(body, xs), values <= 1.0 + 1e-9)

    def test_member_gradient_is_subgradient(self):
        body = lens()
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            x = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
            mus = member_gauges(body, x)
            attaining = np.flatnonzero(_attaining(mus))
            if len(attaining) != 1:
                continue
            checked += 1
            ev = ball_gauge_derivatives(Ball(body.centers[attaining[0]], body.radius), x)
            for _ in range(5):
                y = rng.standard_normal(2) * rng.uniform(0.2, 2.0)
                vy = body_gauge_values(body, y[None])[0]
                assert vy >= np.max(mus) + ev.grad @ (y - x) - 1e-9


_SQUARE = HalfspaceBody(normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[1.0] * 4)

_POINT_CALLS = {
    "member_gauges": lambda x: member_gauges(lens(), x),
    "member_gauge_derivatives": lambda x: member_gauge_derivatives(lens(), x),
    "body_gauge_values": lambda x: body_gauge_values(lens(), x),
    "blended_values": lambda x: blended_values(BlendedGauge(lens(), 1e-3), x),
    "agreement_many": lambda x: agreement_many(BlendedGauge(lens(), 1e-3), x),
    "radial_function": lambda x: radial_function(lens(), x),
    "radial_function-halfspace": lambda x: radial_function(_SQUARE, x),
    "contains_many": lambda x: contains_many(lens(), x),
    "contains_many-halfspace": lambda x: contains_many(_SQUARE, x),
}


@pytest.mark.parametrize("x", [[[1.0, 0.0, 5.0]], [[0.0]]], ids=["longer", "shorter"])
@pytest.mark.parametrize("call", list(_POINT_CALLS.values()), ids=list(_POINT_CALLS))
def test_points_of_another_length_are_named(call, x):
    # a third coordinate once entered |x|^2 but not <x, a>: member_gauges
    # returned [[5.26, 6.59]] for (1, 0, 5) on the lens
    shape = np.shape(x)
    with pytest.raises(ValueError, match=rf"^expected vectors of length 2, got shape \({shape[0]}, {shape[1]}\)$"):
        call(x)


@pytest.mark.parametrize("body", [lens(), _SQUARE], ids=["lens", "square"])
def test_contains_many_takes_one_point(body):
    # one point once raised numpy's IndexError (AxisError on the square)
    x = np.array([[0.1, 0.2], [0.3, 1.2]])
    batch = contains_many(body, x)
    assert batch.tolist() == [True, False]
    assert [contains_many(body, row) for row in x] == batch.tolist()
    assert contains_many(body, [0.1, 0.2]) is True


def test_member_gauge_derivatives_take_one_point():
    # one point is the row of a batch of one, bit for bit, at the origin too
    x = np.array([[0.1, 0.2], [0.0, 0.0], [-0.7, 0.05]])
    batch = member_gauge_derivatives(lens(), x)
    for i, row in enumerate(x):
        single = member_gauge_derivatives(lens(), row)
        assert [a.shape for a in single] == [(2,), (2, 2), (2, 2, 2)]
        for a, b in zip(single, batch):
            assert a.tobytes() == b[i].tobytes()
    assert member_gauge_derivatives(lens(), [0.1, 0.2])[0].tobytes() == batch[0][0].tobytes()


class TestLipschitzBound:
    def test_unit_ball(self):
        body = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
        assert gauge_lipschitz_bound(body) == pytest.approx(2.0)

    def test_lens(self):
        assert gauge_lipschitz_bound(lens()) == pytest.approx(4.0)

    def test_bounds_sampled_difference_quotients(self):
        body = lens()
        bound = gauge_lipschitz_bound(body)
        rng = np.random.default_rng(9)
        xs = rng.uniform(-2, 2, size=(10_000, 2))
        ys = xs + rng.standard_normal((10_000, 2)) * 0.3
        from convexsmooth.gauge import body_gauge_values

        quot = np.abs(body_gauge_values(body, xs) - body_gauge_values(body, ys))
        quot /= np.linalg.norm(xs - ys, axis=1)
        assert float(np.max(quot)) <= bound


def _query_points(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, dim)) * 10.0 ** rng.uniform(-2, 1, size=(40, 1))
    return np.vstack([pts, np.zeros((1, dim))])


class TestMemberKernels:
    """The vectorized points x members kernels against per-ball loops."""

    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(max_balls=6, min_interior=1e-7), seed=st.integers(0, 2**32 - 1))
    def test_member_gauges_match_ball_gauge_loop(self, body, seed):
        pts = _query_points(seed, body.dim)
        got = member_gauges(body, pts)
        ref = np.stack([ball_gauge(Ball(c, body.radius), pts) for c in body.centers], axis=-1)
        assert got.shape == (len(pts), body.num_balls)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = KERNEL_ULPS * np.finfo(float).eps * gauge_condition(body, pts) * ref
        bound[-1] = 0.0  # the origin: both are exactly 0
        assert np.all(np.abs(got - ref) <= bound)

    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(max_balls=6, min_interior=1e-7), seed=st.integers(0, 2**32 - 1))
    def test_member_gauges_are_the_two_branch_form(self, body, seed):
        pts = _query_points(seed, body.dim)
        assert np.array_equal(member_gauges(body, pts), member_gauges_reference(body, pts))

    @settings(max_examples=80, deadline=None)
    @given(
        body=ball_bodies(max_balls=32, min_interior=1e-7),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["rows", "stacked", "one row", "origin"]),
    )
    def test_body_gauge_values_are_the_max_of_the_member_gauges(self, body, seed, shape):
        # member at a time with a running maximum: the bits of the max over
        # the (N, m) two-branch form, the origin row (mu = 0) included
        pts = _query_points(seed, body.dim)
        if shape == "stacked":
            pts = np.stack([pts, 3.0 * pts[::-1], -pts])
        elif shape == "one row":
            pts = pts[seed % (len(pts) - 1) :][:1]
        elif shape == "origin":
            pts = pts[-1:]
        got = body_gauge_values(body, pts)
        assert got.shape == pts.shape[:-1]
        assert np.array_equal(got, np.max(member_gauges_reference(body, pts), axis=-1))

    def test_single_rows_match_the_batch_bit_for_bit(self):
        # centers with |a| up to R(1 - 1e-6): <x, a> is ill-conditioned
        # there, so any batch-dependent summation order shows in the gauge
        rng = np.random.default_rng(2024)
        for trial in range(48):
            dim = 2 + trial % 3
            radius = rng.uniform(0.5, 2.0)
            u = rng.standard_normal((4, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            centers = u * radius * (1.0 - 10.0 ** -rng.uniform(1.0, 6.0, size=(4, 1)))
            body = BallBody(radius=radius, centers=centers, dim=dim)
            pts = rng.standard_normal((64, dim)) * rng.uniform(0.2, 2.0, size=(64, 1))
            batch = member_gauges(body, pts)
            values = body_gauge_values(body, pts)
            sq = -np.sort(-(batch**2), axis=1)
            for i, x in enumerate(pts):
                assert np.array_equal(member_gauges(body, x), batch[i])
                assert np.max(member_gauges(body, x)) == values[i]
                # a blend width that puts the agreement threshold at x's gap
                gauge = BlendedGauge(body=body, delta=(sq[i, 0] - sq[i, 1]) / (1.0 + RIDGE_GUARD))
                assert agreement_many(gauge, x[None])[0] == agreement_many(gauge, pts)[i]
                # the top-two gap is that of the sorted member values
                threshold = gauge.delta * (1.0 + RIDGE_GUARD)
                assert np.array_equal(agreement_many(gauge, pts), sq[:, 0] - sq[:, 1] >= threshold)

    def test_member_gauges_of_one_point(self):
        body = lens()
        x = np.array([0.3, -0.7])
        assert member_gauges(body, x).shape == (2,)
        single = BallBody(radius=1.0, centers=[[0.1, 0.2]], dim=2)
        assert member_gauges(single, x).shape == (1,)

    @settings(max_examples=60, deadline=None)
    @given(body=ball_bodies(max_balls=5), seed=st.integers(0, 2**32 - 1))
    def test_member_derivatives_match_ball_derivatives(self, body, seed):
        pts = _query_points(seed, body.dim)
        value, grad, hess = member_gauge_derivatives(body, pts)
        assert np.array_equal(value, member_gauges(body, pts))
        for j, center in enumerate(body.centers):
            ball = Ball(center, body.radius)
            for i, x in enumerate(pts):
                ev = ball_gauge_derivatives(ball, x)
                for got, ref in ((grad[i, j], ev.grad), (hess[i, j], ev.hess_sq)):
                    tol = DERIVATIVE_REL_TOL * max(1.0, float(np.abs(ref).max()))
                    assert np.abs(got - ref).max() <= tol

    def test_member_derivatives_origin_convention(self):
        body = lens()
        value, grad, hess = member_gauge_derivatives(body, np.zeros((1, 2)))
        for j, center in enumerate(body.centers):
            ev = ball_gauge_derivatives(Ball(center, body.radius), np.zeros(2))
            assert value[0, j] == 0.0 and np.all(grad[0, j] == 0.0)
            assert np.allclose(hess[0, j], ev.hess_sq, rtol=1e-15, atol=0.0)
