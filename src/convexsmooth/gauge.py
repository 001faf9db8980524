"""Closed-form gauge of a ball about the origin, and the body gauge.

For a ball B(a, R) with |a| < R and k = R^2 - |a|^2 > 0, the gauge
(Minkowski functional with respect to the origin) is

    mu(x) = (-<x, a> + sqrt(<x, a>^2 + k |x|^2)) / k,

a nonnegative, 1-homogeneous convex function with mu <= 1 exactly on the
ball. Its gradient is mu'(x) = s(x) (x - mu(x) a) with
s(x) = 1/sqrt(<x, a>^2 + k |x|^2), and the Hessian of mu^2 has minimum
eigenvalue at least 1/(2 R^2) everywhere, which is the strong-convexity
constant the certificates rely on.

The body gauge of an intersection of balls is the pointwise maximum of the
member gauges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bodies import Ball, BallBody, _as_vector, _row_dots
from .errors import DegenerateBall

# Absolute tolerance on squared gauge values when listing the attaining
# members: distinguishes exact ridge points from near-ridge points under
# double-precision noise.
GAP_TOL = 1e-10


@dataclass(frozen=True)
class GaugeEval:
    """Gauge value with first and second derivative data at one point.

    ``grad`` is the gauge gradient (undefined direction at x = 0, returned
    as the zero vector there since the squared gauge is C^1 with vanishing
    gradient at the origin). ``hess_sq`` is the Hessian of the squared
    gauge; at x = 0 it is the symmetric matrix whose quadratic form is the
    average of the forward/backward second directional derivatives of the
    2-homogeneous extension, (4 a a^T + 2 k I) / k^2.
    """

    value: float
    grad: np.ndarray
    hess_sq: np.ndarray


def _ball_k(ball: Ball) -> float:
    k = ball.radius**2 - float(ball.center @ ball.center)
    if k <= 0.0:
        raise DegenerateBall(
            "radius^2 - |center|^2 must be positive (origin interior to ball)"
        )
    return k


def ball_gauge(ball: Ball, x) -> float | np.ndarray:
    """Gauge of a single ball at x; broadcasts over leading axes of x.

    Evaluated in a cancellation-free arrangement: for <x, a> >= 0 the
    equivalent form |x|^2 / (sqrt(<x,a>^2 + k|x|^2) + <x,a>) is used.
    """
    k = _ball_k(ball)
    a = ball.center
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 1
    xa = xs @ a
    xx = np.einsum("...i,...i->...", xs, xs)
    s = np.sqrt(xa * xa + k * xx)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = xx / (s + xa)
        neg = (s - xa) / k
    val = np.where(xa >= 0.0, pos, neg)
    val = np.where(xx == 0.0, 0.0, val)
    return float(val) if scalar else val


def ball_gauge_derivatives(ball: Ball, x) -> GaugeEval:
    """Gauge value, gradient, and Hessian of the squared gauge at x.

    The gradient of the gauge itself is only defined for x != 0; the
    squared gauge is differentiable everywhere and its Hessian here is
    symmetric with minimum eigenvalue >= 1/(2 R^2).
    """
    k = _ball_k(ball)
    a = ball.center
    x = _as_vector(x, ball.dim)
    n = ball.dim
    xx = float(x @ x)
    if xx == 0.0:
        hess0 = (4.0 * np.outer(a, a) + 2.0 * k * np.eye(n)) / (k * k)
        return GaugeEval(value=0.0, grad=np.zeros(n), hess_sq=hess0)
    xa = float(x @ a)
    s = np.sqrt(xa * xa + k * xx)
    value = xx / (s + xa) if xa >= 0.0 else (s - xa) / k
    scale = 1.0 / s
    grad = scale * (x - value * a)

    dscale = -(scale**3) * (xa * a + k * x)
    hess_mu = np.outer(dscale, x - value * a) + scale * (
        np.eye(n) - np.outer(a, grad)
    )
    hess_mu = 0.5 * (hess_mu + hess_mu.T)
    hess_sq = 2.0 * np.outer(grad, grad) + 2.0 * value * hess_mu
    hess_sq = 0.5 * (hess_sq + hess_sq.T)
    return GaugeEval(value=float(value), grad=grad, hess_sq=hess_sq)


class BodyGauge(NamedTuple):
    value: float
    argmax_set: list[int]


def _member_arrays(body: BallBody) -> tuple[np.ndarray, np.ndarray]:
    """Centers (m, n) and k_i = R^2 - |a_i|^2 (m,) of every member ball.

    k_i is formed exactly as :func:`ball_gauge` forms it: it cancels badly
    as |a_i| -> R, and the two kernels must round it alike to agree.
    """
    centers = body.centers
    k = body.radius**2 - np.array([float(c @ c) for c in centers])
    if np.any(k <= 0.0):
        raise DegenerateBall(
            "radius^2 - |center|^2 must be positive (origin interior to ball)"
        )
    return centers, k


def _gauge_kernel(centers, k, xs):
    """Shared core of the batched kernels: <x, a_i>, |x|^2, s and mu_i.

    Shapes are (..., m) for x of shape (..., n), except |x|^2, which is
    (..., 1). The arithmetic is the cancellation-free arrangement of
    :func:`ball_gauge`, applied to all members at once. <x, a_i> comes
    from :func:`convexsmooth.bodies._row_dots`, so a point gets the same
    bits alone as inside any batch.
    """
    xa = _row_dots(xs, centers)
    xx = np.einsum("...i,...i->...", xs, xs)[..., None]
    # the arithmetic of the two-branch form, with fewer temporaries
    s = xa * xa
    s += k * xx
    np.sqrt(s, out=s)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = s + xa
        np.divide(xx, pos, out=pos)
        neg = s - xa
        neg /= k
    val = np.where(xa >= 0.0, pos, neg)
    origin = xx == 0.0
    if origin.any():
        val = np.where(origin, 0.0, val)
    return xa, xx, s, val


def member_gauges(body: BallBody, x) -> np.ndarray:
    """Gauge values of every member ball; shape (..., m) for x of shape (..., n).

    One vectorized kernel over points and members, independent of batch
    shape: each row equals the kernel applied to that point alone, bit for
    bit. It matches a loop of :func:`ball_gauge` calls to a few ulp times
    the gauge's condition number in <x, a_i>, not bit for bit, because
    :func:`ball_gauge` may sum the inner products in another order.
    """
    centers, k = _member_arrays(body)
    return _gauge_kernel(centers, k, np.asarray(x, dtype=float))[3]


def member_gauge_derivatives(body: BallBody, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`ball_gauge_derivatives` over points and members.

    For points of shape (N, n) returns the gauges (N, m), their gradients
    (N, m, n) and the Hessians of the squared gauges (N, m, n, n), with the
    same conventions at x = 0. Values are those of :func:`member_gauges`.
    """
    centers, k = _member_arrays(body)
    xs = np.asarray(points, dtype=float)
    n = centers.shape[1]
    xa, xx, s, value = _gauge_kernel(centers, k, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / s
        offset = xs[:, None, :] - value[..., None] * centers
        grad = scale[..., None] * offset
        dscale = -(scale**3)[..., None] * (
            xa[..., None] * centers + k[:, None] * xs[:, None, :]
        )
        hess_mu = dscale[..., :, None] * offset[..., None, :] + scale[..., None, None] * (
            np.eye(n) - centers[:, :, None] * grad[..., None, :]
        )
        hess_mu = 0.5 * (hess_mu + np.swapaxes(hess_mu, -1, -2))
        hess_sq = 2.0 * (grad[..., :, None] * grad[..., None, :]) + (
            2.0 * value
        )[..., None, None] * hess_mu
        hess_sq = 0.5 * (hess_sq + np.swapaxes(hess_sq, -1, -2))
    origin = xx[:, 0] == 0.0
    if np.any(origin):
        outer = centers[:, :, None] * centers[:, None, :]
        hess0 = (4.0 * outer + 2.0 * k[:, None, None] * np.eye(n)) / (k * k)[:, None, None]
        grad[origin] = 0.0
        hess_sq[origin] = hess0
    return value, grad, hess_sq


def body_gauge(body: BallBody, x) -> BodyGauge:
    """Body gauge value and the list of members attaining it.

    The attaining set lists every member whose squared gauge is within
    ``GAP_TOL`` (absolute) of the maximum; more than one entry means x sits
    on a ridge.
    """
    x = _as_vector(x, body.dim)
    vals = member_gauges(body, x)
    return BodyGauge(
        value=float(np.max(vals)), argmax_set=np.flatnonzero(attaining_members(vals)).tolist()
    )


def attaining_members(values: np.ndarray) -> np.ndarray:
    """Mask of the members attaining the body gauge, from member gauges (..., m).

    A member attains it when its squared gauge is within ``GAP_TOL`` of the
    largest: the batched ``argmax_set`` of :func:`body_gauge`.
    """
    sq = values * values
    return sq >= np.max(sq, axis=-1, keepdims=True) - GAP_TOL


def body_gauge_values(body: BallBody, points: np.ndarray) -> np.ndarray:
    """Batched body gauge over an (N, dim) array; returns (N,) values."""
    return np.max(member_gauges(body, points), axis=-1)


def gauge_lipschitz_bound(body: BallBody) -> float:
    """A valid Lipschitz constant for the body gauge: 2/rho.

    rho is the interior radius; the bound follows from B(0, rho) sitting
    inside the body. It is generally not tight (a centered unit ball has
    true constant 1 but bound 2).
    """
    return 2.0 / body.interior_radius
