#!/usr/bin/env python3
# Bodies as intersections of equal-radius balls, and their gauges.
#
# A "lens" is the simplest interesting example: two unit balls whose
# centers sit half a radius apart. Every script in this directory reuses
# it. Run with: python demos/01_gauges_and_bodies.py

import numpy as np

from convexsmooth import (
    Ball,
    BallBody,
    ball_gauge,
    ball_gauge_derivatives,
    contains,
    diameter,
    gauge_lipschitz_bound,
    member_gauges,
    normal_lift,
)
from convexsmooth.gauge import attaining_members

# --- build a body ----------------------------------------------------------
# invariants are enforced at construction: all centers must be closer to
# the origin than the radius, so the origin is interior
lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)
print("lens with", lens.num_balls, "balls, interior radius", lens.interior_radius)

# membership is a plain distance test against every generating ball
for point in ([0.0, 0.0], [0.49, 0.0], [0.51, 0.0], [0.0, 0.87]):
    print(f"  contains {point}? {contains(lens, point)}")

# --- the gauge of one ball -------------------------------------------------
# the gauge mu(x) is the factor by which x must be shrunk to reach the
# ball: mu <= 1 inside, mu = 1 on the sphere, 1-homogeneous
ball = Ball([0.5, 0.0], 1.0)
x = np.array([1.0, 0.0])
print("\ngauge of B((0.5,0), 1) at (1,0):", ball_gauge(ball, x), "(exactly 2/3)")
print("gauge at 2x doubles:", ball_gauge(ball, 2 * x))

# closed-form derivatives: the squared gauge is the smooth object; its
# Hessian never dips below 1/(2 R^2), the strong-convexity floor
ev = ball_gauge_derivatives(ball, x)
print("gradient:", ev.grad)
print("squared-gauge Hessian eigenvalues:", np.linalg.eigvalsh(ev.hess_sq))
print("floor 1/(2R^2) =", 1 / (2 * ball.radius**2))

# --- the body gauge --------------------------------------------------------
# the body gauge is the max over members; where two members tie you are
# on a ridge (here: the vertical symmetry plane of the lens)
tip = np.array([0.0, np.sqrt(0.75)])
mus = member_gauges(lens, tip)
attaining = np.flatnonzero(attaining_members(mus)).tolist()
print("\nbody gauge at the lens tip:", mus.max(), "attained by members", attaining)

# --- coarse geometric data -------------------------------------------------
print("\ndiameter (certified upper bound):", diameter(lens))
print("true tip-to-tip distance:        ", 2 * np.sqrt(0.75))
print("gauge Lipschitz bound 2/rho:", gauge_lipschitz_bound(lens))

# the normal lift turns a subgradient of a graph function into the unit
# outward normal of its epigraph; it is how slopes enter ball geometry
print("\nnormal lift of slope (1,):", normal_lift([1.0]))
