#!/usr/bin/env python3
# Certifying strong convexity: round bodies pass, flat faces fail.
#
# A compact body is strongly convex exactly when, at every boundary
# point, a ball of one fixed radius encloses the whole body while
# touching there. The toolkit checks this and several equivalent
# conditions, on samples or in closed form. Run with:
# python demos/02_strong_convexity_certificates.py

import json

import numpy as np

from convexsmooth import (
    BallBody,
    HalfspaceBody,
    PatchParams,
    ball_support_check,
    enclosing_radius,
    gauge_sq_hessian_check,
    halfspace_reconstruction_gap,
    level_set_radius,
    member_gauge_derivatives,
    subgradient_certificate,
)
from convexsmooth.gauge import attaining_members

lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)
square = HalfspaceBody(
    normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[0.5] * 4
)

# --- the rolling-ball condition --------------------------------------------
# at each of 720 sampled boundary points the rolled ball is tested against
# the whole lens, exactly: the lens's farthest point from the ball's centre
# must lie inside it
report = ball_support_check(lens, R=1.0, samples=720)
print("lens, enclosing balls of radius 1:", "PASS" if report.passed else "FAIL")

# the square fails for EVERY radius: a corner at distance s along a flat
# face lies outside the rolled ball by about s^2/(2R), which no finite R
# fixes
for R in (1.0, 10.0, 100.0):
    report = ball_support_check(square, R, samples=360)
    witness = report.worst_witness
    print(
        f"square, radius {R:5.0f}: {'PASS' if report.passed else 'FAIL'}"
        f"  (worst violation {witness['margin']:.2e})"
    )

# reports serialize for batch runs
print("\nreport JSON:", json.dumps(ball_support_check(lens, 1.0, 64).to_json())[:96], "...")

# --- curvature of the squared gauge ----------------------------------------
# each member's squared gauge curves least along its center direction, by
# exactly 2/(R + |a|)^2 (8/9 for the lens), so one evaluation per member
# gives the smallest eigenvalue over the whole space
report = gauge_sq_hessian_check(lens)
print(
    "\nsquared-gauge curvature floor:",
    report.constant,
    "-> smallest eigenvalue",
    report.worst_witness["min_eigenvalue"],
    "along",
    report.worst_witness["x"],
)

# --- the subgradient inequality --------------------------------------------
# strong convexity of a function is quadratic growth above every tangent;
# realize it for the squared body gauge with its curvature floor; an
# attaining member's gradient is a subgradient of the body gauge
rng = np.random.default_rng(0)
xs = rng.standard_normal((40, 2)) * rng.uniform(0.3, 1.5, size=(40, 1))
mus, grads, _ = member_gauge_derivatives(lens, xs)
rows = np.arange(len(xs))
first = np.argmax(attaining_members(mus), axis=1)
mu = mus[rows, first]
pts = list(zip(xs, mu**2, 2 * mu[:, None] * grads[rows, first]))
print("subgradient inequality at eta = 0.5:", subgradient_certificate(pts, 0.5).passed)
print("                  ... at eta = 3.0:", subgradient_certificate(pts, 3.0).passed)

# --- quantitative radii -----------------------------------------------------
# for graphs of strongly convex patches the enclosing radius is explicit
params = PatchParams(lipschitz=1.0, eta=1.0, r=1.0, r0=1.0, diam=2.0)
print("\nenclosing radius for a worked patch family:", enclosing_radius(params))
print("sublevel-set radius L/eta for L=2, eta=0.5:", level_set_radius(2.0, 0.5))

# --- reconstruction from supporting halfspaces ------------------------------
# sampling supporting halfspaces and intersecting them recovers the body;
# the one-sided gap decays quadratically in the angular resolution
ball = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
for m in (8, 32, 128):
    print(f"halfspace reconstruction gap at {m:3d} samples:",
          f"{halfspace_reconstruction_gap(ball, m):.3e}")
