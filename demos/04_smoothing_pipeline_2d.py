#!/usr/bin/env python3
# The full smoothing pipeline in 2D: replace a body having ridge corners
# by an inscribed C2 strongly convex body whose boundary coincides with
# the original except on an arbitrarily thin tube around the ridges.
# Run with: python demos/04_smoothing_pipeline_2d.py; the mesh export goes to
# output/ under the working directory.

import json
from pathlib import Path

import numpy as np

from convexsmooth import (
    BallBody,
    BlendedGauge,
    blended_gauge_sq,
    blended_values,
    body_gauge_values,
    boundary_mesh,
    extract_smoothed_body,
    hausdorff_measure,
    polyline_json,
    symmetric_difference_measure,
)
from convexsmooth.smooth import agreement_many

# --- blending the squared gauge ---------------------------------------------
# the member squared gauges go through a smoothed maximum that is EXACT
# (same floats) once the top two separate by delta, and convex in between
lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)
gauge = BlendedGauge(body=lens, delta=1e-3)

on_ridge = np.array([0.0, 0.8])
off_ridge = np.array([0.6, 0.5])
points = np.array([on_ridge, off_ridge])
excess = blended_values(gauge, points) - body_gauge_values(lens, points) ** 2
agree = agreement_many(gauge, points)
print("\nblend minus squared gauge, and agreement with it:")
print(f"  on the ridge:  {excess[0]:.3e}, {agree[0]}")
print(f"  off the ridge: {excess[1]:.3e}, {agree[1]}")

# the blend keeps the members' curvature floor
_, _, hess = blended_gauge_sq(gauge, on_ridge)
print("  Hessian eigenvalues on the ridge:", np.linalg.eigvalsh(hess))

# --- extract the smoothed body ----------------------------------------------
# the level-1 body {g <= 1}: any other level t is level 1 of the blend of
# width delta/t^2, so delta is the one width knob
smoothed = extract_smoothed_body(lens, delta=1e-3, epsilon=0.05)
print("\nblend width delta:", smoothed.gauge.delta)
for key, val in smoothed.checks.items():
    print(f"  {key}: {val}")

# --- measure what changed ----------------------------------------------------
resolution = 10_000
w_mesh = boundary_mesh(lens, resolution)
we_mesh = boundary_mesh(smoothed, resolution)
boundary = hausdorff_measure(w_mesh)
symdiff = symmetric_difference_measure(w_mesh, we_mesh)
print(f"\nboundary measure:            {boundary:.6f}")
print(f"symmetric difference:        {symdiff:.6f}")
print(f"epsilon * boundary measure:  {0.05 * boundary:.6f}")
print("bound met?", symdiff < 0.05 * boundary)

out = Path("output")
out.mkdir(exist_ok=True)
# the export is JSON text whose floats read back to the mesh points exactly
text = polyline_json(we_mesh)
print("\nexport reads back bit for bit:", json.loads(text)["points"] == we_mesh.points.tolist())
(out / "lens_smoothed.json").write_text(text + "\n")
print("wrote", out / "lens_smoothed.json")
