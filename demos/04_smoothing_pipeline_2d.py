#!/usr/bin/env python3
# The full smoothing pipeline in 2D: replace a body having ridge corners
# by an inscribed C2 strongly convex body whose boundary coincides with
# the original except on an arbitrarily thin tube around the ridges.
# Run with: python demos/04_smoothing_pipeline_2d.py

import json
from pathlib import Path

import numpy as np

from convexsmooth import (
    BallBody,
    BlendedGauge,
    agreement_indicator,
    blended_gauge_sq,
    boundary_mesh,
    extract_smoothed_body,
    hausdorff_measure,
    polyline_json,
    smooth_max,
    symmetric_difference_measure,
)

# --- the blend at the heart of the pipeline ---------------------------------
# a smoothed maximum that is EXACT (same floats) once the arguments
# separate by delta, and convex in between
for a, b in ((1.0, 0.2), (1.0, 0.95), (1.0, 1.0)):
    value, weight = smooth_max(a, b, delta=0.1, order="C2")
    print(f"smooth_max({a}, {b}) = {value:.6f}  (weight on a: {weight:.2f})")

# --- blending the squared gauge ---------------------------------------------
lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)
gauge = BlendedGauge(body=lens, delta=1e-3, order="C2")

on_ridge = np.array([0.0, 0.8])
off_ridge = np.array([0.6, 0.5])
print("\nagreement with the squared gauge:")
print("  on the ridge:", agreement_indicator(gauge, on_ridge))
print("  off the ridge:", agreement_indicator(gauge, off_ridge))

# the blend keeps the members' curvature floor
_, _, hess = blended_gauge_sq(gauge, on_ridge)
print("  Hessian eigenvalues on the ridge:", np.linalg.eigvalsh(hess))

# --- extract the smoothed body ----------------------------------------------
# picks a level t0 in (1, 1+eps) whose level set meets the blend tube in
# the least measure, then shrinks the sublevel set back by 1/t0
smoothed = extract_smoothed_body(lens, delta=1e-3, epsilon=0.05, order="C2")
print("\nchosen regular value t0:", smoothed.t0)
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

out = Path(__file__).resolve().parent / "output"
out.mkdir(exist_ok=True)
# the export is JSON text whose floats read back to the mesh points exactly
text = polyline_json(we_mesh)
print("\nexport reads back bit for bit:", json.loads(text)["points"] == we_mesh.points.tolist())
(out / "lens_smoothed.json").write_text(text + "\n")
print("wrote", out / "lens_smoothed.json")
