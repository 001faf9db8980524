#!/usr/bin/env python3
# Metric projections: onto the body, onto its boundary, and the
# boundary-covering probe. Run with: python demos/03_projections.py

import numpy as np

from convexsmooth import (
    BallBody,
    HalfspaceBody,
    OutsideDomain,
    boundary_mesh,
    boundary_projection,
    boundary_surjectivity_probe,
    normal_lipschitz_estimate,
    project_body,
    projection_domain,
)

lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)

# --- nearest point of the body ----------------------------------------------
# the nearest point is active on at most n spheres, so it is found exactly
# among one candidate per sphere subset; no iteration, no tolerance
x = np.array([0.0, 2.0])
p = project_body(lens, x)
print("projection of (0, 2) onto the lens:", p)
print("expected lens tip:                 ", [0.0, np.sqrt(0.75)])

# the projection is 1-Lipschitz; two nearby queries project nearby
q = project_body(lens, x + [0.05, 0.0])
print("moving the query by 0.05 moves the projection by",
      f"{np.linalg.norm(q - p):.4f}")

# --- projection onto the boundary -------------------------------------------
# interior points can be projected onto the boundary only inside a safe
# tube whose width comes from the normal field's Lipschitz constant
ball = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
mesh = boundary_mesh(ball, 720)
print("\nnormal-field Lipschitz estimate (unit circle):",
      f"{normal_lipschitz_estimate(mesh):.4f}")
print("safe tube width:", f"{projection_domain(mesh).width:.4f}")

print("boundary projection of (0.6, 0):",
      boundary_projection(ball, mesh, np.array([0.6, 0.0])))
try:
    boundary_projection(ball, mesh, np.array([0.3, 0.0]))
except OutsideDomain as e:
    print("too deep inside:", e)

# --- the covering probe ------------------------------------------------------
# projecting any enclosing boundary onto the body covers the whole body
# boundary; the probe follows each outward normal ray to where it leaves
# the enclosing body and projects that point back
square = HalfspaceBody(
    normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[2.0] * 4
)
gap, report = boundary_surjectivity_probe(ball, square, samples=360)
print("\nprobing the unit ball inside the square [-2,2]^2:")
print("  rays:", report["rays"], " max gap:", f"{report['max_gap']:.2e}")
