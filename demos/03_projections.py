#!/usr/bin/env python3
# Metric projections: onto the body, onto its boundary, and the
# boundary-covering probe. Run with: python demos/03_projections.py

import numpy as np

from convexsmooth import (
    BallBody,
    HalfspaceBody,
    OutsideDomain,
    boundary_projection,
    boundary_surjectivity_probe,
    project_body,
)

lens = BallBody(radius=1.0, centers=[[0.5, 0.0], [-0.5, 0.0]], dim=2)

# --- nearest point of the body ----------------------------------------------
# the nearest point is active on at most n spheres, so it is found exactly
# among one candidate per sphere subset; no iteration, no tolerance
x = np.array([0.0, 2.0])
p = project_body(lens, x)
print("projection of (0, 2) onto the lens:", p)
print("expected lens tip:                 ", [0.0, np.sqrt(0.75)])

# the projection is 1-Lipschitz; two nearby queries project nearby. Both
# queries sit off the tip's normal cone (whose points all go to the tip), so
# the projection moves, by less than the query
y = np.array([1.0, 2.0])
q = project_body(lens, y + [0.05, 0.0]) - project_body(lens, y)
print("moving the query (1, 2) by 0.05 moves its projection by",
      f"{np.linalg.norm(q):.4f}")

# --- projection onto the boundary -------------------------------------------
# an interior point goes radially to its nearest sphere. The map is
# 2-Lipschitz on a domain read off the body: the nearest sphere less than
# R/2 deep and the next at least three times as deep. Near the lens tip the
# two arcs are about equally deep, and the nearest one flips across the
# medial axis, so points there are refused
x = np.array([0.4, 0.2])
print("\nboundary projection of (0.4, 0.2), in the right arc's face cell:",
      boundary_projection(lens, x))
tip = np.array([0.0, np.sqrt(0.75)])
try:
    boundary_projection(lens, tip + [1e-7, -5e-4])
except OutsideDomain as e:
    print("just below the lens tip:", e)

# --- the covering probe ------------------------------------------------------
# projecting any enclosing boundary onto the body covers the whole body
# boundary; the probe follows each outward normal ray to where it leaves
# the enclosing body and projects that point back
ball = BallBody(radius=1.0, centers=[[0.0, 0.0]], dim=2)
square = HalfspaceBody(
    normals=[[1, 0], [-1, 0], [0, 1], [0, -1]], offsets=[2.0] * 4
)
gap, report = boundary_surjectivity_probe(ball, square, samples=360)
print("\nprobing the unit ball inside the square [-2,2]^2:")
print("  rays:", report["rays"], " max gap:", f"{report['max_gap']:.2e}")
