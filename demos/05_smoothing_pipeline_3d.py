#!/usr/bin/env python3
# The smoothing pipeline in 3D: ridge tubes become bands around curves,
# meshes become icospheres, and the smoothed surface exports to OFF.
# Run with: python demos/05_smoothing_pipeline_3d.py; the mesh export goes to
# output/ under the working directory.

from pathlib import Path

from convexsmooth import (
    BallBody,
    boundary_mesh,
    extract_smoothed_body,
    hausdorff_measure,
    off_text,
    symmetric_difference_measure,
)

body = BallBody(
    radius=1.0,
    centers=[[0.3, 0.0, 0.0], [-0.2, 0.2, 0.0], [0.0, -0.25, 0.1]],
    dim=3,
)
print("3-ball body, interior radius", f"{body.interior_radius:.3f}")

# icosphere subdivision level 4 for the pipeline internals, level 5
# (10242 directions, 20480 triangles) for the final measurement
smoothed = extract_smoothed_body(body, delta=1e-3, epsilon=0.05, resolution=4)
print("blend width delta:", smoothed.gauge.delta)
print("containment and tube checks:",
      smoothed.checks["contained"], smoothed.checks["tube_ok"])

level = 5
w_mesh = boundary_mesh(body, level)
we_mesh = boundary_mesh(smoothed, level)
area = hausdorff_measure(w_mesh)
symdiff = symmetric_difference_measure(w_mesh, we_mesh)
print(f"\nboundary area:          {area:.4f}")
print(f"symmetric difference:   {symdiff:.4f}")
print(f"epsilon * area:         {0.05 * area:.4f}")
print("bound met?", symdiff < 0.05 * area)

disagree = (~we_mesh.agreement).sum()
print(f"facets touching the ridge tube: {disagree} of {len(we_mesh.facets)}")

out = Path("output")
out.mkdir(exist_ok=True)
# OFF text writes every coordinate as repr does, so it reads back exactly
text = off_text(we_mesh)
lines = text.splitlines()[2 : 2 + len(we_mesh.points)]
read_back = [[float(c) for c in line.split()] for line in lines]
print("export reads back bit for bit:", read_back == we_mesh.points.tolist())
(out / "three_ball_smoothed.off").write_text(text)
print("wrote", out / "three_ball_smoothed.off")
