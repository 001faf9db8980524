"""Output checks and exact oracles for benchmark operations.

Each check reads what the operation produced (the CLI's report and mesh
files, or the point ``project_body`` returned) and returns ``(ok, info)``.
A check never raises for a wrong answer; the runner counts ``ok == False``
as a failed operation and carries on.

Tolerances:

- Mesh radii are compared with the closed form 1/mu(u) at relative 1e-12:
  bisection stops at a relative bracket of 1e-15, so anything above 1e-12
  is a wrong crossing, not rounding.
- Projections are compared with the exact 2D nearest point at absolute
  1e-6 R. That is a guard against wrong answers (a wrong active set is off
  by far more); it is looser than the 1e-9 that ``project_body`` documents,
  because Dykstra's stop rule is known to miss that promise on thin and
  near-ridge cases. The error itself is reported as ``proj_err`` and
  queries beyond the documented 1e-9 are counted, so that defect stays
  visible without failing the run.
- The Hessian floor 1/(2 R^2) is a theorem for the blend; the check allows
  a relative 1e-9 for eigenvalue rounding.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from convexsmooth.bodies import BallBody
from convexsmooth.gauge import body_gauge_values

RADIUS_REL_TOL = 1e-12
PROJECTION_ABS_TOL = 1e-6
PROJECT_BODY_DOC_TOL = 1e-9
HESSIAN_REL_TOL = 1e-9


def _report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def check_smooth(outdir: Path, body: dict, epsilon: float) -> tuple[bool, dict]:
    summary = _report(outdir)["summary"]
    ratio = summary["symdiff_measure"] / (epsilon * summary["boundary_measure"])
    floor = 1.0 / (2.0 * body["radius"] ** 2)
    ok = (
        ratio < 1.0
        and summary["contained"] is True
        and summary["tube_ok"] is True
        and summary["hessian_min_eig"] >= floor * (1.0 - HESSIAN_REL_TOL)
    )
    return ok, {"symdiff_ratio": ratio}


def check_certify(outdir: Path) -> tuple[bool, dict]:
    return _report(outdir)["passed"] is True, {}


def check_probe(outdir: Path) -> tuple[bool, dict]:
    summary = _report(outdir)["summary"]
    ok = summary["passed"] is True and summary["max_gap"] <= summary["threshold"]
    return ok, {"max_gap": summary["max_gap"]}


def _mesh_points(outdir: Path, report: dict) -> np.ndarray:
    path = outdir / report["mesh_file"]
    if path.suffix == ".json":
        return np.array(json.loads(path.read_text())["points"], dtype=float)
    lines = path.read_text().splitlines()
    nverts = int(lines[1].split()[0])
    return np.array([line.split() for line in lines[2 : 2 + nverts]], dtype=float)


def exact_radii(body: dict, directions: np.ndarray) -> np.ndarray:
    """Boundary radius along unit directions: 1/mu(u) for ball bodies,
    min offset/<normal, u> for halfspace bodies."""
    if "halfspaces" in body:
        normals = np.array([h["normal"] for h in body["halfspaces"]], dtype=float)
        offsets = np.array([h["offset"] for h in body["halfspaces"]], dtype=float)
        denom = directions @ normals.T
        with np.errstate(divide="ignore"):
            return np.min(np.where(denom > 0.0, offsets / denom, np.inf), axis=1)
    ball_body = BallBody(radius=body["radius"], centers=body["centers"], dim=body["dim"])
    return 1.0 / body_gauge_values(ball_body, directions)


def check_measure(outdir: Path, body: dict, resolution: int) -> tuple[bool, dict]:
    report = _report(outdir)
    points = _mesh_points(outdir, report)
    radii = np.linalg.norm(points, axis=1)
    exact = exact_radii(body, points / radii[:, None])
    err = float(np.max(np.abs(radii - exact) / exact))
    dim = points.shape[1]
    expected = resolution if dim == 2 else 10 * 4**resolution + 2
    ok = (
        err <= RADIUS_REL_TOL
        and len(points) == expected == report["summary"]["directions"]
        and report["summary"]["boundary_measure"] > 0.0
    )
    return ok, {"radius_err": err}


def exact_projection_2d(centers, radius: float, x) -> np.ndarray:
    """Nearest point of a 2D ball intersection to an exterior point x.

    The nearest point lies on one arc (then it is the single-disk
    projection of x) or at a vertex where two circles meet; the answer is
    the nearest candidate that lies in every disk.
    """
    c = np.asarray(centers, dtype=float)
    x = np.asarray(x, dtype=float)
    v = x - c
    cands = [c + radius * v / np.linalg.norm(v, axis=1, keepdims=True)]
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            d = c[j] - c[i]
            dd = float(d @ d)
            if dd == 0.0 or dd >= 4.0 * radius * radius:
                continue
            mid = 0.5 * (c[i] + c[j])
            h = np.sqrt(radius * radius - 0.25 * dd) / np.sqrt(dd)
            n = h * np.array([-d[1], d[0]])
            cands.append(np.array([mid + n, mid - n]))
    cands = np.vstack(cands)
    dist = np.linalg.norm(cands[:, None, :] - c[None], axis=2)
    feasible = cands[np.all(dist <= radius * (1.0 + 1e-12), axis=1)]
    return feasible[np.argmin(np.linalg.norm(feasible - x, axis=1))]


def check_projection(body: dict, x, p) -> tuple[bool, dict]:
    exact = exact_projection_2d(body["centers"], body["radius"], x)
    err = float(np.linalg.norm(np.asarray(p, dtype=float) - exact))
    return err <= PROJECTION_ABS_TOL * body["radius"], {"proj_err": err}
