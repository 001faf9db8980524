"""Independent references computed in 50-digit arithmetic with mpmath.

Nothing here calls the library's gauges or meshes: each value comes from
the body's definition, solved in closed form at a precision far beyond a
float's, then rounded once.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 50


def ray_exit_radii(body, directions: np.ndarray) -> np.ndarray:
    """Where each ray r u (r > 0) leaves a ball body, rounded to float.

    The ray leaves ball i at the positive root of |r u - a_i|^2 = R^2,
    r = (b + sqrt(b^2 - |u|^2 (|a_i|^2 - R^2)))/|u|^2 with b = <u, a_i>,
    and the body at the smallest of those over the balls. The direction
    is taken as the float vector given, unit or not, with no rounding
    before the solve.
    """
    R = mpmath.mpf(float(body.radius))
    centers = [[mpmath.mpf(float(c)) for c in row] for row in body.centers]
    out = np.empty(len(directions))
    with mpmath.workdps(DIGITS):
        for k, row in enumerate(np.asarray(directions, dtype=float)):
            u = [mpmath.mpf(float(c)) for c in row]
            uu = mpmath.fsum(c * c for c in u)
            exits = []
            for a in centers:
                b = mpmath.fsum(x * y for x, y in zip(u, a))
                c = mpmath.fsum(x * x for x in a) - R * R
                exits.append((b + mpmath.sqrt(b * b - uu * c)) / uu)
            out[k] = float(min(exits))
    return out


def adjacent_line_vertices(pts: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Where the lines <v_i, x> = <v_i, y_i> and <v_{i+1}, x> = <v_{i+1}, y_{i+1}>
    meet, for consecutive 2D samples y_i with normals v_i (the last pair
    wrapping around), rounded to float, (N, 2).

    Solved by Cramer's rule on the float inputs, unit or not, with no
    rounding before the solve."""
    out = np.empty(pts.shape)
    with mpmath.workdps(DIGITS):
        rows = [
            ([mpmath.mpf(float(c)) for c in y], [mpmath.mpf(float(c)) for c in v])
            for y, v in zip(np.asarray(pts, dtype=float), np.asarray(normals, dtype=float))
        ]
        for i, (y, v) in enumerate(rows):
            z, w = rows[(i + 1) % len(rows)]
            h, g = v[0] * y[0] + v[1] * y[1], w[0] * z[0] + w[1] * z[1]
            det = v[0] * w[1] - v[1] * w[0]
            out[i] = [float((h * w[1] - g * v[1]) / det), float((v[0] * g - w[0] * h) / det)]
    return out


def plane_triple_vertices(pts: np.ndarray, normals: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Where the planes <v_k, x> = <v_k, y_k> of each triple (i, j, l), a row
    of ``faces``, meet, for 3D samples y_k with normals v_k, rounded to
    float, (F, 3).

    Solved by Cramer's rule, x = (h_i v_j x v_l + h_j v_l x v_i
    + h_l v_i x v_j)/<v_i, v_j x v_l> with h_k = <v_k, y_k>, on the float
    inputs, unit or not, with no rounding before the end."""
    out = np.empty((len(faces), 3))
    with mpmath.workdps(DIGITS):
        rows = [
            ([mpmath.mpf(float(c)) for c in y], [mpmath.mpf(float(c)) for c in v])
            for y, v in zip(np.asarray(pts, dtype=float), np.asarray(normals, dtype=float))
        ]
        offsets = [mpmath.fsum(a * b for a, b in zip(y, v)) for y, v in rows]

        def cross(a, b):
            return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

        for f, (i, j, l) in enumerate(np.asarray(faces).tolist()):
            vi, vj, vl = rows[i][1], rows[j][1], rows[l][1]
            jl, li, ij = cross(vj, vl), cross(vl, vi), cross(vi, vj)
            det = mpmath.fsum(a * b for a, b in zip(vi, jl))
            out[f] = [float((offsets[i] * jl[c] + offsets[j] * li[c] + offsets[l] * ij[c]) / det) for c in range(3)]
    return out


def supporting_ball_bounds(body, pts: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The supporting-ball bound E/(2R) at each boundary point y with its
    set A of active centers (rows of a boolean mask), rounded to float:
    n = mean over A of (y - a_i)/R and
    E = (1/(k|n|)) sum_A (R^2 - |y - a_i|^2)_+ + (1 - 1/|n|)_+ (R + min_A |y - a_i|)^2,
    from the float inputs with no rounding before the end (see
    ``certify.ball_support_check``)."""
    out = np.empty(len(pts))
    with mpmath.workdps(DIGITS):
        R = mpmath.mpf(float(body.radius))
        centers = [[mpmath.mpf(float(c)) for c in row] for row in body.centers]
        for j, (row, mask) in enumerate(zip(np.asarray(pts, dtype=float), active)):
            y = [mpmath.mpf(float(c)) for c in row]
            A = [centers[i] for i in np.flatnonzero(mask)]
            offsets = [[yc - ac for yc, ac in zip(y, a)] for a in A]
            n = [mpmath.fsum(o[c] for o in offsets) / (len(A) * R) for c in range(len(y))]
            inverse = 1 / mpmath.sqrt(mpmath.fsum(c * c for c in n))
            d2 = [mpmath.fsum(c * c for c in o) for o in offsets]
            defect = mpmath.fsum(max(R * R - e, 0) for e in d2) / len(A)
            outside = max(1 - inverse, 0) * (R + mpmath.sqrt(min(d2))) ** 2
            out[j] = float((inverse * defect + outside) / (2 * R))
    return out


def ulps(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))
