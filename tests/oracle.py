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


def ulps(got: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|got - ref| in units of the last place of ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))
