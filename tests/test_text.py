"""The export formatter writes every float as repr and every integer as str."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexsmooth import boundary_mesh
from convexsmooth._text import float_cells, int_cells, shortest_digits, table_text
from helpers import random_ball_body


def _float_lines(values) -> str:
    return table_text(float_cells(np.array(values, dtype=float)[:, None]), ["", "\n"])


def _neighbours(x: float, steps: int) -> list[float]:
    """x and its `steps` nearest doubles on either side."""
    out, down, up = [x], x, x
    for _ in range(steps):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


# the ends of the fixed range, and powers of ten, where the digit count
# of x * 10^s changes
BOUNDARIES = [x for k in range(-4, 17) for x in _neighbours(float(f"1e{k}"), 4)]


def _digits_form(count: int):
    """Doubles read from `count`-digit decimals across the fixed range."""
    return st.builds(
        lambda d, k: float(f"{d}e{k}"),
        st.integers(10 ** (count - 1), 10**count - 1),
        st.integers(-4 - count, 16 - count),
    )


doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.sampled_from(BOUNDARIES),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
    st.integers(-(2**53), 2**53).map(float),
    _digits_form(15),
    _digits_form(16),
    _digits_form(17),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(st.lists(doubles, min_size=1, max_size=40))
def test_floats_are_written_as_repr(values):
    assert _float_lines(values) == "".join(repr(v) + "\n" for v in values)


def test_boundaries_of_the_fixed_range_are_written_as_repr():
    assert _float_lines(BOUNDARIES) == "".join(repr(v) + "\n" for v in BOUNDARIES)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 10**16 - 1), min_size=1, max_size=40))
def test_integers_are_written_as_str(values):
    text = table_text(int_cells(np.array(values)[:, None]), ["", "\n"])
    assert text == "".join(f"{v}\n" for v in values)


@pytest.mark.parametrize("dim, resolution", [(2, 4096), (3, 4)])
def test_fast_path_covers_mesh_coordinates(dim, resolution):
    # a build that sends everything through repr still writes the right
    # text; this keeps it from passing unnoticed. Zeros always take repr,
    # and the icosphere has exact zero coordinates on its great circles.
    body = random_ball_body(np.random.default_rng(7), dim, 5)
    points = boundary_mesh(body, resolution).points
    _, _, fast = shortest_digits(points)
    assert fast[points != 0].mean() >= 0.99


def test_fast_path_covers_random_doubles_in_the_fixed_range():
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-4, 16, 100_000)
    _, _, fast = shortest_digits(x)
    assert fast.mean() >= 0.99
    assert _float_lines(x) == "".join(repr(v) + "\n" for v in x.tolist())
