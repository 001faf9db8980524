"""The export formatter writes every float as repr and every integer as str."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexsmooth import boundary_mesh
from convexsmooth._text import (
    _BLOCK_ROWS,
    float_cells,
    int_cells,
    shortest_digits,
    table_blocks,
    table_text,
)
from helpers import BLOCK_ROW_COUNTS, REPR_FALLBACK_FLOATS, block_end_rows, random_ball_body


def _float_lines(values) -> str:
    return table_text(float_cells(np.array(values, dtype=float)[:, None]), ["", "\n"]).decode("ascii")


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
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
@example([0, 9999, 10**4, 10**16, 10**18, 2**63 - 1])
def test_integers_are_written_as_str(values):
    text = table_text(int_cells(np.array(values)[:, None]), ["", "\n"]).decode("ascii")
    assert text == "".join(f"{v}\n" for v in values)


@pytest.mark.parametrize("values", [[-5], [3, -1], [0, -(2**63)]])
def test_negative_integers_are_rejected(values):
    with pytest.raises(ValueError):
        int_cells(np.array(values)[:, None])


@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
def test_float_tables_are_written_block_by_block(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-6, 18, (rows, 3))
    ends = block_end_rows(rows)
    x[ends] = rng.choice(REPR_FALLBACK_FLOATS, (len(ends), 3))
    text = b"".join(table_blocks(x, float_cells, ["<", ", ", " ", ">\n"])).decode("ascii")
    assert text == "".join(f"<{a!r}, {b!r} {c!r}>\n" for a, b, c in x.tolist())


@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
def test_integer_tables_are_written_block_by_block(rows):
    # each block's largest value has one digit more than the block before
    # it, so blocks 0 and 1 have cells of different widths
    rng = np.random.default_rng(rows)
    v = rng.integers(0, 10, (rows, 3))
    ends = block_end_rows(rows)
    digits = 4 + ends // _BLOCK_ROWS
    v[ends, 1] = 10 ** (digits - 1)
    v[ends, 2] = 10**digits - 1
    text = b"".join(table_blocks(v, int_cells, ["3 ", " ", " ", "\n"])).decode("ascii")
    assert text == "".join(f"3 {a} {b} {c}\n" for a, b, c in v.tolist())


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
