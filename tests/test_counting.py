"""Tests for the lattice-point counting kernel.

Oracle strategy: random small inequality systems are counted by a direct
itertools product scan over the box; the kernel must reproduce that number
exactly on every instance.  Some systems are built to reach the kernel's
cached states: rows that share a coefficient suffix, rows that never bind,
suffixes that start with 0, and the same rows counted again with other
right-hand sides.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partperm import KERNEL_NAME
from partperm._counting_py import count_lattice_points as count_pure

# Parametrized by kernel so that a second kernel would join every test.
KERNELS = [("pure", count_pure)]


def _box_scan(rows_a, rows_b, lows, highs):
    total = 0
    ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
    for x in product(*ranges):
        if all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(rows_a, rows_b)):
            total += 1
    return total


def _random_system(rng, m):
    nrows = rng.randrange(0, 5)
    rows_a, rows_b = [], []
    for _ in range(nrows):
        row = tuple(rng.randrange(-2, 3) for _ in range(m))
        rows_a.append(row)
        rows_b.append(rng.randrange(-3, 9))
    lows = tuple(rng.randrange(-2, 1) for _ in range(m))
    highs = tuple(lo + rng.randrange(0, 5) for lo in lows)
    return rows_a, rows_b, lows, highs


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_matches_box_scan_randomized(kernel_name, kernel):
    rng = random.Random(2024)
    for _ in range(120):
        m = rng.randrange(1, 5)
        rows_a, rows_b, lows, highs = _random_system(rng, m)
        expected = _box_scan(rows_a, rows_b, lows, highs)
        assert kernel(rows_a, rows_b, lows, highs) == expected


def _box_max(row, lows, highs):
    return sum(max(c * lo, c * hi) for c, lo, hi in zip(row, lows, highs))


def _suffix_sharing_system(rng, m):
    """A system whose rows share suffixes, start with 0 or never bind."""
    lows = [rng.randrange(-2, 1) for _ in range(m)]
    highs = [lo + rng.randrange(0, 4) for lo in lows]
    rows_a, rows_b = [], []
    for _ in range(rng.randrange(1, 4)):
        row = [rng.randrange(-2, 3) for _ in range(m)]
        rows_a.append(row)
        rows_b.append(rng.randrange(-3, 7))
        # the same suffix from a random depth on, under another prefix and rhs
        d = rng.randrange(m)
        rows_a.append([rng.randrange(-2, 3) for _ in range(d)] + row[d:])
        rows_b.append(rng.randrange(-3, 7))
        # the same row with another rhs
        rows_a.append(list(row))
        rows_b.append(rng.randrange(-3, 7))
    # a suffix that starts with 0
    row = [0] * rng.randrange(1, m + 1)
    row += [rng.randrange(-2, 3) for _ in range(m - len(row))]
    rows_a.append(row)
    rows_b.append(rng.randrange(-2, 5))
    # a row that never binds inside the box, and one that binds only at its edge
    row = [rng.randrange(-2, 3) for _ in range(m)]
    rows_a.append(row)
    rows_b.append(_box_max(row, lows, highs) + rng.randrange(0, 3))
    row = [rng.randrange(-2, 3) for _ in range(m)]
    rows_a.append(row)
    rows_b.append(_box_max(row, lows, highs) - 1)
    order = list(range(len(rows_a)))
    rng.shuffle(order)
    return [rows_a[i] for i in order], [rows_b[i] for i in order], lows, highs


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_matches_box_scan_on_shared_suffixes(kernel_name, kernel):
    rng = random.Random(2026)
    for _ in range(150):
        m = rng.randrange(1, 6)
        rows_a, rows_b, lows, highs = _suffix_sharing_system(rng, m)
        expected = _box_scan(rows_a, rows_b, lows, highs)
        assert kernel(rows_a, rows_b, lows, highs) == expected, (rows_a, rows_b, lows, highs)


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_keeps_no_state_between_calls(kernel_name, kernel):
    # the facet rows of P(3,3) at several dilates and boxes, then the first
    # call again: a subcount cached by an earlier call, under the same
    # state at the same depth, would be stale here
    rows_a = [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    rows_b = [0, 0, 0, 3, 3, 3, 5, 5, 5, 6]
    calls = [(1, 6), (2, 6), (2, 4), (0, 6), (1, 2), (1, 6)]
    counts = []
    for t, top in calls:
        b = [v * t for v in rows_b]
        lows, highs = (0, 0, 0), (top, top, top)
        counts.append(kernel(rows_a, b, lows, highs))
        assert counts[-1] == _box_scan(rows_a, b, lows, highs), (t, top)
    assert counts[0] == counts[-1] == 51 and counts[1] == 272


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_duplicate_rows_use_least_rhs(kernel_name, kernel):
    # x1 + x2 <= 3 and x1 + x2 <= 1 in [0,2]^2: the second decides
    assert kernel([(1, 1), (1, 1)], [3, 1], (0, 0), (2, 2)) == 3
    # a row that never binds, and a suffix that starts with 0
    assert kernel([(1, 1), (0, 1)], [100, 1], (0, 0), (2, 2)) == 6
    assert kernel([(0, 1, 1)], [1], (0, 0, 0), (2, 2, 2)) == 9


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), max_size=4),
    st.lists(st.integers(-4, 8), min_size=4, max_size=4),
    st.lists(st.integers(-2, 0), min_size=m, max_size=m),
    st.lists(st.integers(0, 3), min_size=m, max_size=m))))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_kernel_matches_box_scan_property(system):
    rows_a, rhs, lows, widths = system
    rows_b = rhs[:len(rows_a)]
    highs = [lo + w for lo, w in zip(lows, widths)]
    assert count_pure(rows_a, rows_b, lows, highs) == _box_scan(rows_a, rows_b, lows, highs)


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_no_constraints_counts_box(kernel_name, kernel):
    assert kernel([], [], (0, 0), (2, 3)) == 12
    assert kernel([], [], (-1,), (1,)) == 3


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_infeasible_zero_row(kernel_name, kernel):
    # 0 <= -1 is unsatisfiable regardless of the box
    assert kernel([(0, 0)], [-1], (0, 0), (5, 5)) == 0


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_redundant_zero_row(kernel_name, kernel):
    # 0 <= 0 constrains nothing
    assert kernel([(0, 0)], [0], (0, 0), (2, 2)) == 9


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_single_point_box(kernel_name, kernel):
    assert kernel([], [], (3, -2), (3, -2)) == 1
    assert kernel([(1, 1)], [0], (3, -2), (3, -2)) == 0  # 3 + (-2) = 1 > 0


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_empty_box(kernel_name, kernel):
    # inverted bounds give an empty range
    assert kernel([], [], (1,), (0,)) == 0


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_simplex_values(kernel_name, kernel):
    # x >= 0, x1 + x2 + x3 <= t: counts C(t+3, 3)
    from math import comb

    for t in range(0, 7):
        rows_a = [(1, 1, 1)]
        rows_b = [t]
        got = kernel(rows_a, rows_b, (0, 0, 0), (t, t, t))
        assert got == comb(t + 3, 3)


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_negative_coefficients(kernel_name, kernel):
    # -x1 - x2 <= -2  <=>  x1 + x2 >= 2 inside [0,2]^2: 6 of 9 points
    assert kernel([(-1, -1)], [-2], (0, 0), (2, 2)) == 6


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_rounds_rational_bounds_inward(kernel_name, kernel):
    # x <= 3 with 3/2 <= x <= 5 holds x = 2, 3; truncating 3/2 gave 3 points.
    assert kernel([[1]], [3], [Fraction(3, 2)], [5]) == 2
    # -x <= -3/2 is x >= 3/2; truncating the rhs toward zero gave x >= 1.
    assert kernel([[-1]], [Fraction(-3, 2)], [0], [3]) == 2
    assert kernel([[1]], [Fraction(-1, 2)], [-2], [Fraction(7, 2)]) == 2
    assert kernel([], [], [Fraction(1, 3)], [Fraction(2, 3)]) == 0


@pytest.mark.parametrize("kernel_name,kernel", KERNELS)
def test_kernel_refuses_fractional_coefficients(kernel_name, kernel):
    with pytest.raises(ValueError, match="1/2"):
        kernel([[Fraction(1, 2), 1]], [3], [0, 0], [4, 4])


def test_active_kernel_name_is_consistent():
    from partperm import count_lattice_points

    assert KERNEL_NAME == "pure"
    assert count_lattice_points is count_pure


def test_large_magnitudes_count_exactly():
    # Every input fits in 64 bits, but c * low and the row minima do not;
    # a fixed-width kernel returned 12 here.
    from partperm import count_lattice_points

    lows, highs = [-(2**62), 2**62 - 5], [-(2**62) + 2, 2**62]
    assert count_lattice_points([[1, 1]], [2**62], lows, highs) == 18
    assert count_pure([[1, 1]], [2**62], lows, highs) == 18


def test_rhs_beyond_64_bits_counts_exactly():
    from partperm import count_lattice_points

    assert count_lattice_points([[1, 0]], [2**63], [0, 0], [3, 4]) == 20
    assert count_lattice_points([[1, 0]], [-(2**64)], [0, 0], [3, 4]) == 0
