"""Tests for the lattice-point counting kernel.

Oracle strategy: random small inequality systems are counted by a direct
itertools product scan over the box; the kernel must reproduce that number
exactly on every instance.
"""

import random
from itertools import product

import pytest

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
