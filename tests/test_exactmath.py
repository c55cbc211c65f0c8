"""Tests for the exact-arithmetic toolkit: polynomials, number tables, linear algebra.

Oracle strategy: every nontrivial routine is checked against an independent
brute-force computation (descent statistics for Eulerian numbers, set
partitions for Stirling numbers, permutation expansion for determinants,
math.comb for binomials) plus algebraic identities that would catch sign or
indexing slips.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partperm import (
    EngineDisagreement,
    Polynomial,
    binomial_poly,
    eulerian,
    int_det,
    interpolate,
    solve_linear,
    stirling2,
)
from partperm.exactmath import _HeldMemo, row_reduce

# --------------------------------------------------------------------------
# Polynomial arithmetic


def test_polynomial_basics():
    p = Polynomial([1, 2, 3])  # 1 + 2t + 3t^2
    assert p.degree == 2
    assert p(0) == 1 and p(1) == 6 and p(2) == 17
    assert p.coefficient(0) == 1 and p.coefficient(5) == 0
    assert (-p)(2) == -17
    assert (p - p).is_zero()
    assert Polynomial().degree == -1


def test_polynomial_trims_trailing_zeros():
    assert Polynomial([1, 0, 0]) == Polynomial([1])
    assert Polynomial([0, 0]).is_zero()
    assert Polynomial([Fraction(1, 2), 0]).degree == 0


def test_polynomial_scalar_mixing():
    p = Polynomial([0, 1])  # t
    assert (2 * p + 1)(3) == 7
    assert (1 - p)(5) == -4
    assert (p / 2)(1) == Fraction(1, 2)
    assert (Fraction(3, 2) * p)(2) == 3


def test_polynomial_keeps_integral_coefficients_as_int():
    p = Polynomial([Fraction(4, 2)])
    assert p.coeffs == (2,) and type(p.coeffs[0]) is int
    half = Polynomial([1]) / 2
    assert half.coeffs == (Fraction(1, 2),) and type(half.coeffs[0]) is Fraction
    # sums and products that come out integral are stored as int again
    q = (half + half) * Polynomial([3, Fraction(1, 3)])
    assert q.coeffs == (3, Fraction(1, 3))
    assert [type(c) for c in q.coeffs] == [int, Fraction]
    assert (Polynomial([1, 2]) / 2 * 2).coeffs == (1, 2)
    assert Polynomial([1]).coefficient(5) == 0
    # equality and hashing do not see the int/Fraction difference
    assert Polynomial([Fraction(3)]) == Polynomial([3]) == 3
    assert hash(Polynomial([Fraction(3), 1])) == hash(Polynomial([3, 1]))
    assert Polynomial([2, Fraction(1, 2)]).to_strings() == ["2", "1/2"]


def test_polynomial_refuses_floats():
    with pytest.raises(TypeError):
        Polynomial([0.5])
    with pytest.raises(TypeError):
        Polynomial([1]) / 0.5
    with pytest.raises(TypeError):
        Polynomial([1]) - 0.5
    with pytest.raises(TypeError):
        Polynomial([1]) * 0.5
    with pytest.raises(TypeError):
        Polynomial([1]) + 0.5


def test_polynomial_product_and_power():
    t = Polynomial.x()
    assert ((t + 1) * (t - 1)) == t * t - 1
    assert (t + 1) ** 3 == Polynomial([1, 3, 3, 1])
    assert (t ** 0) == Polynomial([1])


def test_polynomial_composition():
    # f(t) = t^2 + 1 composed with g(t) = t - 1: f(g) = t^2 - 2t + 2
    f = Polynomial([1, 0, 1])
    g = Polynomial([-1, 1])
    assert f(g) == Polynomial([2, -2, 1])


def test_polynomial_to_strings_exact():
    p = Polynomial([1, Fraction(7, 2)])
    assert p.to_strings() == ["1", "7/2"]
    assert Polynomial().to_strings() == ["0"]


def test_polynomial_render():
    assert "t" in Polynomial([0, 1]).render("t")
    assert Polynomial([1]).render("t") == "1"


@given(st.lists(st.integers(-30, 30), max_size=6),
       st.lists(st.integers(-30, 30), max_size=6),
       st.integers(-5, 5))
def test_polynomial_ring_laws(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (p - q)(x) == p(x) - q(x)


# --------------------------------------------------------------------------
# binomial_poly


@pytest.mark.parametrize("n", range(0, 12))
@pytest.mark.parametrize("k", range(0, 6))
def test_binomial_poly_matches_math_comb(n, k):
    assert binomial_poly(Fraction(n), k) == math.comb(n, k)


def test_binomial_poly_of_polynomial_argument():
    # C(t+2, 2) = (t+2)(t+1)/2
    p = binomial_poly(Polynomial([2, 1]), 2)
    assert isinstance(p, Polynomial)
    for t in range(6):
        assert p(t) == math.comb(t + 2, 2)


def test_binomial_poly_negative_k():
    with pytest.raises(ValueError):
        binomial_poly(Fraction(3), -1)


# --------------------------------------------------------------------------
# Eulerian polynomials


def _descents(perm):
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


@pytest.mark.parametrize("m", range(0, 7))
def test_eulerian_matches_brute_force_descents(m):
    brute = [0] * max(m, 1)
    for perm in permutations(range(1, m + 1)):
        brute[_descents(perm)] += 1
    assert list(eulerian(m).coeffs) == brute[: eulerian(m).degree + 1] or m == 0


def test_eulerian_m0_is_one():
    assert eulerian(0) == Polynomial([1])


@pytest.mark.parametrize("m", range(1, 9))
def test_eulerian_total_and_symmetry(m):
    a = eulerian(m)
    assert a(1) == math.factorial(m)
    coeffs = list(a.coeffs)
    assert coeffs == coeffs[::-1]


# --------------------------------------------------------------------------
# Stirling numbers of the second kind


def _set_partitions_count(m, k):
    # surjection count by inclusion-exclusion, divided by k! (blocks unlabeled)
    if m == 0:
        return 1 if k == 0 else 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** m for j in range(k + 1))
    return total // math.factorial(k)


@pytest.mark.parametrize("m", range(0, 8))
def test_stirling2_matches_surjection_oracle(m):
    for k in range(0, m + 2):
        assert stirling2(m, k) == _set_partitions_count(m, k)


def test_stirling2_recurrence():
    for m in range(1, 9):
        for k in range(1, m + 1):
            assert stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


# --------------------------------------------------------------------------
# Interpolation


def test_interpolate_round_trip_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        deg = rng.randrange(0, 6)
        coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(deg + 1)]
        p = Polynomial(coeffs)
        pts = [(x, p(x)) for x in range(deg + 1)]
        assert interpolate(pts) == p


def test_interpolate_duplicate_x_raises():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2)])


@pytest.mark.parametrize("xs", [
    (0, 2), (1, 0), (0, 1, 3), (2, 1, 0), (Fraction(1, 2), Fraction(3, 2))])
def test_interpolate_requires_consecutive_integer_x(xs):
    with pytest.raises(ValueError, match="consecutive integer"):
        interpolate([(x, 1) for x in xs])


def test_interpolate_on_a_negative_run_with_fraction_values():
    p = Polynomial([Fraction(-3, 7), Fraction(5, 2), 0, Fraction(1, 6), -2])
    q = interpolate([(x, p(x)) for x in range(-4, 1)])
    assert q == p
    assert all(type(c) is int or c.denominator != 1 for c in q.coeffs)
    assert interpolate([(Fraction(3), 2), (4, 5)]) == Polynomial([-7, 3])


def test_interpolate_constant():
    assert interpolate([(5, 3)]) == Polynomial([3])


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
@settings(max_examples=40)
def test_interpolate_hits_all_nodes(values):
    pts = list(enumerate(values))
    p = interpolate(pts)
    assert all(p(x) == y for x, y in pts)
    assert p.degree < len(pts)


# --------------------------------------------------------------------------
# Linear solving and determinants


def test_solve_linear_unique():
    sol = solve_linear([[1, 1], [1, -1]], [3, 1])
    assert sol == [Fraction(2), Fraction(1)]
    # Fraction coefficients and right-hand sides: x = (2, -3/4).
    a = [[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(-2, 3)]]
    assert solve_linear(a, [Fraction(3, 4), Fraction(5, 2)]) == [2, Fraction(-3, 4)]


def test_solve_linear_overdetermined_consistent():
    sol = solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert sol == [Fraction(2), Fraction(3)]


def test_solve_linear_inconsistent_returns_none():
    assert solve_linear([[1, 0], [0, 1], [1, 1]], [2, 3, 6]) is None


def test_solve_linear_singular_returns_none():
    assert solve_linear([[1, 1], [2, 2]], [1, 2]) is None  # non-unique


def test_solve_linear_matches_manual_inverse():
    # 3x3 with a known exact solution
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 2]]
    b = [1, 2, 3]
    sol = solve_linear(a, b)
    for row, rhs in zip(a, b):
        assert sum(c * x for c, x in zip(row, sol)) == rhs


def _det_by_permutation_expansion(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # compute sign by cycle decomposition
        p = list(perm)
        for i in range(n):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


def test_int_det_matches_permutation_expansion():
    import random

    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            assert int_det(mat) == _det_by_permutation_expansion(mat)


def test_int_det_identity_and_swap():
    assert int_det([[1, 0], [0, 1]]) == 1
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([]) == 1
    with pytest.raises(ValueError):
        int_det([[1, 2]])
    with pytest.raises(ValueError, match="1/2"):
        int_det([[Fraction(1, 2)]])


def _cramer(a, b):
    """Cramer's rule on permutation-expansion determinants; None if singular."""
    det = _det_by_permutation_expansion(a)
    if det == 0:
        return None
    return [
        Fraction(_det_by_permutation_expansion(
            [row[:j] + [rhs] + row[j + 1:] for row, rhs in zip(a, b)]), det)
        for j in range(len(a))
    ]


def test_solve_linear_matches_cramer():
    rng = random.Random(14)

    def entry():
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))

    for n in (1, 2, 3, 4):
        for _ in range(25):
            a = [[entry() for _ in range(n)] for _ in range(n)]
            b = [entry() for _ in range(n)]
            x = _cramer(a, b)
            assert solve_linear(a, b) == x
            # Rank-deficient: the last column is the sum of the others.
            deficient = [row[:-1] + [sum(row[:-1])] for row in a]
            assert _det_by_permutation_expansion(deficient) == 0
            assert solve_linear(deficient, b) is None
            assert solve_linear(deficient + deficient, b + b) is None
            if x is None:
                continue
            # Overdetermined: two more rows that x satisfies, then one it misses.
            extra = [[entry() for _ in range(n)] for _ in range(2)]
            rhs = [sum(c * v for c, v in zip(row, x)) for row in extra]
            assert solve_linear(a + extra, b + rhs) == x
            assert solve_linear(extra + a, rhs + b) == x
            assert solve_linear(a + extra, b + [rhs[0] + 1, rhs[1]]) is None


def _rank(mat):
    """Largest k with a nonzero k x k minor, by brute force."""
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                if _det_by_permutation_expansion([[mat[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def test_row_reduce_pivots_are_greedy_independent_columns():
    rng = random.Random(1968)
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        r = rng.randrange(0, min(nrows, ncols) + 1)
        left = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(r)]
        mat = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(ncols)]
               for i in range(nrows)]
        reduced, pivots, det = row_reduce(mat)
        cols = [[row[j] for row in mat] for j in range(ncols)]
        assert pivots == [j for j in range(ncols) if _rank(cols[:j + 1]) > _rank(cols[:j])]
        big_d = reduced[0][pivots[0]] if pivots else 1
        for i, row in enumerate(reduced):
            if i < len(pivots):
                assert [row[p] for p in pivots] == [big_d * (k == i) for k in range(len(pivots))]
            else:
                assert not any(row)
        # D times each column is the combination of pivot columns the rows give.
        for i in range(nrows):
            for j in range(ncols):
                assert big_d * mat[i][j] == sum(
                    reduced[k][j] * mat[i][p] for k, p in enumerate(pivots))
        if len(pivots) == nrows:
            assert det == _det_by_permutation_expansion([[row[p] for p in pivots] for row in mat])
        else:
            assert det == 0


def test_engine_disagreement_is_runtime_error():
    assert issubclass(EngineDisagreement, RuntimeError)


def test_held_memo_keeps_nothing_above_its_limit():
    memo = _HeldMemo(lambda key, value: len(value))
    value = "abcde"
    assert memo.keep("k", value, 4) is value
    assert not memo and memo.held == 0


def test_held_memo_keeps_a_value_exactly_at_its_limit():
    memo = _HeldMemo(lambda key, value: len(value))
    memo.keep("k", "abcd", 4)
    assert memo == {"k": "abcd"} and memo.held == 4


def test_held_memo_drops_the_oldest_entries_until_the_new_one_fits():
    memo = _HeldMemo(lambda key, value: len(value))
    for key, value in [("a", "x"), ("b", "xx"), ("c", "xxx"), ("d", "x")]:
        memo.keep(key, value, 7)
    assert list(memo) == ["a", "b", "c", "d"] and memo.held == 7
    memo.keep("e", "xxx", 7)  # a alone would not make room, a and b do
    assert list(memo) == ["c", "d", "e"] and memo.held == 7
    memo.keep("f", "x", 7)
    assert list(memo) == ["d", "e", "f"] and memo.held == 5


def test_held_memo_held_is_the_sum_of_the_sizes_kept():
    memo = _HeldMemo(lambda key, value: len(key) + value)
    rng = random.Random("held")
    for i in range(200):
        memo.keep("k" * rng.randint(1, 3) + str(i), rng.randint(0, 20), 50)
        assert memo.held == sum(len(key) + value for key, value in memo.items()) <= 50
    memo.clear()
    assert not memo and memo.held == 0
