"""Tests for the exact-arithmetic toolkit: polynomials, series, linear algebra.

Oracle strategy: every nontrivial routine is checked against an independent
brute-force computation (descent statistics for Eulerian numbers, set
partitions for Stirling numbers, permutation expansion for determinants,
math.comb for binomials) plus algebraic identities that would catch sign or
indexing slips (sqrt(1-z)^2 = 1-z, exp(f)exp(-f) = 1, T = z e^T).
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partperm import (
    EngineDisagreement,
    Polynomial,
    Series,
    binomial_poly,
    double_factorial,
    eulerian,
    int_det,
    interpolate,
    solve_linear,
    stirling2,
)
from partperm.exactmath import (
    series_coeff,
    series_exp,
    sqrt_one_minus,
    tree_function,
)

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
# double factorial (the signed convention (2i-3)!! = -prod_{j=1..i} (2j-3))


@pytest.mark.parametrize("i,value", [(0, -1), (1, 1), (2, 1), (3, 3), (4, 15), (5, 105)])
def test_double_factorial_values(i, value):
    assert double_factorial(i) == value


def test_double_factorial_recurrence():
    for i in range(2, 12):
        assert double_factorial(i) == double_factorial(i - 1) * (2 * i - 3)


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
# Truncated power series


def _z(order):
    return Series([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1), order)


def test_series_sqrt_squares_back():
    order = 10
    s = sqrt_one_minus(_z(order))
    sq = s * s
    assert series_coeff(sq, 0) == 1
    assert series_coeff(sq, 1) == -1
    for i in range(2, order + 1):
        assert series_coeff(sq, i) == 0


def test_series_exp_inverse():
    order = 9
    z = _z(order)
    e = series_exp(z)
    e_minus = series_exp(Series([-c for c in z.coeffs], order))
    prod = e * e_minus
    assert series_coeff(prod, 0) == 1
    for i in range(1, order + 1):
        assert series_coeff(prod, i) == 0


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(Series([Fraction(1), Fraction(1)], 1))


def test_sqrt_one_minus_coefficients_vs_double_factorial():
    # [z^i] sqrt(1-z) = -(2i-3)!! / (2^i i!), the signed double factorial
    order = 9
    s = sqrt_one_minus(_z(order))
    for i in range(order + 1):
        expected = Fraction(-double_factorial(i), 2 ** i * math.factorial(i))
        assert series_coeff(s, i) == expected


def test_tree_function_satisfies_functional_equation():
    # T(z) = sum i^{i-1} z^i / i!  must satisfy T = z e^T
    order = 8
    t = tree_function(order)
    for i in range(1, order + 1):
        assert series_coeff(t, i) == Fraction(i ** (i - 1), math.factorial(i))
    rhs = _z(order) * series_exp(t)
    for i in range(order + 1):
        assert series_coeff(rhs, i) == series_coeff(t, i)


def test_series_polynomial_coefficients():
    # series arithmetic must also work with Polynomial coefficients
    order = 4
    t = Polynomial.x()
    f = Series([Polynomial()] + [t] + [Polynomial()] * (order - 1), order)  # t*z
    e = series_exp(f)
    assert series_coeff(e, 2) == t * t / 2


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


def test_engine_disagreement_is_runtime_error():
    assert issubclass(EngineDisagreement, RuntimeError)
