"""Tests for the Ehrhart engines, h*-vector helpers, and the cut polytope.

Oracle strategy: the interpolation engine (exact counts by the symmetric
counter at t = 0..m plus a verification count at t = m+1) arbitrates every
closed form, on the oracle domain and, in tests only, above it; the conjecture
routes are cross-checked against each other and then against the oracle;
h*-conversions round trip through the binomial-coefficient basis; the
auxiliary quasi-difference polynomial is compared with direct counts on the
explicit vertex data.
"""

import math
from fractions import Fraction

import pytest

from partperm import (
    DRACONIAN_MAX_M,
    ORACLE_MAX_M,
    ORACLE_MAX_N,
    EngineDisagreement,
    Polynomial,
    VRep,
    aux3_points,
    aux_lemma3,
    count_points,
    ehr_closed_small_m,
    ehr_closed_small_n,
    ehr_conjecture,
    ehr_draconian,
    ehr_interpolate,
    ehr_parking,
    ehr_recurrence,
    from_hstar,
    to_hstar,
    hull_convert,
    nvol_closed,
    nvol_recursive,
    oracle_domain,
    pp_count,
    pp_facets,
)
from partperm.ehrhart import interpolate_counts

# --------------------------------------------------------------------------
# Interpolation oracle and frozen goldens


def test_ehr_interpolate_pentagon():
    assert ehr_interpolate(2, 2) == Polynomial([1, Fraction(7, 2), Fraction(7, 2)])


def test_ehr_interpolate_golden_32():
    assert ehr_interpolate(3, 2) == Polynomial(
        [1, Fraction(9, 2), Fraction(15, 2), 4]
    )


def test_ehr_interpolate_25():
    assert ehr_interpolate(2, 5) == Polynomial(
        [1, Fraction(19, 2), Fraction(49, 2)]
    )


def test_ehr_interpolate_1n():
    for n in range(0, 7):
        assert ehr_interpolate(1, n) == Polynomial([1, n])


def test_ehr_constant_term_one():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        assert ehr_interpolate(m, n)(0) == 1


def test_ehr_lead_times_factorial_is_volume():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3), (4, 5)]:
        p = ehr_interpolate(m, n)
        assert p.coefficient(m) * math.factorial(m) == nvol_recursive(m, n)


def test_ehr_interpolate_out_of_range():
    with pytest.raises(ValueError):
        ehr_interpolate(6, 2)
    with pytest.raises(ValueError):
        ehr_interpolate(2, 7)


def test_ehr_interpolate_domain_is_the_oracle_domain():
    bounds = f"m <= {ORACLE_MAX_M}, n <= {ORACLE_MAX_N}"
    for m in range(0, ORACLE_MAX_M + 2):
        for n in range(-1, ORACLE_MAX_N + 2):
            if oracle_domain(m, n):
                assert ehr_interpolate(m, n)(0) == 1
            else:
                with pytest.raises(ValueError, match=bounds):
                    ehr_interpolate(m, n)


def test_ehr_interpolate_counts_with_pp_count():
    for m, n in [(2, 2), (3, 5), (5, 6)]:
        p = ehr_interpolate(m, n)
        assert [p(t) for t in range(m + 3)] == [pp_count(m, n, t) for t in range(m + 3)]


def test_interpolate_counts_rejects_a_non_polynomial_count():
    # 2^t agrees with a cubic at t = 0..3 but not at the check t = 4
    with pytest.raises(EngineDisagreement, match="t=4 verification"):
        interpolate_counts(lambda t: 2**t, 3, "a test sequence")
    cube = interpolate_counts(lambda t: (t + 1) ** 3, 3, "a cube")
    assert cube == Polynomial([1, 3, 3, 1])


@pytest.mark.parametrize("m,n", [(6, 5), (7, 8), (8, 7), (9, 8)])
def test_counts_confirm_the_engines_above_the_oracle_domain(m, n):
    # ground truth where no other check reaches: pp_count interpolated at
    # t = 0..m and verified at t = m+1
    assert not oracle_domain(m, n)
    truth = interpolate_counts(lambda t: pp_count(m, n, t), m, f"P({m},{n})")
    p1, p2, _ = ehr_conjecture(m, n)
    assert p1 == p2 == truth
    assert ehr_recurrence(m, n) == truth
    assert ehr_draconian(m, n) == truth
    volume = truth.coefficient(m) * math.factorial(m)
    assert nvol_closed(m, n) == (volume, volume, volume)


def test_ehr_point_counts_at_one():
    assert ehr_interpolate(2, 3)(1) == 15
    assert ehr_interpolate(3, 3)(1) == 51
    assert ehr_interpolate(4, 4)(1) == 455
    assert ehr_interpolate(4, 3)(1) == 144


def test_ehr_coefficients_positive_above_critical():
    for m in range(1, 5):
        for n in range(max(m - 1, 1), 7):
            p = ehr_interpolate(m, n)
            assert all(c > 0 for c in p.coeffs), (m, n)


# --------------------------------------------------------------------------
# Closed small-n forms (all m)


@pytest.mark.parametrize("m", range(1, 6))
def test_small_n1_is_simplex(m):
    # P(m,1) = Δ_m: ehr = C(t+m, m)
    p = ehr_closed_small_n(m, 1)
    for t in range(6):
        assert p(t) == math.comb(t + m, m)


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_n_matches_interpolation(m, n):
    assert ehr_closed_small_n(m, n) == ehr_interpolate(m, n)


def test_small_n_rejects_n4():
    with pytest.raises(ValueError):
        ehr_closed_small_n(3, 4)


@pytest.mark.parametrize("m", [1, 3, 7])
def test_small_n0_is_a_point(m):
    # P(m,0) is the origin: one lattice point in every dilate
    assert ehr_closed_small_n(m, 0) == Polynomial([1])
    if m <= 5:
        assert ehr_interpolate(m, 0) == Polynomial([1])


# --------------------------------------------------------------------------
# Closed small-m forms (n >= max(1, m-1), theorem ranges)


def test_small_m_golden_25():
    assert ehr_closed_small_m(2, 5) == Polynomial(
        [1, Fraction(19, 2), Fraction(49, 2)]
    )


def test_small_m_golden_32():
    assert ehr_closed_small_m(3, 2) == Polynomial(
        [1, Fraction(9, 2), Fraction(15, 2), 4]
    )


@pytest.mark.parametrize(
    "m,n",
    [(1, 1), (1, 4), (2, 1), (2, 3), (2, 6), (3, 2), (3, 5), (4, 3), (4, 6)],
)
def test_small_m_matches_interpolation(m, n):
    assert ehr_closed_small_m(m, n) == ehr_interpolate(m, n)


def test_small_m_range_errors():
    with pytest.raises(ValueError):
        ehr_closed_small_m(5, 5)
    with pytest.raises(ValueError):
        ehr_closed_small_m(3, 1)  # theorem needs n >= 2
    with pytest.raises(ValueError):
        ehr_closed_small_m(4, 2)  # theorem needs n >= 3


# --------------------------------------------------------------------------
# Draconian route


@pytest.mark.parametrize("m,n", [(1, 0), (1, 3), (2, 1), (2, 4), (3, 2), (3, 6), (4, 3), (4, 4)])
def test_draconian_matches_interpolation(m, n):
    assert ehr_draconian(m, n) == ehr_interpolate(m, n)


def test_draconian_m2_closed_form():
    # after expanding the 8-sequence sum: (n^2 - 1/2)t^2 + (2n - 1/2)t + 1
    for n in (1, 2, 3, 4, 5):
        expected = Polynomial(
            [1, 2 * n - Fraction(1, 2), n * n - Fraction(1, 2)]
        )
        assert ehr_draconian(2, n) == expected


def test_draconian_range():
    with pytest.raises(ValueError):
        ehr_draconian(4, 2)


@pytest.mark.parametrize("m", range(7, DRACONIAN_MAX_M + 1))
def test_draconian_beyond_enumeration_matches_conjecture_and_recurrence(m):
    for n in (m - 1, m, m + 2):
        poly = ehr_draconian(m, n)
        assert poly == ehr_recurrence(m, n), (m, n)
        assert poly.coefficient(m) * math.factorial(m) == nvol_recursive(m, n)
    assert ehr_draconian(m, m) == ehr_conjecture(m, m)[0]


def test_draconian_refuses_beyond_cap():
    m = DRACONIAN_MAX_M + 1
    with pytest.raises(ValueError, match=f"m <= {DRACONIAN_MAX_M}"):
        ehr_draconian(m, m)


# --------------------------------------------------------------------------
# Parking specialization at n = m-1


PARKING_COUNTS = {1: 1, 2: 3, 3: 17, 4: 144}


@pytest.mark.parametrize("m", sorted(PARKING_COUNTS))
def test_parking_counts_frozen(m):
    poly, count = ehr_parking(m)
    assert count == PARKING_COUNTS[m]
    assert poly(1) == count


@pytest.mark.parametrize("m", sorted(PARKING_COUNTS))
def test_parking_count_is_lattice_point_count(m):
    _, count = ehr_parking(m)
    assert count == count_points(pp_facets(m, m - 1), 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_parking_poly_is_ehrhart(m):
    poly, _ = ehr_parking(m)
    assert poly == ehr_interpolate(m, m - 1)


def test_parking_m2_hand_expansion():
    # b_12 ∈ {0,1,2}: 1 + t + C(t+1,2) = C(t+2,2)
    poly, count = ehr_parking(2)
    assert count == 3
    for t in range(6):
        assert poly(t) == math.comb(t + 2, 2)


def test_parking_range():
    with pytest.raises(ValueError, match=f"m <= {DRACONIAN_MAX_M}"):
        ehr_parking(DRACONIAN_MAX_M + 1)
    with pytest.raises(ValueError):
        ehr_parking(0)


@pytest.mark.parametrize("m", range(7, DRACONIAN_MAX_M + 1))
def test_parking_beyond_enumeration(m):
    poly, count = ehr_parking(m)
    assert poly == ehr_recurrence(m, m - 1)
    assert count == poly(1)


# --------------------------------------------------------------------------
# Conjectured closed forms


@pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (2, 2), (3, 2), (3, 4), (4, 3), (4, 6)])
def test_conjecture_forms_agree_and_match_oracle(m, n):
    p1, p2, equal = ehr_conjecture(m, n)
    assert equal is True
    assert p1 == p2
    assert p1 == ehr_interpolate(m, n)


def test_conjecture_m1_closed():
    for n in (1, 2, 5):
        p1, p2, equal = ehr_conjecture(1, n)
        assert equal and p1 == Polynomial([1, n])


def test_conjecture_leading_coefficient_is_volume():
    for m, n in [(2, 2), (3, 3), (4, 4)]:
        p1, _, _ = ehr_conjecture(m, n)
        assert p1.coefficient(m) * math.factorial(m) == nvol_recursive(m, n)


def test_conjecture_range():
    with pytest.raises(ValueError):
        ehr_conjecture(4, 2)


@pytest.mark.parametrize("m,n", [(0, 3), (1, 1), (2, 2), (3, 2), (4, 4), (4, 6)])
def test_recurrence_matches_oracle(m, n):
    p = ehr_recurrence(m, n)
    if m == 0:
        assert p == Polynomial([1])
    else:
        assert p == ehr_interpolate(m, n)


def test_recurrence_equals_conjecture():
    for m, n in [(2, 3), (3, 3), (4, 5)]:
        assert ehr_recurrence(m, n) == ehr_conjecture(m, n)[0]


# --------------------------------------------------------------------------
# h*-vector helpers


def test_hstar_simplex():
    # Δ_m has ehr = C(t+m,m): h* = (1,0,...,0)
    for m in (1, 2, 3):
        p = ehr_closed_small_n(m, 1)
        assert to_hstar(p, m) == [1] + [0] * m


def test_hstar_half_open_simplex():
    # ehr = C(t+m-1, m) has h* = (0,1,0,...,0)
    from partperm import binomial_poly

    m = 3
    p = binomial_poly(Polynomial([m - 1, 1]), m)
    assert to_hstar(p, m) == [0, 1, 0, 0]


def test_hstar_round_trip():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        p = ehr_interpolate(m, n)
        h = to_hstar(p, m)
        assert from_hstar(h) == p


def test_hstar_entries_nonnegative_integers():
    for m in range(1, 5):
        for n in range(1, 6):
            h = to_hstar(ehr_interpolate(m, n), m)
            for entry in h:
                assert entry.denominator == 1
                assert entry >= 0


def test_hstar_pyramid():
    # a lattice pyramid of height 1 appends a zero to the h*-vector; spot
    # check on the segment [0,1] (h* = (1,0)) -> unit triangle (h* = (1,0,0))
    seg = Polynomial([1, 1])  # ehr of [0,1]
    h = to_hstar(seg, 1)
    tri = from_hstar(h + [0])
    for t in range(5):
        assert tri(t) == math.comb(t + 2, 2)


def test_hstar_degree_check():
    with pytest.raises(ValueError):
        to_hstar(Polynomial([1, 1, 1]), 1)


# --------------------------------------------------------------------------
# Auxiliary cut polytope (explicit 4-dimensional vertex data)


def test_aux3_points_shape():
    q, f = aux3_points(4)
    assert len(q) == 14 and len(f) == 10
    assert set(f) < set(q)
    assert all(len(p) == 4 for p in q)


def test_aux3_f_on_hyperplane():
    n = 5
    q, f = aux3_points(n)
    assert all(p[0] + p[1] == 2 * n - 1 for p in f)
    assert all(p[0] + p[1] > 2 * n - 1 for p in set(q) - set(f))


def test_aux_lemma3_hand_value():
    # n = 4, t = 1: 1/12 + (4/3 - 5/8) + (8 - 8 + 23/12) + (8 - 28/3 + 21/8) = 4
    assert aux_lemma3(4)(1) == 4


def test_aux_lemma3_no_constant_term():
    for n in (4, 5, 6):
        assert aux_lemma3(n)(0) == 0


@pytest.mark.parametrize("n", [4, 5])
def test_aux_lemma3_matches_brute_counts(n):
    qpts, fpts = aux3_points(n)
    hq = hull_convert(VRep(qpts, 4))
    lows = tuple(min(p[j] for p in qpts) for j in range(4))
    highs = tuple(max(p[j] for p in qpts) for j in range(4))
    box = tuple(zip(lows, highs))
    aa = (1, 1, 0, 0)
    bb = 2 * n - 1
    hf = hq.with_rows([(aa, bb), (tuple(-x for x in aa), -bb)])
    expect = aux_lemma3(n)
    for t in (1, 2):
        got = count_points(hq, t, box=box) - count_points(hf, t, box=box)
        assert got == expect(t), (n, t)


def test_aux3_range():
    with pytest.raises(ValueError):
        aux3_points(3)
    with pytest.raises(ValueError):
        aux_lemma3(3)
