"""Tests for the normalized-volume engines.

Oracle strategy: the counting-based oracle (leading Ehrhart coefficient
times m!) arbitrates every formula engine on a grid; the two published
coefficient tables (polynomials in n and in N = n - m + 1) are frozen
digit-for-digit; the lambda-sum engine is checked for invariance across
substitution points; the draconian sum must match the closed forms,
on the n = m - 1 diagonal too.
"""

import math
from fractions import Fraction

import pytest

from partperm import (
    DRACONIAN_MAX_M,
    Polynomial,
    aux1_vertices,
    aux2_vertices,
    VOLUME_ENGINES,
    aux1_nvol,
    aux2_nvol,
    conj_vmn_fit,
    nvol_closed,
    nvol_draconian,
    nvol_lambda,
    nvol_of_vrep,
    nvol_oracle,
    nvol_poly,
    nvol_recursive,
    nvol_small_n,
    nvol_three_term,
)

# --------------------------------------------------------------------------
# Frozen golden values


GOLDEN_VALUES = {
    (1, 1): 1,
    (2, 2): 7,
    (2, 3): 17,
    (2, 4): 31,
    (3, 2): 24,
    (3, 3): 129,
    (4, 3): 954,
    (5, 4): 59040,
    (4, 4): 4554,
}


@pytest.mark.parametrize("mn,value", sorted(GOLDEN_VALUES.items()))
def test_recursive_golden_values(mn, value):
    m, n = mn
    assert nvol_recursive(m, n) == value


def test_v1n_is_n():
    for n in range(0, 7):
        assert nvol_recursive(1, n) == n


def test_vm1_is_one():
    # P(m,1) is the unit simplex: normalized volume 1 (n >= m-1 needs m <= 2)
    assert nvol_recursive(2, 1) == 1
    assert nvol_small_n(5, 1) == 1
    assert nvol_small_n(3, 1) == 1


# --------------------------------------------------------------------------
# The published polynomial tables, frozen digit for digit


N_FORM_TABLE = {
    1: [0, 1],
    2: [-1, 0, 2],
    3: [-6, -9, 0, 6],
    4: [-54, -96, -72, 0, 24],
    5: [-840, -1350, -1200, -600, 0, 120],
    6: [-21150, -30240, -24300, -14400, -5400, 0, 720],
    7: [-782460, -1036350, -740880, -396900, -176400, -52920, 0, 5040],
}

SHIFTED_FORM_TABLE = {
    1: [0, 1],
    2: [1, 4, 2],
    3: [24, 63, 36, 6],
    4: [954, 2064, 1224, 288, 24],
    5: [59040, 113850, 68400, 18600, 2400, 120],
    6: [5295150, 9446760, 5699700, 1677600, 264600, 21600, 720],
}


@pytest.mark.parametrize("m", sorted(N_FORM_TABLE))
def test_nvol_poly_n_form_table(m):
    p = nvol_poly(m, "n")
    assert [int(c) for c in p.coeffs] == N_FORM_TABLE[m]


@pytest.mark.parametrize("m", sorted(SHIFTED_FORM_TABLE))
def test_nvol_poly_shifted_form_table(m):
    p = nvol_poly(m, "N")
    assert [int(c) for c in p.coeffs] == SHIFTED_FORM_TABLE[m]


@pytest.mark.parametrize("m", sorted(N_FORM_TABLE))
def test_nvol_poly_n_form_signs(m):
    p = nvol_poly(m, "n")
    assert p.coefficient(m) == math.factorial(m)
    assert all(p.coefficient(i) <= 0 for i in range(m))


@pytest.mark.parametrize("m", sorted(SHIFTED_FORM_TABLE))
def test_nvol_poly_shifted_form_positive(m):
    p = nvol_poly(m, "N")
    assert p.coefficient(m) == math.factorial(m)
    assert all(p.coefficient(i) >= 0 for i in range(m + 1))


def test_nvol_poly_forms_consistent():
    # substituting N = n - m + 1 into the shifted form recovers the n-form
    for m in (1, 2, 3, 4, 5, 6):
        pn = nvol_poly(m, "n")
        pN = nvol_poly(m, "N")
        shift = Polynomial([1 - m, 1])  # N = n - (m-1)
        assert pN(shift) == pn


def test_nvol_poly_evaluates_to_engine_values():
    for m in (1, 2, 3, 4):
        p = nvol_poly(m, "n")
        for n in range(m - 1, 7):
            assert p(n) == nvol_recursive(m, n)


def test_nvol_poly_bad_variable():
    with pytest.raises(ValueError):
        nvol_poly(2, "x")


# --------------------------------------------------------------------------
# Cross-engine agreement (the compact grid; the full grid runs in acceptance)


def _engine_values(m, n):
    vals = {name: engine.value(m, n) for name, engine in VOLUME_ENGINES.items()
            if engine.domain(m, n)}
    # the lambda sum at other parameters, compared as the exact Fraction
    vals["lambda_primes"] = nvol_lambda(m, n, lam=_primes(m + 1))
    c1, c2, c3 = nvol_closed(m, n)
    vals["closed_1"], vals["closed_2"], vals["closed_3"] = c1, c2, c3
    return vals


def _primes(k):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    return primes[:k]


@pytest.mark.parametrize(
    "m,n", [(1, 1), (2, 1), (2, 2), (2, 5), (3, 2), (3, 4), (4, 3), (4, 5)]
)
def test_engines_agree(m, n):
    vals = _engine_values(m, n)
    distinct = set(vals.values())
    assert len(distinct) == 1, vals


def test_lambda_independence():
    for m, n in [(2, 2), (3, 3), (4, 3)]:
        v1 = nvol_lambda(m, n)
        v2 = nvol_lambda(m, n, lam=_primes(m + 1))
        v3 = nvol_lambda(m, n, lam=[Fraction(i, 2) for i in range(1, m + 2)])
        assert v1 == v2 == v3


def test_lambda_rejects_repeats():
    with pytest.raises(ValueError):
        nvol_lambda(2, 2, lam=[1, 1, 2])
    with pytest.raises(ValueError):
        nvol_lambda(2, 2, lam=[1, 2])  # wrong length


# --------------------------------------------------------------------------
# Small-n closed volumes (valid for every m, including n < m-1)


@pytest.mark.parametrize("m", range(1, 6))
def test_small_n_2_formula(m):
    assert nvol_small_n(m, 2) == 3 ** m - m


@pytest.mark.parametrize("m", range(1, 6))
def test_small_n_3_formula(m):
    expected = 6 ** m - m * 3 ** m - (m - 1) * math.comb(m, 2)
    assert nvol_small_n(m, 3) == expected


@pytest.mark.parametrize("m", range(1, 6))
def test_small_n_4_formula(m):
    expected = (
        10 ** m
        - m * 6 ** m
        - Fraction(m * (m - 1) * (m - 3), 6) * 3 ** m
        - (3 * m * m - 6 * m + 1) * math.comb(m, 3)
    )
    assert expected.denominator == 1
    assert nvol_small_n(m, 4) == expected


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 5))
def test_small_n_matches_oracle(m, n):
    assert nvol_small_n(m, n) == nvol_oracle(m, n)


def test_small_n_range():
    with pytest.raises(ValueError):
        nvol_small_n(3, 5)
    with pytest.raises(ValueError):
        nvol_small_n(3, -1)


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_small_n0_is_a_point(m):
    assert nvol_small_n(m, 0) == 0
    if m <= 5:
        assert nvol_oracle(m, 0) == 0


# --------------------------------------------------------------------------
# Draconian engine


def test_draconian_rejects_low_n():
    with pytest.raises(ValueError):
        nvol_draconian(4, 2)


@pytest.mark.parametrize("m", range(7, DRACONIAN_MAX_M + 1))
def test_draconian_beyond_enumeration_matches_closed(m):
    for n in (m - 1, m, m + 1, m + 4):
        assert nvol_draconian(m, n) == nvol_closed(m, n)[0], (m, n)


@pytest.mark.parametrize("m", range(7, DRACONIAN_MAX_M + 1))
def test_nvol_poly_shifted_form_beyond_enumeration(m):
    pN = nvol_poly(m, "N")
    assert pN.coefficient(m) == math.factorial(m)
    assert all(c > 0 and c.denominator == 1 for c in pN.coeffs)
    if m <= 8:  # the n-form's range
        assert pN(Polynomial([1 - m, 1])) == nvol_poly(m, "n")
    for n in (m - 1, m + 2):
        assert pN(n - m + 1) == nvol_closed(m, n)[0]


def test_draconian_refuses_beyond_cap():
    m = DRACONIAN_MAX_M + 1
    with pytest.raises(ValueError, match=f"m <= {DRACONIAN_MAX_M}"):
        nvol_draconian(m, m)
    with pytest.raises(ValueError, match=f"m <= {DRACONIAN_MAX_M}"):
        nvol_poly(m, "N")


def test_draconian_m2_hand_sum():
    # the four m = 2 volume sequences give 2! [ (n-1)^2/ (0!0!2!) *2!... ]:
    # direct check against the closed value 2n^2 - 1
    for n in (1, 2, 3, 4, 5):
        assert nvol_draconian(2, n) == 2 * n * n - 1


# --------------------------------------------------------------------------
# Volumes from explicit vertex sets


def test_nvol_of_vrep_simplex():
    from partperm import VRep

    # unit simplex in R^3: normalized volume 1
    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert nvol_of_vrep(VRep(pts, 3)) == 1


def test_nvol_of_vrep_cube():
    from partperm import VRep
    from itertools import product

    pts = tuple(product((0, 2), repeat=3))
    assert nvol_of_vrep(VRep(pts, 3)) == 48  # 3! * 8


def test_nvol_of_vrep_matches_pp(m=3, n=2):
    from partperm import pp_vertices

    assert nvol_of_vrep(pp_vertices(m, n)) == nvol_recursive(m, n)


def test_nvol_of_vrep_verifies_its_interpolation(monkeypatch):
    from partperm import EngineDisagreement, VRep
    import partperm.volume as VO

    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    true_count = VO.count_points
    monkeypatch.setattr(VO, "count_points",
                        lambda h, t, box=None: true_count(h, t, box) + (t == 4))
    with pytest.raises(EngineDisagreement, match="t=4 verification"):
        nvol_of_vrep(VRep(pts, 3))


# --------------------------------------------------------------------------
# The auxiliary polytopes


@pytest.mark.parametrize("m,value", [(3, 8), (4, 43)])
def test_aux1_formula_values(m, value):
    assert aux1_nvol(m) == value
    assert 2 ** m - 3 ** m + m * 3 ** (m - 1) == value


@pytest.mark.parametrize("m,value", [(3, 10), (4, 25)])
def test_aux2_formula_values(m, value):
    assert aux2_nvol(m) == value
    assert 3 * m * m - 6 * m + 1 == value


@pytest.mark.parametrize("m", [3, 4])
def test_aux1_vertex_volume_matches_formula(m):
    assert nvol_of_vrep(aux1_vertices(m)) == aux1_nvol(m)


@pytest.mark.parametrize("m", [3, 4])
def test_aux2_vertex_volume_matches_formula(m):
    assert nvol_of_vrep(aux2_vertices(m)) == aux2_nvol(m)


def test_aux_vertices_preconditions():
    with pytest.raises(ValueError):
        aux1_vertices(2)
    with pytest.raises(ValueError):
        aux2_vertices(2)
    with pytest.raises(ValueError):
        aux1_nvol(2)
    with pytest.raises(ValueError):
        aux2_nvol(2)


# --------------------------------------------------------------------------
# Conjectured subtraction-form fit


@pytest.mark.parametrize("n", [2, 3, 4])
def test_conj_vmn_fit_consistent(n):
    report = conj_vmn_fit(n)
    assert report["consistent"] is True


def test_conj_vmn_fit_n3_polynomial():
    report = conj_vmn_fit(3)
    polys = report["polynomials"]
    # p_{3,1}(m) = m(m-1)^2/2: coefficients [0, 1/2, -1, 1/2]
    p = polys[1]
    assert p["coefficients"] == ["0", "1/2", "-1", "1/2"]
    assert p["degree"] == 3
    assert p["leading_positive"] is True
    assert p["matches_stated_degree"] is True


def test_conj_vmn_fit_n4_polynomials():
    report = conj_vmn_fit(4)
    polys = report["polynomials"]
    # p_{4,1}(m) = m(m-1)(m-3)/6
    assert polys[1]["coefficients"] == ["0", "1/2", "-2/3", "1/6"]
    # p_{4,2}(m) = (3m^2-6m+1) C(m,3), degree 5, leading 1/2
    assert polys[2]["degree"] == 5
    assert polys[2]["leading"] == "1/2"
    assert polys[2]["leading_positive"] is True
    assert polys[2]["matches_stated_degree"] is True


def test_conj_vmn_fit_out_of_range():
    with pytest.raises(ValueError):
        conj_vmn_fit(5)


# --------------------------------------------------------------------------
# Preconditions


def test_engines_reject_low_n():
    with pytest.raises(ValueError):
        nvol_recursive(4, 2)
    with pytest.raises(ValueError):
        nvol_closed(4, 2)
    with pytest.raises(ValueError):
        nvol_three_term(4, 2)
    with pytest.raises(ValueError):
        nvol_lambda(4, 2)


def test_oracle_range():
    with pytest.raises(ValueError, match="nvol_oracle is limited to m <= 5, n <= 6"):
        nvol_oracle(6, 2)
    with pytest.raises(ValueError):
        nvol_oracle(2, 7)
