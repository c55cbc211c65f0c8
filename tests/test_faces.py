"""Tests for faces, f-vectors, h-polynomials, and combinatorial equivalence.

Oracle strategy: every chain-indexed face system is validated by filtering
the polytope's vertex list through both hyperplane forms (they must select
the same set as the direct blockwise construction); f-vectors are pinned to
frozen values and to the Euler relation; the five h-polynomial routes are
mutually cross-checked, and the stellohedron identity is verified against
the Eulerian-polynomial route for every m <= 8.
"""

import math
from itertools import permutations

import pytest

from partperm import (
    EngineDisagreement,
    Polynomial,
    comb_equiv_check,
    enumerate_chains,
    eulerian,
    f_polynomial,
    f_vector,
    face_from_chain,
    face_vertices,
    h_poly,
    is_palindromic,
    missing_ranks,
    pp_facets,
    pp_vertices,
    vertex_stats,
)
from partperm.faces import H_POLY_ENGINES

# --------------------------------------------------------------------------
# f-vectors


def test_f_vector_pentagon():
    assert f_vector(2, 2) == (5, 5, 1)
    assert f_vector(2, 5) == (5, 5, 1)


def test_f_vector_p33():
    assert f_vector(3, 3) == (16, 24, 10, 1)


def test_f_vector_p21_triangle():
    assert f_vector(2, 1) == (3, 3, 1)


def test_f_vector_p11_2():
    # P(11,2) has 26,601 faces
    assert f_vector(11, 2) == (122, 671, 2035, 4125, 5874, 6006, 4422, 2310,
                               825, 187, 23, 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3),
                                 (11, 2), (60, 40)])
def test_euler_relation(m, n):
    f = f_vector(m, n)
    assert sum((-1) ** i * f[i] for i in range(m + 1)) == 1


def test_f_vector_f0_is_vertex_count():
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        assert f_vector(m, n)[0] == len(pp_vertices(m, n).points)


def test_f_polynomial_evaluates_to_face_count():
    m, n = 3, 3
    assert f_polynomial(m, n)(1) == sum(f_vector(m, n))


# --------------------------------------------------------------------------
# Chain-indexed faces


def test_face_from_chain_origin():
    # the chain (∅) indexes the origin vertex
    fs = face_from_chain((frozenset(),), 3, 2)
    assert fs.dimension == 0
    assert face_vertices((frozenset(),), 3, 2) == [(0, 0, 0)]


def test_face_from_chain_whole_polytope():
    # the chain ([m]) indexes P(m,n) itself
    m, n = 3, 2
    fs = face_from_chain((frozenset({1, 2, 3}),), m, n)
    assert fs.dimension == m
    got = sorted(face_vertices((frozenset({1, 2, 3}),), m, n))
    assert got == sorted(pp_vertices(m, n).points)


def test_face_from_chain_full_sum_facet():
    # the chain (∅ ⊊ [m]) indexes the facet where the full sum is tight
    m, n = 3, 2
    c = (frozenset(), frozenset({1, 2, 3}))
    verts = face_vertices(c, m, n)
    rhs = math.comb(n + 1, 2) - math.comb(n - m + 1, 2) if n - m + 1 >= 2 else math.comb(n + 1, 2)
    assert all(sum(v) == rhs for v in verts)


def test_face_from_chain_membership_required():
    with pytest.raises(ValueError):
        face_from_chain((frozenset({1}), frozenset({1, 2, 3})), 3, 1)


def test_face_dimension_equals_missing_ranks():
    m, n = 3, 3
    for c in enumerate_chains(m, n):
        assert face_from_chain(c, m, n).dimension == missing_ranks(c)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_face_systems_select_constructed_vertices(m, n):
    """Both hyperplane forms must select exactly the blockwise vertex set."""
    all_verts = pp_vertices(m, n).points
    seen = set()
    for c in enumerate_chains(m, n):
        fs = face_from_chain(c, m, n)
        direct = set(face_vertices(c, m, n))
        for rows in (fs.case_rows, fs.compact_rows):
            selected = {
                p
                for p in all_verts
                if all(sum(a * x for a, x in zip(row, p)) == b for row, b in rows)
            }
            assert selected == direct, (c, rows)
        seen |= direct
    assert seen == set(all_verts)


def test_face_vertex_census_golden_m10():
    c1 = (frozenset({1, 2, 3}), frozenset(range(1, 6)), frozenset(range(1, 8)))
    assert len(face_vertices(c1, 10, 6)) == 40
    c2 = (frozenset(),) + c1
    assert len(face_vertices(c2, 10, 6)) == 24


def test_faces_partition_count():
    # every vertex of every face is a polytope vertex; face counts by
    # dimension agree with the f-vector
    m, n = 3, 2
    for c in enumerate_chains(m, n):
        verts = face_vertices(c, m, n)
        assert len(set(verts)) == len(verts)
        assert set(verts) <= set(pp_vertices(m, n).points)


def test_vertex_faces_are_single_vertices():
    # chains with zero missing ranks index vertices
    m, n = 3, 3
    count = 0
    for c in enumerate_chains(m, n):
        if missing_ranks(c) == 0:
            assert len(face_vertices(c, m, n)) == 1
            count += 1
    assert count == len(pp_vertices(m, n).points)


# --------------------------------------------------------------------------
# h-polynomials


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 2), (3, 3), (3, 6), (4, 3), (4, 5)])
def test_h_poly_methods_agree(m, n):
    polys = {method: h_poly(m, n, method)
             for method, engine in H_POLY_ENGINES.items() if engine.domain(m, n)}
    vals = list(polys.values())
    assert all(p == vals[0] for p in vals), polys


def test_h_poly_golden_values():
    assert h_poly(2, 2) == Polynomial([1, 3, 1])
    assert h_poly(3, 2) == Polynomial([1, 4, 4, 1])


def test_h_poly_is_f_shifted():
    m, n = 3, 3
    f = f_polynomial(m, n)
    h = h_poly(m, n, "from_f")
    # h(t) = f(t-1)
    for t in range(-2, 5):
        assert h(t) == f(t - 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 4), (4, 3), (4, 6), (5, 5)])
def test_h_poly_palindromic(m, n):
    assert is_palindromic(h_poly(m, n), m)


def test_h_poly_at_one_counts_vertices():
    # h(1) = f(0) = number of vertices
    for m, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        assert h_poly(m, n)(1) == len(pp_vertices(m, n).points)


def test_h_poly_pm1_is_simplex():
    # P(m,1) is the m-simplex: h = 1 + t + ... + t^m
    for m in (1, 2, 3, 4):
        assert h_poly(m, 1) == Polynomial([1] * (m + 1))


def test_h_poly_stellohedron_eulerian_form():
    # for n >= m the h-polynomial is sum_i C(m,i) A_i(t) t^{m-i}
    for m in (1, 2, 3, 4):
        n = m + 1
        t = Polynomial.x()
        expected = Polynomial()
        for i in range(m + 1):
            expected = expected + math.comb(m, i) * eulerian(i) * t ** (m - i)
        assert h_poly(m, n, "stellohedron") == expected


def test_h_poly_stellohedron_rejects_small_n():
    with pytest.raises(ValueError):
        h_poly(3, 2, "stellohedron")


def test_h_poly_unknown_method():
    with pytest.raises(ValueError):
        h_poly(2, 2, "no-such-method")


@pytest.mark.parametrize("m", range(1, 9))
def test_eulerian_identity_stellohedron(m):
    # 1 + t sum_{i>=1} C(m,i) A_i(t) = sum_i C(m,i) A_i(t) t^{m-i} has to hold
    # coefficientwise (h is palindromic); checked via the two stellohedron
    # forms agreeing, which h_poly asserts internally
    p = h_poly(m, m + 1, "stellohedron")
    t = Polynomial.x()
    # direct restatement: 1 + t*sum C(m,i)A_i(t)
    direct = Polynomial([1])
    acc = Polynomial()
    for i in range(1, m + 1):
        acc = acc + math.comb(m, i) * eulerian(i)
    direct = direct + t * acc
    assert p == direct


def test_h_poly_n_independent_for_n_ge_m():
    # combinatorial type is constant for n >= m
    for m in (2, 3, 4):
        base = h_poly(m, m)
        for n in (m + 1, m + 2):
            assert h_poly(m, n) == base


# --------------------------------------------------------------------------
# Orientation statistics


def test_vertex_stats_categories():
    stats = vertex_stats(2, 2)
    by_cat = {}
    for s in stats:
        by_cat.setdefault(s.category, []).append(s)
    assert len(by_cat["zero"]) == 1
    # V1: vertices containing the value 1 (k = n = 2): (1,2),(2,1)
    assert {s.vertex for s in by_cat["V1"]} == {(1, 2), (2, 1)}
    assert {s.vertex for s in by_cat["V2"]} == {(0, 2), (2, 0)}


def test_vertex_stats_beta():
    stats = {s.vertex: s for s in vertex_stats(3, 2)}
    # beta counts zeros to the right of the entry 1
    assert stats[(1, 2, 0)].beta == 1
    assert stats[(0, 1, 2)].beta == 0
    assert stats[(2, 1, 0)].beta == 1
    assert stats[(1, 0, 2)].beta == 1
    assert stats[(2, 0, 1)].beta == 0


def test_vertex_stats_h_poly_reconstruction():
    # the orientation route: h = 1 + sum_{V1} t^{1+des_inv+beta} + sum_{V2} t^{1+des_inv}
    m, n = 3, 2
    h = Polynomial([1])
    t = Polynomial.x()
    for s in vertex_stats(m, n):
        if s.category == "V1":
            h = h + t ** (1 + s.des_inv + s.beta)
        elif s.category == "V2":
            h = h + t ** (1 + s.des_inv)
    assert h == h_poly(m, n, "orientation")


def test_vertex_stats_count():
    for m, n in [(2, 2), (3, 2), (3, 3)]:
        assert len(vertex_stats(m, n)) == len(pp_vertices(m, n).points)


# --------------------------------------------------------------------------
# Combinatorial equivalence


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_comb_equiv_stable_above_m(m):
    assert comb_equiv_check(m, m, m + 2) is True


def test_comb_equiv_distinguishes():
    # P(2,1) is a triangle, P(2,2) a pentagon
    assert comb_equiv_check(2, 1, 2) is False


def test_comb_equiv_same_n():
    assert comb_equiv_check(3, 2, 2) is True
