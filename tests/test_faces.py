"""Tests for faces, f-vectors, h-polynomials, and combinatorial equivalence.

Oracle strategy: every chain-indexed face system is validated by filtering
the polytope's vertex list through both hyperplane forms (they must select
the same set as the direct blockwise construction), and the search that
face_from_chain uses for that check is compared with the same filter on
random 0/1 systems; f-vectors are pinned to frozen values and to the Euler
relation; the five h-polynomial routes are mutually cross-checked, and the
stellohedron identity is verified against the Eulerian-polynomial route for
every m <= 8.
"""

import gc
import math
import time
import tracemalloc
from typing import List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partperm.faces as FA
from partperm import (
    COMB_EQUIV_WORK_MAX,
    F_VECTOR_WORK_MAX,
    EngineDisagreement,
    Polynomial,
    comb_equiv_check,
    enumerate_chains,
    eulerian,
    f_polynomial,
    f_vector,
    f_vector_work,
    face_from_chain,
    face_records,
    face_vertex_count,
    face_vertices,
    h_poly,
    is_palindromic,
    missing_ranks,
    pp_vertex_count,
    pp_vertices,
    r_set,
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


def test_f_vector_work_counts_the_census_terms():
    for m, n in [(1, 1), (1, 5), (4, 2), (5, 3), (6, 6), (6, 9), (30, 2), (60, 40)]:
        widest = min(n - 1, m - 1)
        terms = sum(w + 1 for a in range(1, m + 1) for w in range(min(widest, m - a) + 1))
        assert f_vector_work(m, n) == terms * m


def test_f_vector_refuses_above_the_work_bound_up_front():
    # (100,100) took 2.5 s and (5000,1) 2.5 s; both are refused at once
    for m, n in [(100, 100), (5000, 1), (150, 150)]:
        assert f_vector_work(m, n) > F_VECTOR_WORK_MAX
        start = time.perf_counter()
        with pytest.raises(ValueError, match="F_VECTOR_WORK_MAX"):
            f_vector(m, n)
        assert time.perf_counter() - start < 0.1
    assert f_vector_work(99, 99) <= F_VECTOR_WORK_MAX
    assert f_vector_work(4096, 1) <= F_VECTOR_WORK_MAX
    # the from_f route declares the bound; the closed route still answers
    assert not H_POLY_ENGINES["from_f"].domain(5000, 1)
    with pytest.raises(ValueError, match="F_VECTOR_WORK_MAX"):
        h_poly(5000, 1)
    assert h_poly(5000, 1, "closed") == Polynomial([1] * 5001)


# --------------------------------------------------------------------------
# Chain-indexed faces


def test_face_from_chain_origin():
    # the chain (∅) indexes the origin vertex
    fs = face_from_chain((frozenset(),), 3, 2)
    assert fs.dimension == 0
    assert face_vertices((frozenset(),), 3, 2) == [(0, 0, 0)]


def test_face_from_chain_whole_polytope():
    # the chain ([m]) indexes P(m,n) itself: its listing is V(P(m,n)), point
    # for point, through the same placement routine
    for m in range(1, 7):
        for n in range(1, 8):
            whole = (frozenset(range(1, m + 1)),)
            assert face_from_chain(whole, m, n).dimension == m
            assert face_vertices(whole, m, n) == list(pp_vertices(m, n).points)


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


def test_face_vertex_count_is_the_listing_length():
    for m in range(1, 6):
        for n in range(1, 7):
            for c in enumerate_chains(m, n):
                assert face_vertex_count(c, m, n) == len(face_vertices(c, m, n)), (c, m, n)
    c1 = (frozenset({1, 2, 3}), frozenset(range(1, 6)), frozenset(range(1, 8)))
    assert face_vertex_count(c1, 10, 6) == 40
    assert face_vertex_count((frozenset(),) + c1, 10, 6) == 24


def test_face_vertex_count_lists_nothing():
    # the chain ([m]) is all of P(m,n); counted above VERTEX_LIST_MAX too
    for m, n in [(3, 2), (8, 8), (10, 10), (12, 7)]:
        assert face_vertex_count((frozenset(range(1, m + 1)),), m, n) == pp_vertex_count(m, n)
    with pytest.raises(ValueError):
        face_vertex_count((frozenset({1}), frozenset({1})), 2, 2)


def test_face_vertex_count_builds_no_run_of_values():
    # P(20000,20000) has a count of about 77,000 digits; its one block is
    # counted by running products, with no tuple of values per length
    whole = (frozenset(range(1, 20001)),)
    start = time.perf_counter()
    count = face_vertex_count(whole, 20000, 20000)
    assert time.perf_counter() - start < 2
    assert count == pp_vertex_count(20000, 20000)


def test_face_vertices_refuses_above_the_listing_bound(monkeypatch):
    # the chain ([10]) is all of P(10,10): 9,864,101 vertices, refused from
    # the block sizes before any permutation is built; the count of
    # P(2000,2000) has about 5,700 digits, and the refusal stops counting
    # once past the bound
    for m in (10, 2000):
        whole = (frozenset(range(1, m + 1)),)
        for build in (face_vertices, face_from_chain):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="VERTEX_LIST_MAX") as refusal:
                build(whole, m, m)
            assert time.perf_counter() - start < 0.1
            assert len(str(refusal.value)) < 200
    # the count read up front is the face's exact vertex count
    sizes = {c: len(face_vertices(c, 4, 3)) for c in enumerate_chains(4, 3)}
    for c, size in sizes.items():
        monkeypatch.setattr(FA, "VERTEX_LIST_MAX", size)
        assert len(face_vertices(c, 4, 3)) == size
        monkeypatch.setattr(FA, "VERTEX_LIST_MAX", size - 1)
        with pytest.raises(ValueError, match="VERTEX_LIST_MAX"):
            face_vertices(c, 4, 3)


def test_face_vertices_refuses_before_any_exact_count():
    # the count of P(50000,50000) has about 213,000 digits; the refusal
    # reads a count that stops once past the bound, and forms no other
    whole = (frozenset(range(1, 50001)),)
    start = time.perf_counter()
    with pytest.raises(ValueError) as refusal:
        face_vertices(whole, 50000, 50000)
    assert time.perf_counter() - start < 0.25
    assert str(refusal.value) == (
        "a face of P(50000,50000) has vertices counted = 2500000001, above the bound "
        "VERTEX_LIST_MAX: vertices counted <= 524288")


def test_face_vertices_work_follows_the_face_size():
    # the facet (emptyset < [12]) of P(12,1) has 12 vertices; each block is
    # built from injective placements of its nonzero values, never from all
    # 12! orderings of a run padded with zeros
    c = (frozenset(), frozenset(range(1, 13)))
    start = time.perf_counter()
    verts = face_vertices(c, 12, 1)
    assert len(verts) == 12 and all(sorted(v) == [0] * 11 + [1] for v in verts)
    assert face_from_chain(c, 12, 1).dimension == 11
    assert time.perf_counter() - start < 0.5


def _tight(rows, m, n):
    """Brute force: filter all of V(P(m,n)) through the equality rows."""
    return {p for p in pp_vertices(m, n).points
            if all(sum(a * x for a, x in zip(coeffs, p)) == rhs for coeffs, rhs in rows)}


@given(st.integers(1, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(0, 6),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * m), st.integers(-1, 16)),
             max_size=4))))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_vertices_on_matches_brute_force(case):
    m, n, rows = case
    found = FA._vertices_on(rows, m, n)
    assert len(found) == len(set(found))
    assert set(found) == _tight(rows, m, n)


def test_vertices_on_reach_table_is_per_shape():
    # the reach table is cached per (m,n): interleaving shapes that share m
    # or n must still match the brute-force filter on every system
    import random

    FA._reach.cache_clear()
    rng = random.Random(12)
    shapes = [(2, 2), (3, 4), (2, 5), (3, 1), (4, 3), (3, 0), (4, 4)]
    for _ in range(4):
        for m, n in shapes:
            for _ in range(5):
                rows = [(tuple(rng.randint(0, 1) for _ in range(m)), rng.randint(-1, 12))
                        for _ in range(rng.randint(0, 3))]
                assert set(FA._vertices_on(rows, m, n)) == _tight(rows, m, n), (m, n, rows)


def test_vertices_on_reach_table_holds_only_the_rows_the_search_reads(monkeypatch):
    # a vertex places at most m values, so P(2,10^6) needs 3 profiles, not
    # one for every value 0..10^6
    calls = []
    true_profile = FA.pp_profile
    monkeypatch.setattr(FA, "pp_profile", lambda m, n: calls.append(n) or true_profile(m, n))
    FA._reach.cache_clear()
    n = 10**6
    try:
        assert FA._vertices_on([((1, 0), n)], 2, n) == [(n, 0), (n, n - 1)]
    finally:
        FA._reach.cache_clear()
    assert len(calls) <= 3


def test_vertices_on_takes_only_0_1_rows():
    assert set(FA._vertices_on([], 2, 2)) == set(pp_vertices(2, 2).points)
    assert set(FA._vertices_on([((1, 1), 3)], 2, 2)) == {(2, 1), (1, 2)}
    assert FA._vertices_on([], 3, 0) == [(0, 0, 0)]
    assert FA._vertices_on([((1, 0, 1), 1)], 3, 0) == []
    with pytest.raises(ValueError, match="0/1 rows"):
        FA._vertices_on([((1, 2), 3)], 2, 2)
    with pytest.raises(ValueError, match="0/1 rows"):
        FA._vertices_on([((1, 1), 3), ((0, -1), 0)], 2, 2)


@pytest.mark.parametrize("m,n,step", [(3, 3, 1), (5, 5, 97)])
@pytest.mark.parametrize("mutation", ["drop", "add"])
def test_face_from_chain_catches_a_wrong_construction(monkeypatch, m, n, step, mutation):
    """A face_vertices that drops a vertex, or adds one of P outside the
    face, no longer matches what the forms select."""
    true_face_vertices = FA.face_vertices
    everything = pp_vertices(m, n).points

    def wrong(chain, mm, nn):
        verts = true_face_vertices(chain, mm, nn)
        if mutation == "drop":
            return verts[1:]
        return verts + [next(p for p in everything if p not in verts)]

    monkeypatch.setattr(FA, "face_vertices", wrong)
    chains = [c for c in enumerate_chains(m, n)[::step]
              if mutation == "drop" or missing_ranks(c) < m]
    assert len(chains) >= 20
    for c in chains:
        with pytest.raises(EngineDisagreement, match="form of chain") as info:
            face_from_chain(c, m, n)
        # the forms select the true face: a dropped vertex is one they add,
        # an added one is one they miss
        kind = "adds" if mutation == "drop" else "misses"
        assert f"{kind} [(" in str(info.value)


def test_face_from_chain_never_lists_the_polytope(monkeypatch):
    # P(9,9) has 986,410 vertices, above VERTEX_LIST_MAX: a small face is
    # still built and checked from its own rows
    def refuse(m, n):
        raise AssertionError("pp_vertices called")

    monkeypatch.setattr(FA, "pp_vertices", refuse)
    c = (frozenset({1, 2, 3}), frozenset(range(1, 6)), frozenset(range(1, 8)))
    fs = face_from_chain(c, 9, 9)
    assert fs.dimension == missing_ranks(c)
    direct = set(face_vertices(c, 9, 9))
    assert len(direct) == 64
    for rows in (fs.case_rows, fs.compact_rows):
        assert set(FA._vertices_on(rows, 9, 9)) == direct


def test_face_from_chain_memo_is_keyed_on_rows_not_sizes(monkeypatch):
    """Rows built wrong for one label only: a chain whose size class was
    verified and cached by a chain the fault spares still gets a search of
    its own, so the fault is caught."""
    true_indicator = FA._indicator
    bad = 1
    # an indicator row loses the label 1; a chain with 1 in A_1 never puts
    # 1 in an indicator (A_1 nonempty, so no all-ones row), so it is spared
    monkeypatch.setattr(FA, "_indicator",
                        lambda members, m: true_indicator(set(members) - {bad}, m))
    for m, n in [(4, 4), (5, 5)]:
        FA._tight_memo.clear()
        chains = enumerate_chains(m, n)
        spared = {}
        for c in chains:
            if bad in c[0]:
                face_from_chain(c, m, n)
                spared[tuple(map(len, c))] = c
        caught = 0
        for c in chains:
            if c[0] and bad not in c[0] and tuple(map(len, c)) in spared:
                with pytest.raises(EngineDisagreement, match="form of chain"):
                    face_from_chain(c, m, n)
                caught += 1
        assert caught >= 90 and len(spared) >= 15, (m, n, caught, len(spared))


def test_face_from_chain_searches_once_per_size_class(monkeypatch):
    # an evenly spaced 200-chain sample of P(5,5), relabelled: each form
    # of each size class is searched once, whatever the labels
    m, n = 5, 5
    relabel = {1: 4, 2: 1, 3: 5, 4: 3, 5: 2}
    every = enumerate_chains(m, n)
    sample = [tuple(frozenset(relabel[i] for i in a) for a in c)
              for c in every[::len(every) // 200][:200]]
    calls = []
    true_vertices_on = FA._vertices_on

    def counted(rows, mm, nn):
        calls.append(rows)
        return true_vertices_on(rows, mm, nn)

    monkeypatch.setattr(FA, "_vertices_on", counted)
    FA._tight_memo.clear()
    for c in sample:
        face_from_chain(c, m, n)
    classes = {tuple(map(len, c)) for c in sample}
    assert len(sample) == 200 and len(classes) >= 40
    assert len(calls) <= 2 * len(classes)


def test_face_vertex_memo_holds_no_face_above_its_cap(monkeypatch):
    # the whole of P(7,6), 8,660 vertices, is checked from its own rows and
    # then dropped: an unbounded memo kept 1.4 MB of it for the life of the
    # process, and 27.7 MB of the whole of P(8,8)
    chain = (frozenset(range(1, 8)),)
    gc.collect()
    tracemalloc.start()
    try:
        face_from_chain(chain, 7, 6)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**18
    # under a low cap the oldest classes leave first, and the tally the memo
    # keeps is the vertices it holds
    monkeypatch.setattr(FA, "_TIGHT_VERTICES_MAX", 100)
    FA._tight_memo.clear()
    for c in enumerate_chains(4, 4):
        face_from_chain(c, 4, 4)
    held = sum(len(a) + len(b) for a, b in FA._tight_memo.values())
    assert 0 < FA._tight_memo.held == held <= 100
    assert len(FA._tight_memo) < len({tuple(map(len, c)) for c in enumerate_chains(4, 4)})


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


def test_integer_h_routes_match_polynomial_sums():
    # the closed and stellohedron routes sum integer Eulerian rows; the
    # same sums written with Polynomial products must agree for m <= 30
    t = Polynomial.x()
    for m in range(1, 31):
        terms = [math.comb(m, i) * eulerian(i) for i in range(m + 1)]
        stellohedron = Polynomial()
        for i, term in enumerate(terms):
            stellohedron = stellohedron + term * t ** (m - i)
        for n in sorted({1, 2, m // 2 + 1, m - 1, m, m + 3} - {0}):
            closed = Polynomial([1])
            for i in range(min(m, n)):
                closed = closed + terms[i] * Polynomial([0] + [1] * (m - i))
            assert h_poly(m, n, "closed") == closed, (m, n)
            if n >= m:
                assert h_poly(m, n, "stellohedron") == stellohedron, (m, n)


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
# Permutation statistics


def descents(seq):
    """Number of descents in a sequence: positions i with seq[i] > seq[i+1]."""
    return sum(1 for x, y in zip(seq, seq[1:]) if x > y)


def permutation_inverse(perm):
    """Inverse of a permutation of 1..k given in one-line notation."""
    inv = [0] * len(perm)
    for pos, val in enumerate(perm, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def test_descents_examples():
    assert descents((1, 2, 3)) == 0
    assert descents((3, 2, 1)) == 2
    assert descents((2, 1, 3)) == 1
    assert descents(()) == 0


def test_permutation_inverse_examples():
    assert permutation_inverse((2, 3, 1)) == (3, 1, 2)
    assert permutation_inverse((1,)) == (1,)


@given(st.permutations(list(range(1, 7))))
@settings(max_examples=50)
def test_permutation_inverse_involution(perm):
    p = tuple(perm)
    assert permutation_inverse(permutation_inverse(p)) == p
    inv = permutation_inverse(p)
    assert all(inv[p[i] - 1] == i + 1 for i in range(len(p)))


# --------------------------------------------------------------------------
# Orientation statistics


class VertexStats(NamedTuple):
    """Orientation statistics of one vertex of P(m,n).

    ``category`` is 'zero' for the origin, 'V1' for vertices containing
    every value of [n] (equivalently: containing 1), and 'V2' for the
    remaining nonzero vertices.  ``des``/``des_inv`` count descents of the
    induced permutation and its inverse; ``beta`` (V1 only) counts zeros to
    the right of the unique entry 1.
    """

    vertex: Tuple[int, ...]
    category: str
    des: int
    des_inv: int
    beta: Optional[int]


def vertex_stats(m: int, n: int) -> List[VertexStats]:
    """Orientation statistics for every vertex of P(m,n), one record per
    vertex: the reference the orientation h-route is checked against.

    For a nonzero vertex with k nonzero entries, delete the zeros and
    subtract n-k from the rest to get a permutation of [k]; a vertex is in
    V1 exactly when k = n (its smallest nonzero entry is 1).
    """
    out = []
    for v in pp_vertices(m, n).points:
        nz = [x for x in v if x > 0]
        k = len(nz)
        if k == 0:
            out.append(VertexStats(v, "zero", 0, 0, None))
            continue
        perm = tuple(x - (n - k) for x in nz)
        des = descents(perm)
        des_inv = descents(permutation_inverse(perm))
        if k == n:
            pos_one = v.index(1)
            beta = sum(1 for x in v[pos_one + 1 :] if x == 0)
            out.append(VertexStats(v, "V1", des, des_inv, beta))
        else:
            out.append(VertexStats(v, "V2", des, des_inv, None))
    return out


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
    # the orientation route: h = 1 + sum_{V1} t^{1+des_inv+beta} + sum_{V2} t^{1+des_inv},
    # on every shape m <= 6, n <= 7 that the route admits
    shapes = [(m, n) for m in range(1, 7) for n in range(1, 8)
              if FA.orientation_domain(m, n)]
    assert len(shapes) == 42
    for m, n in shapes:
        h = [0] * (m + 1)
        for s in vertex_stats(m, n):
            if s.category == "zero":
                h[0] += 1
            else:
                h[1 + s.des_inv + (s.beta if s.category == "V1" else 0)] += 1
        assert Polynomial(h) == h_poly(m, n, "orientation") == h_poly(m, n, "closed"), (m, n)


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


def test_comb_equiv_compares_every_row(monkeypatch):
    # one extra marker on the top face under n2 changes one row of the
    # comparability matrix: the check must see it.  Bit m is the block
    # marker of the empty set, which no true R-set holds.
    m, n1, n2 = 3, 3, 5
    assert comb_equiv_check(m, n1, n2) is True
    true_r_mask = FA.r_mask
    top = ((1 << m) - 1,)

    def perturbed(masks, mm, nn):
        r = true_r_mask(masks, mm, nn)
        return r | 1 << mm if nn == n2 and tuple(masks) == top else r

    monkeypatch.setattr(FA, "r_mask", perturbed)
    assert comb_equiv_check(m, n1, n2) is False


def test_comb_equiv_refuses_quadratic_work_up_front():
    # P(6,6) has 18,732 chains with the empty face: 3.5e8 pairs in each
    # comparability matrix, refused from the f-vector before any chain is listed
    with pytest.raises(ValueError, match="COMB_EQUIV_WORK_MAX"):
        comb_equiv_check(6, 6, 8)
    assert (sum(f_vector(6, 6)) + 1) ** 2 > COMB_EQUIV_WORK_MAX
    # 2,164 chains: admitted, and still the full comparison
    assert (sum(f_vector(5, 5)) + 1) ** 2 <= COMB_EQUIV_WORK_MAX
    assert comb_equiv_check(5, 5, 7) is True


def _pairwise_rows(r_sets):
    return [sum(1 << j for j, b in enumerate(r_sets) if b <= a) for a in r_sets]


def _member_masks(chain):
    return tuple(sum(2 ** (i - 1) for i in a) for a in chain)


def _markers(r, m):
    """An r_mask integer decoded into r_set's markers."""
    bits = [k for k in range(r.bit_length()) if r >> k & 1]
    return {("pt", k + 1) if k < m else
            ("set", frozenset(i + 1 for i in range(m) if (k - m) >> i & 1)) for k in bits}


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in range(1, 6)]
                         + [(4, 4)])
def test_face_order_rows_equal_the_pairwise_matrix(m, n):
    # the bitmask rows of the r_mask integers against N^2 subset tests of
    # the r_set marker sets
    chains = enumerate_chains(m, n, include_empty=True)
    r_sets = [r_set(c, m, n) for c in chains]
    rows = FA._face_order_rows([FA.r_mask(_member_masks(c), m, n) for c in chains])
    assert rows == _pairwise_rows(r_sets)


@pytest.mark.parametrize("m", range(1, 6))
def test_r_mask_encodes_r_set(m):
    for n in range(1, 7):
        for c in enumerate_chains(m, n, include_empty=True):
            assert _markers(FA.r_mask(_member_masks(c), m, n), m) == r_set(c, m, n), (c, n)


def _comb_equiv_pairwise(m, n1, n2):
    """The face-order check by N^2 subset tests, the reference for the bitmasks."""
    if f_vector(m, n1) != f_vector(m, n2):
        return False
    chains = enumerate_chains(m, n1, include_empty=True)
    if set(chains) != set(enumerate_chains(m, n2, include_empty=True)):
        return False
    r1 = [r_set(c, m, n1) for c in chains]
    r2 = [r_set(c, m, n2) for c in chains]
    return all([b <= a1 for b in r1] == [b <= a2 for b in r2]
               for a1, a2 in zip(r1, r2))


def test_comb_equiv_matches_a_pairwise_reference():
    verdicts = set()
    for m in (1, 2, 3):
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                want = _comb_equiv_pairwise(m, n1, n2)
                assert comb_equiv_check(m, n1, n2) is want, (m, n1, n2)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_face_records_read_dimension_and_count_from_sizes():
    for m in range(1, 6):
        for n in range(1, 6):
            records = list(face_records(m, n))
            assert [c for c, _, _ in records] == enumerate_chains(m, n)
            for c, dim, count in records:
                assert dim == missing_ranks(c), (c, m, n)
                assert count == face_vertex_count(c, m, n), (c, m, n)
