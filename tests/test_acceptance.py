"""Acceptance gate: ten end-to-end criteria, one printed PASS/FAIL line each.

Run `python3 -m pytest tests/test_acceptance.py -s` to watch the lines appear
as the criteria complete (without -s pytest shows them on failure only).

Every numeric comparison below is exact -- integers and Fractions throughout.
The only tolerances are wall-clock budgets on the heavyweight grids, asserted
after the computation finishes.
"""

import math
import time
from fractions import Fraction

from partperm import (
    Polynomial,
    VRep,
    antiblocking_vertices_edges,
    aux1_vertices,
    aux2_vertices,
    aux3_points,
    aux_lemma3,
    comb_equiv_check,
    conj_vmn_fit,
    count_points,
    ehr_closed_small_m,
    ehr_closed_small_n,
    ehr_conjecture,
    ehr_draconian,
    ehr_interpolate,
    ehr_parking,
    ehr_recurrence,
    enumerate_draconian,
    eulerian,
    f_vector,
    face_vertices,
    h_poly,
    hull_convert,
    is_palindromic,
    nvol_closed,
    nvol_draconian,
    nvol_lambda,
    nvol_of_vrep,
    nvol_oracle,
    nvol_poly,
    nvol_recursive,
    nvol_three_term,
    pp_facets,
    pp_vertices,
    verify_antiblocking_identity,
)
from partperm.faces import H_POLY_ENGINES


def _criterion(num, desc, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        print(f"FAIL criterion {num}: {desc} [took {dt:.2f}s, budget {budget:.0f}s]")
        raise AssertionError(
            f"criterion {num} exceeded its time budget: {dt:.2f}s >= {budget:.0f}s"
        )
    print(f"PASS criterion {num}: {desc} [{dt:.2f}s]")


# --------------------------------------------------------------------------
# 1. frozen coefficient tables for the normalized-volume polynomials

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


def test_criterion_01_volume_polynomial_tables():
    def body():
        for m, row in N_FORM_TABLE.items():
            assert list(nvol_poly(m, "n").coeffs) == row, ("n-form", m)
        for m, row in SHIFTED_FORM_TABLE.items():
            assert list(nvol_poly(m, "N").coeffs) == row, ("shifted form", m)

    _criterion(1, "volume polynomial tables reproduce the frozen coefficients",
               10.0, body)


# --------------------------------------------------------------------------
# 2. every volume engine agrees on the acceptance grid

VOLUME_GRID = [(m, n) for m in range(1, 5) for n in range(m - 1, 7)] + [
    (5, 4), (5, 5), (5, 6),
]


def test_criterion_02_volume_engines_agree():
    def body():
        primes = (2, 3, 5, 7, 11, 13)
        for m, n in VOLUME_GRID:
            ref = nvol_oracle(m, n)
            assert nvol_recursive(m, n) == ref, ("recursive", m, n)
            assert nvol_closed(m, n) == (ref, ref, ref), ("closed", m, n)
            assert nvol_three_term(m, n) == ref, ("three_term", m, n)
            assert nvol_draconian(m, n) == ref, ("draconian", m, n)
            assert nvol_lambda(m, n) == ref, ("lambda default", m, n)
            assert nvol_lambda(m, n, lam=primes[: m + 1]) == ref, (
                "lambda primes", m, n)

    _criterion(2, "all volume engines agree across the acceptance grid",
               600.0, body)


# --------------------------------------------------------------------------
# 3. the lattice-point oracle confirms the small-n volume formulas


def test_criterion_03_small_n_formulas_vs_oracle():
    def body():
        for m in range(1, 6):
            assert nvol_oracle(m, 2) == 3 ** m - m, ("n=2", m)
        for m in range(1, 5):
            v3 = 6 ** m - m * 3 ** m - (m - 1) * math.comb(m, 2)
            assert nvol_oracle(m, 3) == v3, ("n=3", m)
            c = Fraction(m * (m - 1) * (m - 3), 6)
            v4 = (10 ** m - m * 6 ** m - c * 3 ** m
                  - (3 * m * m - 6 * m + 1) * math.comb(m, 3))
            assert v4.denominator == 1
            assert nvol_oracle(m, 4) == v4, ("n=4", m)

    _criterion(3, "lattice-point oracle confirms the small-n volume formulas",
               600.0, body)


# --------------------------------------------------------------------------
# 4. Ehrhart engines agree on the acceptance grid

SMALL_M_MIN_N = {1: 1, 2: 1, 3: 2, 4: 3}


def test_criterion_04_ehrhart_engines_agree():
    def body():
        golden = Polynomial([1, Fraction(9, 2), Fraction(15, 2), 4])
        assert ehr_interpolate(3, 2) == golden
        for m in range(1, 5):
            for n in range(m - 1, 7):
                p = ehr_interpolate(m, n)
                assert ehr_draconian(m, n) == p, ("draconian", m, n)
                if n >= SMALL_M_MIN_N[m]:
                    assert ehr_closed_small_m(m, n) == p, ("small_m", m, n)
        for m in range(1, 6):
            for n in range(1, 4):
                assert ehr_closed_small_n(m, n) == ehr_interpolate(m, n), (
                    "small_n", m, n)

    _criterion(4, "Ehrhart engines agree (interpolation, index sum, "
               "small-m and small-n closed forms)", 600.0, body)


# --------------------------------------------------------------------------
# 5. conjectural Ehrhart forms and the v(m,n) coefficient fit


def test_criterion_05_conjectural_forms_consistent():
    def body():
        for m in range(1, 5):
            for n in range(m - 1, 7):
                p = ehr_interpolate(m, n)
                form_a, form_b, agree = ehr_conjecture(m, n)
                assert agree and form_a == p and form_b == p, (
                    "conjecture", m, n)
                assert ehr_recurrence(m, n) == p, ("recurrence", m, n)
        for n in (3, 4):
            report = conj_vmn_fit(n)
            assert report["consistent"] is True, ("fit", n)
            for i, rec in report["polynomials"].items():
                assert rec["matches_stated_degree"] is True, (n, i)
                assert rec["leading_positive"] is True, (n, i)

    _criterion(5, "conjectural Ehrhart forms match interpolation; "
               "coefficient fit reports consistent", 600.0, body)


# --------------------------------------------------------------------------
# 6. face census, simplicity, combinatorial equivalence


def test_criterion_06_face_lattice_checks():
    def body():
        for n in range(2, 7):
            assert f_vector(2, n) == (5, 5, 1), ("pentagon", n)
        assert f_vector(3, 3) == (16, 24, 10, 1)
        c1 = (frozenset({1, 2, 3}), frozenset(range(1, 6)),
              frozenset(range(1, 8)))
        assert len(face_vertices(c1, 10, 6)) == 40
        assert len(face_vertices((frozenset(),) + c1, 10, 6)) == 24
        for m in range(1, 6):
            for n in range(1, 6):
                rows = pp_facets(m, n).rows
                for v in pp_vertices(m, n).points:
                    tight = sum(
                        1 for row, b in rows
                        if sum(a * x for a, x in zip(row, v)) == b)
                    assert tight == m, ("simplicity", m, n, v)
        for m in range(1, 5):
            assert comb_equiv_check(m, m, m + 2) is True, ("equiv", m)

    _criterion(6, "face censuses, simplicity, and combinatorial equivalence",
               600.0, body)


# --------------------------------------------------------------------------
# 7. h-polynomial methods agree; Eulerian identity


def test_criterion_07_h_polynomial_methods():
    def body():
        for m in range(1, 5):
            for n in range(1, 7):
                ref = h_poly(m, n, method="from_f")
                assert is_palindromic(ref, m), ("palindromic", m, n)
                for method, engine in H_POLY_ENGINES.items():
                    if not engine.domain(m, n):
                        continue
                    assert h_poly(m, n, method=method) == ref, (method, m, n)
        t = Polynomial([0, 1])
        for m in range(1, 9):
            lhs = Polynomial([0])
            rhs = Polynomial([1])
            for i in range(0, m + 1):
                lhs = lhs + eulerian(i) * math.comb(m, i) * t ** (m - i)
                if i >= 1:
                    rhs = rhs + t * eulerian(i) * math.comb(m, i)
            assert lhs == rhs, ("eulerian identity", m)

    _criterion(7, "h-polynomial methods agree; palindromicity and the "
               "Eulerian identity hold", 600.0, body)


# --------------------------------------------------------------------------
# 8. index-sequence censuses and the lattice-point identity


def test_criterion_08_index_censuses():
    def body():
        assert enumerate_draconian(2, mode="volume") == [
            (0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert [len(enumerate_draconian(m, mode="ehrhart"))
                for m in (2, 3, 4)] == [8, 51, 455]
        counts = []
        for m in range(1, 5):
            _, cnt = ehr_parking(m)
            assert cnt == count_points(pp_facets(m, m - 1), 1), ("points", m)
            counts.append(cnt)
        assert counts == [1, 3, 17, 144]

    _criterion(8, "index-sequence censuses and the lattice-point identity",
               600.0, body)


# --------------------------------------------------------------------------
# 9. auxiliary polytope volumes and the slice-count identity


def test_criterion_09_auxiliary_polytopes():
    def body():
        for m in (3, 4):
            assert nvol_of_vrep(aux1_vertices(m)) == (
                2 ** m - 3 ** m + m * 3 ** (m - 1)), ("aux1", m)
            assert nvol_of_vrep(aux2_vertices(m)) == (
                3 * m * m - 6 * m + 1), ("aux2", m)
        for n in (4, 5):
            qpts, _ = aux3_points(n)
            hq = hull_convert(VRep(qpts, 4))
            box = tuple(
                (min(p[j] for p in qpts), max(p[j] for p in qpts))
                for j in range(4))
            aa = (1, 1, 0, 0)
            bb = 2 * n - 1
            hf = hq.with_rows([(aa, bb), (tuple(-x for x in aa), -bb)])
            expect = aux_lemma3(n)
            for t in (1, 2):
                got = (count_points(hq, t, box=box)
                       - count_points(hf, t, box=box))
                assert got == expect(t), ("lemma", n, t)

    _criterion(9, "auxiliary polytope volumes and the slice-count identity",
               300.0, body)


# --------------------------------------------------------------------------
# 10. anti-blocking realization


def test_criterion_10_antiblocking():
    def body():
        for m in range(1, 6):
            for n in range(1, 6):
                assert verify_antiblocking_identity(m, n) is True, (m, n)
        v, edges = antiblocking_vertices_edges((1, 1, 0, 0))
        pts = v.points
        target = pts.index((1, 1, 0, 0))
        nbrs = {pts[b] for a, b in edges if a == target} | {
            pts[a] for a, b in edges if b == target}
        assert nbrs == {
            (0, 1, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0),
            (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}

    _criterion(10, "anti-blocking realization identity and the edge rules",
               600.0, body)
