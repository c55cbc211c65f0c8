"""Tests for the engine tables: each method's domain is declared once.

``VOLUME_ENGINES``, ``EHRHART_ENGINES`` and ``H_POLY_ENGINES`` map method
names to (domain, value).  The CLI, ``verify`` and the cross-engine tests
read their domains from these tables, so a table entry must raise
ValueError exactly where its domain predicate is false: raising inside the
domain would break ``--all-methods``, and answering outside it would mean
the engine skips its own validation.
"""

import time
from fractions import Fraction

import pytest

import partperm.combinat as C
import partperm.ehrhart as EH
import partperm.faces as FA
import partperm.volume as VO
from partperm import (EHRHART_ENGINES, H_POLY_ENGINES, VOLUME_ENGINES, Engine, Polynomial,
                      draconian_domain, ehr_conjecture, ehr_parking, ehr_recurrence, h_poly,
                      nvol_poly)

TABLES = {"volume": VOLUME_ENGINES, "ehrhart": EHRHART_ENGINES,
          "h_poly": H_POLY_ENGINES}

# Public routes outside the tables, each with the declaration it reads;
# ehr_parking and nvol_poly take m alone, and cover P(m, m-1).
ROUTES = {
    "ehr_conjecture": Engine(EH.conjecture_domain, ehr_conjecture),
    "ehr_recurrence": Engine(EH.recurrence_domain, ehr_recurrence),
    "ehr_parking": Engine(lambda m, n: draconian_domain(m, m - 1), lambda m, n: ehr_parking(m)),
    "nvol_poly-n": Engine(lambda m, n: VO.poly_n_domain(m, m - 1),
                          lambda m, n: nvol_poly(m, "n")),
    "nvol_poly-N": Engine(lambda m, n: draconian_domain(m, m - 1),
                          lambda m, n: nvol_poly(m, "N")),
}

# The function each route's refusal names, and the declared bounds of its
# domain as (module, constant).
ORACLE = [(C, "ORACLE_MAX_M"), (C, "ORACLE_MAX_N")]
DRACONIAN = [(C, "DRACONIAN_MAX_M")]
REFUSALS = {
    ("volume", "oracle"): ("nvol_oracle", ORACLE),
    ("volume", "recursive"): ("nvol_recursive", [(VO, "NVOL_RECURSIVE_WORK_MAX")]),
    ("volume", "closed"): ("nvol_closed", [(VO, "NVOL_CLOSED_WORK_MAX")]),
    ("volume", "three_term"): ("nvol_three_term", [(VO, "NVOL_THREE_TERM_WORK_MAX")]),
    ("volume", "draconian"): ("nvol_draconian", DRACONIAN),
    ("volume", "lambda"): ("nvol_lambda", [(VO, "LAMBDA_MAX_M")]),
    ("volume", "small_n"): ("nvol_small_n", [(VO, "NVOL_SMALL_N_MAX_M")]),
    ("ehrhart", "interpolate"): ("ehr_interpolate", ORACLE),
    ("ehrhart", "small_n"): ("ehr_closed_small_n", [(EH, "EHR_SMALL_N_MAX_M")]),
    ("ehrhart", "small_m"): ("ehr_closed_small_m", []),
    ("ehrhart", "draconian"): ("ehr_draconian", DRACONIAN),
    ("h_poly", "from_f"): ("h_poly", [(FA, "F_VECTOR_WORK_MAX")]),
    ("h_poly", "closed"): ("h_poly", [(FA, "H_CLOSED_WORK_MAX")]),
    ("h_poly", "stellohedron"): ("h_poly", [(FA, "H_STELLOHEDRON_MAX_M")]),
    ("h_poly", "orientation"): ("h_poly", [(FA, "VERTEX_LIST_MAX")]),
    ("route", "ehr_conjecture"): ("ehr_conjecture", []),
    ("route", "ehr_recurrence"): ("ehr_recurrence", []),
    ("route", "ehr_parking"): ("ehr_parking", DRACONIAN),
    ("route", "nvol_poly-n"): ("nvol_poly", []),
    ("route", "nvol_poly-N"): ("nvol_poly", DRACONIAN),
}


@pytest.mark.parametrize("table,method", list(REFUSALS))
def test_value_raises_exactly_outside_the_domain(monkeypatch, table, method):
    engine = dict(TABLES, route=ROUTES)[table][method]
    for m in range(0, 7):
        for n in range(-1, 9):
            if engine.domain(m, n):
                engine.value(m, n)
    # Every refusal is up front, so the wider grid is only refused.  Where
    # raising the route's declared bounds would admit a shape, a bound is
    # what failed, and the refusal names it.
    name, bounds = REFUSALS[table, method]
    outside = [(m, n) for m in range(-1, 15) for n in range(-2, 17)
               if not engine.domain(m, n)]
    for module, constant in bounds:
        monkeypatch.setattr(module, constant, 10**9)
    past_a_bound = {shape for shape in outside if engine.domain(*shape)}
    monkeypatch.undo()
    assert outside
    for m, n in outside:
        with pytest.raises(ValueError) as info:
            engine.value(m, n)
        assert name in str(info.value), (m, n, str(info.value))
        if (m, n) in past_a_bound:
            assert any(constant in str(info.value) for _, constant in bounds), (
                m, n, str(info.value))


def test_h_poly_refuses_what_the_table_refuses():
    for method, engine in H_POLY_ENGINES.items():
        for m, n in [(0, 1), (1, 0), (3, 2), (2, 3)]:
            if engine.domain(m, n):
                assert h_poly(m, n, method) == engine.value(m, n)
            else:
                with pytest.raises(ValueError):
                    h_poly(m, n, method)
    with pytest.raises(ValueError, match="unknown h_poly method"):
        h_poly(2, 2, "recurrence")


def test_tables_keep_their_method_order():
    # the CLI's default picks and disagreement messages follow this order
    assert list(VOLUME_ENGINES) == ["oracle", "recursive", "closed", "three_term",
                                    "draconian", "lambda", "small_n"]
    assert list(EHRHART_ENGINES) == ["interpolate", "small_n", "small_m", "draconian"]
    assert list(H_POLY_ENGINES) == ["from_f", "closed", "stellohedron", "orientation"]


def test_closed_h_route_declares_its_work_bound(monkeypatch):
    for m in range(1, 40):
        for n in range(1, 45):
            k = min(m, n)
            assert FA.h_closed_work(m, n) == k * k + m
            # at most the earlier dense-product measure, so no shape that
            # measure admitted under the same bound is refused now
            assert FA.h_closed_work(m, n) <= sum(
                (i + 1) * (m - i + 1) for i in range(k))
    closed = H_POLY_ENGINES["closed"]
    top = FA.H_CLOSED_WORK_MAX
    # (511,511) is the largest square shape under the bound, (top-1,1) the
    # longest; (114,114), (87381,2) and (262143,1) were the dense measure's
    # largest shapes
    assert closed.domain(511, 511) and not closed.domain(512, 512)
    assert closed.domain(top - 1, 1) and not closed.domain(top, 1)
    for m, n in [(114, 114), (87381, 2), (262143, 1), (200, 150)]:
        assert closed.domain(m, n)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="H_CLOSED_WORK_MAX"):
        h_poly(600, 600, "closed")
    assert time.perf_counter() - start < 0.1
    # the value refuses exactly where the domain does, with the bound lowered
    monkeypatch.setattr(FA, "H_CLOSED_WORK_MAX", 30)
    refused = 0
    for m in range(0, 7):
        for n in range(-1, 9):
            if closed.domain(m, n):
                assert closed.value(m, n) == h_poly(m, n, "from_f")
            else:
                refused += m >= 1 and n >= 1
                with pytest.raises(ValueError):
                    closed.value(m, n)
    assert refused > 0


def test_closed_h_route_covers_200_150():
    from partperm import is_palindromic, pp_vertex_count

    h = h_poly(200, 150, "closed")
    assert h.degree == 200
    assert sum(h.coeffs) == pp_vertex_count(200, 150)
    assert is_palindromic(h, 200)


def test_stellohedron_h_route_declares_its_bound(monkeypatch):
    stellohedron = H_POLY_ENGINES["stellohedron"]
    top = FA.H_STELLOHEDRON_MAX_M
    assert stellohedron.domain(top, top) and stellohedron.domain(top, top + 7)
    assert not stellohedron.domain(top + 1, top + 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="H_STELLOHEDRON_MAX_M"):
        h_poly(top + 1, top + 1, "stellohedron")
    assert time.perf_counter() - start < 0.1
    # the value refuses exactly where the domain does, with the bound lowered
    monkeypatch.setattr(FA, "H_STELLOHEDRON_MAX_M", 3)
    refused = 0
    for m in range(0, 7):
        for n in range(-1, 9):
            if stellohedron.domain(m, n):
                assert stellohedron.value(m, n) == h_poly(m, n, "from_f")
            else:
                refused += 4 <= m <= n
                with pytest.raises(ValueError):
                    stellohedron.value(m, n)
    assert refused > 0


def test_engine_values_hold_no_float():
    # every value is exact: an int, or a Fraction that is not integral
    # (Polynomial keeps integral coefficients as int)
    for table in TABLES.values():
        for method, engine in table.items():
            for m in range(1, 6):
                for n in range(0, 7):
                    if not engine.domain(m, n):
                        continue
                    value = engine.value(m, n)
                    parts = value.coeffs if isinstance(value, Polynomial) else (value,)
                    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
                               for x in parts), (method, m, n, value)


# Engine, the bound it reads, the edge of its domain (inside, outside), the
# shape it refuses (every refusal is up front), and a bound low enough to
# refuse part of the small grid.
VOLUME_EDGES = [
    ("recursive", "NVOL_RECURSIVE_WORK_MAX", (390, 390), (391, 391), (1000, 1000), 500),
    ("closed", "NVOL_CLOSED_WORK_MAX", (1746, 1746), (1747, 1747), (4000, 4000), 100),
    ("three_term", "NVOL_THREE_TERM_WORK_MAX", (5926, 5926), (5927, 5927), (10000, 10000),
     500),
    ("small_n", "NVOL_SMALL_N_MAX_M", (2**20, 4), (2**20 + 1, 4), (10**9, 4), 3),
]


@pytest.mark.parametrize("method,bound,inside,outside,refused,low", VOLUME_EDGES)
def test_volume_engines_declare_their_work_bounds(monkeypatch, method, bound,
                                                  inside, outside, refused, low):
    engine = VOLUME_ENGINES[method]
    assert engine.domain(*inside) and not engine.domain(*outside)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=bound):
        engine.value(*refused)
    assert time.perf_counter() - start < 1
    # the value refuses exactly where the domain does, with the bound lowered
    if method == "small_n":
        base = lambda m, n: m >= 1 and 0 <= n <= 4
    else:
        base = VO.polynomial_domain
    monkeypatch.setattr(VO, bound, low)
    refused = 0
    for m in range(0, 7):
        for n in range(-1, 9):
            if engine.domain(m, n):
                truth = VOLUME_ENGINES["draconian" if n >= m - 1 else "oracle"]
                assert engine.value(m, n) == truth.value(m, n)
            else:
                refused += base(m, n)
                with pytest.raises(ValueError):
                    engine.value(m, n)
    assert refused > 0


def test_polynomial_volume_work_reads_the_size_of_n():
    # v(m,n) <= (mn)^m, so value_bits bounds its bit length
    for m in range(1, 30):
        for n in (m - 1, m, 2 * m, 10**6):
            assert VO.nvol_three_term(m, n).bit_length() <= VO.value_bits(m, n)
    # a huge n is refused at a small m, not computed for minutes
    for method in ("recursive", "closed", "three_term"):
        assert not VOLUME_ENGINES[method].domain(100, 10**4000)


# What each route outside the tables names when it refuses a large m.
ROUTE_REFUSALS = {"ehr_conjecture": "EHR_CONJECTURE_WORK_MAX",
                  "ehr_recurrence": "EHR_RECURRENCE_WORK_MAX",
                  "ehr_parking": "DRACONIAN_MAX_M", "nvol_poly-n": "limited to m <= 8",
                  "nvol_poly-N": "DRACONIAN_MAX_M"}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_routes_refuse_a_large_m_up_front(route):
    engine = ROUTES[route]
    for m, n in [(10**4, 10**4), (10**4, 10**4000)]:
        assert not engine.domain(m, n)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=ROUTE_REFUSALS[route]):
            engine.value(m, n)
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("route,bound,inside,outside", [
    ("ehr_conjecture", "EHR_CONJECTURE_WORK_MAX", [(232, 232), (24, 10**4299)],
     [(233, 233), (25, 10**4299)]),
    ("ehr_recurrence", "EHR_RECURRENCE_WORK_MAX", [(316, 316), (33, 10**4299)],
     [(317, 317), (34, 10**4299)]),
])
def test_generating_function_routes_declare_their_work_bounds(monkeypatch, route, bound,
                                                              inside, outside):
    engine = ROUTES[route]
    # both routes and the volume recursion read the one measure
    assert EH.quadratic_work is VO.quadratic_work and EH.value_bits is VO.value_bits
    assert all(engine.domain(*shape) for shape in inside)
    assert not any(engine.domain(*shape) for shape in outside)
    # the value refuses exactly where the domain does, with the bound lowered
    monkeypatch.setattr(EH, bound, 100)
    refused = 0
    for m in range(0, 7):
        for n in range(-1, 9):
            if engine.domain(m, n):
                assert engine.value(m, n) == (Polynomial([1]) if m == 0 else
                                              EHRHART_ENGINES["draconian"].value(m, n))
            else:
                refused += n >= max(m - 1, 0) and m >= 1
                with pytest.raises(ValueError):
                    engine.value(m, n)
    assert refused > 0


def test_ehrhart_small_n_declares_its_bound(monkeypatch):
    engine = EHRHART_ENGINES["small_n"]
    top = EH.EHR_SMALL_N_MAX_M
    assert engine.domain(top, 3) and not engine.domain(top + 1, 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="EHR_SMALL_N_MAX_M"):
        engine.value(2000, 2)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(EH, "EHR_SMALL_N_MAX_M", 3)
    for m in range(0, 7):
        for n in range(-1, 9):
            if engine.domain(m, n):
                assert engine.value(m, n) == EHRHART_ENGINES["interpolate"].value(m, n)
            else:
                with pytest.raises(ValueError):
                    engine.value(m, n)
    assert not engine.domain(4, 2) and engine.domain(3, 2)
