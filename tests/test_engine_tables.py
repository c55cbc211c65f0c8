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

from partperm import EHRHART_ENGINES, H_POLY_ENGINES, VOLUME_ENGINES, Polynomial, h_poly

TABLES = {"volume": VOLUME_ENGINES, "ehrhart": EHRHART_ENGINES,
          "h_poly": H_POLY_ENGINES}


@pytest.mark.parametrize("table,method", [
    (table, method) for table, engines in TABLES.items() for method in engines])
def test_value_raises_exactly_outside_the_domain(table, method):
    engine = TABLES[table][method]
    for m in range(0, 7):
        for n in range(-1, 9):
            if engine.domain(m, n):
                engine.value(m, n)
            else:
                with pytest.raises(ValueError):
                    engine.value(m, n)


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
    import partperm.faces as FA

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
    import partperm.faces as FA

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
