"""Tests for the engine tables: each method's domain is declared once.

``VOLUME_ENGINES``, ``EHRHART_ENGINES`` and ``H_POLY_ENGINES`` map method
names to (domain, value).  The CLI, ``verify`` and the cross-engine tests
read their domains from these tables, so a table entry must raise
ValueError exactly where its domain predicate is false: raising inside the
domain would break ``--all-methods``, and answering outside it would mean
the engine skips its own validation.
"""

import pytest

from partperm import EHRHART_ENGINES, H_POLY_ENGINES, VOLUME_ENGINES, h_poly

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
