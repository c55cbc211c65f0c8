"""The package's public names, its record classes and its import path.

A name left in ``__all__`` after its object was deleted breaks
``from partperm import *`` with an AttributeError.  The records are
``NamedTuple`` classes, so importing the package loads no ``dataclasses``
and, through it, no ``inspect``/``ast`` chain.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import partperm
from partperm import FaceSystem, HRep, VRep, hull_convert

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    missing = [name for name in partperm.__all__ if not hasattr(partperm, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from partperm import *", namespace)
    assert set(partperm.__all__) <= set(namespace)


def test_orientation_statistics_are_not_exported():
    # vertex_stats is the tests' reference for the orientation h-route
    assert not {"VertexStats", "vertex_stats"} & set(partperm.__all__)
    assert not hasattr(partperm, "vertex_stats")


def test_import_loads_no_dataclasses_or_inspect():
    # -S keeps site packages out, so an installed environment checks the same
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import partperm, partperm.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_records_keep_their_semantics():
    h = HRep((((1, 0), 1),), 2)
    v = VRep(((0, 0), (0, 1), (1, 0)), 2)
    f = FaceSystem((frozenset({1}),), 1, (((1, 0), 1),), ())
    assert repr(h) == "HRep(rows=(((1, 0), 1),), dim=2)"
    assert repr(v) == "VRep(points=((0, 0), (0, 1), (1, 0)), dim=2)"
    assert repr(f) == ("FaceSystem(chain=(frozenset({1}),), dimension=1, "
                       "case_rows=(((1, 0), 1),), compact_rows=())")
    for record, field in [(h, "rows"), (h, "dim"), (v, "points"), (f, "chain"),
                          (f, "dimension"), (h, "extra")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record, same in [(h, HRep((((1, 0), 1),), 2)),
                         (v, VRep(((0, 0), (0, 1), (1, 0)), 2)),
                         (f, FaceSystem((frozenset({1}),), 1, (((1, 0), 1),), ()))]:
        assert record == same and hash(record) == hash(same)
    assert h.dilate(3) == HRep((((1, 0), 3),), 2)
    assert h.with_rows([((0, 1), 2)]) == HRep((((1, 0), 1), ((0, 1), 2)), 2)
    assert hull_convert(v) == HRep((((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)), 2)
    assert hull_convert(hull_convert(v)) == v
    with pytest.raises(TypeError):
        hull_convert(((), 2))
