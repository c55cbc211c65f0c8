"""The benchmark harness in ``perfbench/`` reaches into ``partperm`` by name.

``perfbench/tracing.py`` wraps the functions listed in ``TRACED`` through
``getattr``, and ``perfbench/worker.py`` reads package attributes such as
``P.hull_convert`` and ``P.KERNEL_NAME``.  A rename or deletion in the
package would crash every benchmark round, so each of those names must
resolve.  The harness files are read, never modified.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import partperm

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("mod,attr", [(mod, attr) for mod, attr, _, _ in tracing.TRACED])
def test_traced_function_resolves(mod, attr):
    assert mod in tracing.MODULES
    assert callable(getattr(importlib.import_module(f"partperm.{mod}"), attr))


def test_traced_polynomial_methods_resolve():
    poly = importlib.import_module("partperm.exactmath").Polynomial
    for dunders in tracing.POLYNOMIAL_METHODS.values():
        for dunder in dunders:
            assert callable(getattr(poly, dunder))


def _guarded_imports(tree):
    """Import nodes inside a ``try`` that catches ImportError: optional."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            isinstance(h.type, ast.Name) and h.type.id == "ImportError" for h in node.handlers
        ):
            guarded.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return guarded


def _worker_names():
    """Dotted names the worker reads from partperm, e.g. ``cli.main``."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    guarded = _guarded_imports(tree)
    roots = {}  # local name -> dotted path inside partperm ("" is the package)
    names = set()
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "partperm":
                    rest = alias.name.partition(".")[2]
                    if alias.asname:
                        roots[alias.asname] = rest
                    else:
                        roots["partperm"] = ""
                        if rest:
                            names.add(rest)
        elif isinstance(node, ast.ImportFrom) and node.module == "partperm":
            for alias in node.names:
                roots[alias.asname or alias.name] = alias.name
                names.add(alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in guarded:
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            prefix = [roots[node.id]] if roots[node.id] else []
            names.add(".".join(prefix + chain[::-1]))
    return sorted(names)


def test_worker_reads_the_kernel_and_the_public_api():
    names = _worker_names()
    assert "KERNEL_NAME" in names
    assert "_counting_py.count_lattice_points" in names
    assert "hull_convert" in names


@pytest.mark.parametrize("name", _worker_names())
def test_worker_name_resolves(name):
    value = partperm
    for part in name.split("."):
        try:
            value = getattr(value, part)
        except AttributeError:
            value = importlib.import_module(f"{value.__name__}.{part}")
    assert value is not None
