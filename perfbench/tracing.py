"""Per-layer counters for a traced round, gathered from outside the program.

``Tracer.install`` replaces each traced public function of ``partperm`` by
a wrapper, in every ``partperm`` module namespace that binds it, so calls
through any import path are seen.  The source is not touched.  A wrapper
keeps a stack of open calls: a function's self time is its wall time minus
the wall time of the traced calls made inside it.

Counters besides ``calls`` and ``self_s``:

* ``count_lattice_points``: ``box_points``, the number of lattice points in
  the boxes passed in, and ``points``, the points counted;
* ``hull_convert``: ``subsets``, C(points or rows, dimension) per call;
* ``enumerate_chains``/``enumerate_draconian``: ``chains``/``sequences``
  returned;
* ``repeat_args``: calls whose arguments this process has seen before,
  which a cache would have answered.
"""

import functools
import inspect
import time
from collections import defaultdict
from math import comb

MODULES = ("polytope", "combinat", "exactmath", "faces", "volume", "ehrhart", "cli")

VOLUME_ENGINES = ("nvol_oracle", "nvol_recursive", "nvol_closed", "nvol_three_term",
                  "nvol_draconian", "nvol_lambda", "nvol_small_n", "nvol_of_vrep",
                  "nvol_poly")
EHRHART_ENGINES = ("ehr_interpolate", "ehr_closed_small_n", "ehr_closed_small_m",
                   "ehr_draconian", "ehr_conjecture", "ehr_recurrence")


def _box_points(args, kwargs, result, stats):
    lows, highs = args[2], args[3]
    size = 1
    for lo, hi in zip(lows, highs):
        size *= max(hi - lo + 1, 0)
    stats["box_points"] += size
    stats["points"] += result


def _subsets(args, kwargs, result, stats):
    rep = args[0]
    items = rep.points if hasattr(rep, "points") else rep.rows
    stats["subsets"] += comb(len(items), rep.dim)


def _returned(counter):
    def hook(args, kwargs, result, stats):
        stats[counter] += len(result)
    return hook


# (module, function, hook, watch repeated arguments)
TRACED = [
    ("polytope", "count_lattice_points", _box_points, False),
    ("polytope", "count_points", None, False),
    ("polytope", "hull_convert", _subsets, False),
    ("polytope", "bounding_box", None, False),
    ("polytope", "cut", None, False),
    ("polytope", "pp_vertices", None, True),
    ("combinat", "enumerate_chains", _returned("chains"), False),
    ("combinat", "enumerate_draconian", _returned("sequences"), True),
    ("exactmath", "binomial_poly", None, False),
    ("exactmath", "interpolate", None, False),
    ("exactmath", "solve_linear", None, False),
    ("exactmath", "int_det", None, False),
    ("faces", "f_vector", None, False),
    ("faces", "h_poly", None, False),
    ("faces", "face_from_chain", None, False),
    ("faces", "face_vertices", None, False),
    ("cli", "main", None, False),
] + [("volume", name, None, False) for name in VOLUME_ENGINES] + [
    ("ehrhart", name, None, name == "ehr_interpolate") for name in EHRHART_ENGINES]

# Polynomial operators, each traced under one name.
POLYNOMIAL_METHODS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__", "__radd__")}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(int))  # name -> counter -> total
        self._open = []  # wall time of traced children, one entry per open call

    def wrap(self, name, fn, hook=None, watch_args=False):
        stats = self.stats[name]
        seen = set()
        open_calls = self._open
        signature = inspect.signature(fn) if watch_args else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if watch_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = repr(sorted(bound.arguments.items()))
                if key in seen:
                    stats["repeat_args"] += 1
                seen.add(key)
            open_calls.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = open_calls.pop()
                if open_calls:
                    open_calls[-1] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - children
            if hook is not None:
                hook(args, kwargs, result, stats)
            return result

        return traced

    def install(self, package):
        import importlib

        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{mod}")
                                  for mod in MODULES]
        for mod, attr, hook, watch in TRACED:
            original = getattr(namespaces[MODULES.index(mod) + 1], attr)
            wrapper = self.wrap(f"{mod}.{attr}", original, hook, watch)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
        poly = namespaces[MODULES.index("exactmath") + 1].Polynomial
        for short, dunders in POLYNOMIAL_METHODS.items():
            wrapper = self.wrap(f"exactmath.Polynomial.{short}", getattr(poly, dunders[0]))
            for dunder in dunders:
                setattr(poly, dunder, wrapper)

    def metrics(self):
        """Flat "module.function.counter" -> total mapping."""
        return {f"{name}.{key}": value
                for name, counters in self.stats.items() for key, value in counters.items()}
