"""Command-line interface: exact invariants of partial permutohedra.

Subcommands: vertices, facets, faces, fvector, hpoly, volume, ehrhart,
verify, table, each declared once with its flags in ``COMMANDS``, which a
small parse loop reads (nothing is built per call or per process).
Output is deterministic JSON by default (sorted keys, compact
separators); --format csv/tex give flat rows and TeX tabulars where a
subcommand writes them; --all-methods and --eval write JSON only.
All numbers are exact: integers or 'p/q' strings, never floats.
volume, ehrhart and hpoly share one engine path, ``_engine_value``: the
covering methods of the engine table, run and compared under
--all-methods, else --method or the command's default.  The verify
suites are declared once, in ``SUITES``, which the --suite choices read.

Exit codes: 0 success; 1 usage error (bad arguments or unsupported
parameter ranges), or standard output closed early by its reader (quietly,
as in ``partperm faces ... | head``); 2 a verification suite found a
counterexample; 3 two internal engines disagreed (EngineDisagreement).
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import ehrhart as EH
from . import faces as FA
from . import volume as VO
from .combinat import (
    Engine,
    draconian_census,
    draconian_shape_tally,
    enumerate_chains,
    oracle_domain,
)
from .exactmath import EngineDisagreement, Polynomial, check_bound
from .polytope import (
    KERNEL_NAME,
    VRep,
    count_points,
    hull_convert,
    pp_box,
    pp_count,
    pp_facets,
    pp_vertices,
    vertex_box,
    antiblocking_vertices_edges,
    verify_antiblocking_identity,
)


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


# A command's output may hold integers of up to this many digits; the
# interpreter's default limit is 4,300.  Writing one such integer as text
# takes about 0.36 s (2-core VM, Python 3.11): the conversion is quadratic.
OUTPUT_DIGITS_MAX = 2**17


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump(obj) -> str:
    return _ENCODER.encode(obj)


def _methods(table: Dict[str, Engine], m: int, n: int) -> List[str]:
    """The methods of an engine table that cover (m,n), in table order."""
    return [name for name, engine in table.items() if engine.domain(m, n)]


def _values(table: Dict[str, Engine], m: int, n: int, value=None) -> dict:
    """Every covering method of an engine table -> its value at (m,n):
    ``value(m, n, method)``, by default the table's value."""
    run = value or (lambda m, n, method: table[method].value(m, n))
    return {method: run(m, n, method) for method in _methods(table, m, n)}


def _agree(values: dict) -> bool:
    """Do all the routes in ``values`` (name -> value) give one value?"""
    return len(set(values.values())) <= 1


def _engine_value(args, table: Dict[str, Engine], nouns: Tuple[str, str], key: str,
                  value=None, pick=None, fields=lambda first: {},
                  check=lambda: None) -> Optional[Tuple[str, Any]]:
    """The engine path of volume, ehrhart and hpoly, written once.

    The methods of ``table`` that cover (m,n), or a usage error naming the
    invariant (nouns[0]); then ``check()``, before any engine runs.  Under
    --all-methods, each method's ``value(m, n, method)`` (see ``_values``),
    written as JSON under ``key`` with ``fields(the first method's value)``
    and compared: a disagreement names nouns[1] and every method with its
    value.  None is returned.  Otherwise (method, value) of --method, or of
    ``pick(methods)`` (by default the first), for the command to write.
    """
    m, n = args.m, args.n
    methods = _methods(table, m, n)
    if not methods:
        raise UsageError(f"no exact {nouns[0]} engine covers (m,n)=({m},{n})")
    check()
    if args.all_methods:
        values = _values(table, m, n, value)
        agree = _agree(values)
        print(_dump({"m": m, "n": n, "agree": agree, **fields(values[methods[0]]),
                     key: {k: v.to_strings() if isinstance(v, Polynomial) else v
                           for k, v in values.items()}}))
        if not agree:
            pairs = "; ".join(f"{k} -> {v.render() if isinstance(v, Polynomial) else v}"
                              for k, v in values.items())
            raise EngineDisagreement(f"{nouns[1]} disagree at (m,n)=({m},{n}): {pairs}")
        return None
    method = args.method or (pick(methods) if pick else methods[0])
    if method not in methods:
        raise UsageError(f"method {method!r} not applicable at (m,n)=({m},{n}); "
                         f"applicable: {', '.join(methods)}")
    return method, _values({method: table[method]}, m, n, value)[method]


def _write_poly(args, symbol: str, method: str, p: Polynomial, fields: dict) -> int:
    """Write one method's polynomial: its coefficients (csv), a TeX formula
    for ``symbol``, or JSON with ``fields``."""
    if args.format == "csv":
        print(",".join(p.to_strings()))
    elif args.format == "tex":
        print(f"${symbol}_{{P({args.m},{args.n})}}(t) = {p.render()}$")
    else:
        print(_dump({"m": args.m, "n": args.n, "method": method,
                     "coefficients": p.to_strings(), "rendered": p.render(), **fields}))
    return 0


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_vertices(args) -> int:
    v = pp_vertices(args.m, args.n)
    if args.format == "json":
        print(_dump({"m": args.m, "n": args.n, "count": len(v.points),
                     "vertices": [list(p) for p in v.points]}))
    elif args.format == "csv":
        for p in v.points:
            print(",".join(str(x) for x in p))
    else:
        print(r"\begin{tabular}{" + "r" * args.m + "}")
        for p in v.points:
            print(" & ".join(str(x) for x in p) + r" \\")
        print(r"\end{tabular}")
    return 0


def _cmd_facets(args) -> int:
    h = pp_facets(args.m, args.n)
    if args.format == "json":
        print(_dump({"m": args.m, "n": args.n, "count": len(h.rows),
                     "rows": [{"coeffs": list(a), "rhs": b} for a, b in h.rows]}))
    elif args.format == "csv":
        for a, b in h.rows:
            print(",".join(str(x) for x in a) + "," + str(b))
    else:
        print(r"\begin{align*}")
        for a, b in h.rows:
            terms = []
            for i, c in enumerate(a, start=1):
                if c == 1:
                    terms.append(f"x_{{{i}}}")
                elif c == -1:
                    terms.append(f"-x_{{{i}}}")
                elif c:
                    terms.append(f"{c}x_{{{i}}}")
            print("  " + " + ".join(terms).replace("+ -", "- ") + rf" &\le {b} \\")
        print(r"\end{align*}")
    return 0


def _cmd_faces(args) -> int:
    # Each member's text is built once and shared by every chain holding it;
    # the JSON record is written in _dump's key order and separators.
    csv = args.format == "csv"
    text: Dict[frozenset, str] = {}
    for c, dim, count in FA.face_records(args.m, args.n):
        for a in c:
            if a not in text:
                elems = sorted(a)
                text[a] = "{" + " ".join(map(str, elems)) + "}" if csv else _dump(elems)
        if csv:
            print(f"{dim},{count},{'<'.join([text[a] for a in c])}")
        else:
            print(f'{{"chain":[{",".join([text[a] for a in c])}],'
                  f'"dimension":{dim},"vertex_count":{count}}}')
    return 0


def _cmd_fvector(args) -> int:
    fv = FA.f_vector(args.m, args.n)
    euler = sum((-1) ** i * f for i, f in enumerate(fv))
    out = {"m": args.m, "n": args.n, "f_vector": list(fv), "euler": euler}
    if args.format == "json":
        print(_dump(out))
    elif args.format == "csv":
        print(",".join(map(str, fv)))
    else:
        print("(" + ", ".join(map(str, fv)) + ")")
    return 0


def _cmd_hpoly(args) -> int:
    palindromic = lambda p: {"palindromic": FA.is_palindromic(p, args.m)}
    picked = _engine_value(args, FA.H_POLY_ENGINES, ("h-polynomial", "h-polynomial methods"),
                           "results", value=FA.h_poly, fields=palindromic)
    if picked is None:
        return 0
    method, p = picked
    return _write_poly(args, "h", method, p, {**palindromic(p), "h_at_1": int(sum(p.coeffs))})


def _cmd_volume(args) -> int:
    picked = _engine_value(args, VO.VOLUME_ENGINES, ("volume", "volume engines"), "values",
                           pick=lambda methods: "closed" if "closed" in methods else methods[-1])
    if picked is None:
        return 0
    method, value = picked
    if args.format == "csv":
        print(f"{args.m},{args.n},{value}")
    else:
        print(_dump({"m": args.m, "n": args.n, "method": method, "value": value}))
    return 0


def _eval_exceeds(m: int, n: int, t: int, digits: int) -> bool:
    """Must ehr_{P(m,n)}(t) have more than ``digits`` digits?

    For n >= 1, P(m,n) contains the simplex P(m,1), interior included, so
    ehr(t) >= C(t+m, m) for t >= 0 and, by reciprocity, |ehr(t)| >=
    C(-t-1, m) for t < 0.  C(N, m) >= (N/m)^m >= 2^b with b = m (bit length
    of N // m, minus 1), and 2^b > 10^digits once b * 0.30102999 >= digits,
    as 0.30102999 < log10(2).  A True is a proof; a False proves nothing.
    """
    if n < 1:
        return False  # P(m,0) is a point: ehr(t) = 1
    big = t + m if t >= 0 else -t - 1
    bits = m * ((big // m).bit_length() - 1)
    return bits * 30102999 >= digits * 10**8


def _refuse_eval(args) -> None:
    """Refuse an --eval whose value must pass OUTPUT_DIGITS_MAX digits."""
    if args.eval is not None and _eval_exceeds(args.m, args.n, args.eval, OUTPUT_DIGITS_MAX):
        raise UsageError(
            f"the value at --eval has more than OUTPUT_DIGITS_MAX = {OUTPUT_DIGITS_MAX} "
            f"digits: P({args.m},{args.n}) contains the simplex P({args.m},1), "
            f"so |ehr(t)| >= |C(t+m,m)|")


def _cmd_ehrhart(args) -> int:
    at_t = lambda p: {} if args.eval is None else {"value_at_t": str(p(args.eval))}
    picked = _engine_value(args, EH.EHRHART_ENGINES, ("Ehrhart", "Ehrhart engines"), "results",
                           fields=at_t, check=lambda: _refuse_eval(args))
    if picked is None:
        return 0
    method, p = picked
    return _write_poly(args, r"\mathrm{ehr}", method, p, at_t(p))


def _cmd_table(args) -> int:
    var = args.which[-1]  # volume-n or volume-N: v(m,n) in n, or in N = n-m+1
    max_m = (7 if var == "n" else 6) if args.max_m is None else args.max_m
    rows = [(m, VO.nvol_poly(m, var)) for m in range(1, max_m + 1)]
    if args.format == "json":
        print(_dump({
            "table": f"normalized volume of P(m,n) as a polynomial in {var}"
                     + (" where N = n-m+1" if var == "N" else ""),
            "rows": [{"m": m, "coefficients": p.to_strings(),
                      "rendered": p.render(var)} for m, p in rows],
        }))
    elif args.format == "csv":
        for m, p in rows:
            print(f"{m}," + ",".join(p.to_strings()))
    else:
        print(r"\begin{tabular}{rl}")
        print(rf"$m$ & $v(m,n)$ as a polynomial in ${var}$ \\ \hline")
        for m, p in rows:
            print(rf"{m} & ${p.render(var)}$ \\")
        print(r"\end{tabular}")
    return 0


# ---------------------------------------------------------------------------
# Verification suites.


def _check(name: str, params: dict, ok: bool, detail: Optional[str] = None) -> dict:
    rec = {"check": name, "params": params, "status": "pass" if ok else "fail"}
    if detail and not ok:
        rec["detail"] = detail
    return rec


# The two generating-function routes that verify --suite engines adds to
# the Ehrhart table, each in its own domain.
_SERIES: Dict[str, Engine] = {
    "conjecture": Engine(EH.conjecture_domain, lambda m, n: EH.ehr_conjecture(m, n)),
    "recurrence": Engine(EH.recurrence_domain, lambda m, n: EH.ehr_recurrence(m, n)),
}


# verify --suite engines checks at most this many shapes, max_m*(max_n+1).
# Measured (2-core VM, Python 3.11.7): grids of about 1,000 shapes take
# 0.4-1.8 s when long in one flag, (2,500), (1000,0) and (5,200), and up to
# 4 s when square, (30,30) and (12,80); (12,14) takes 1.3 s.
VERIFY_GRID_MAX = 2**10


def _suite_engines(max_m: int, max_n: int) -> Iterator[dict]:
    check_bound(f"verify --suite engines --max-m {max_m} --max-n {max_n}", "shapes",
                max_m * (max_n + 1), "VERIFY_GRID_MAX", VERIFY_GRID_MAX)
    grid = [(m, n) for m in range(1, max_m + 1) for n in range(max_n + 1)]
    # Each shape's routes are counted before any runs, so an engine that
    # would be a shape's only route is never run.
    for m, n in grid:
        methods = _methods(VO.VOLUME_ENGINES, m, n)
        if len(methods) + ("lambda" in methods) < 2:  # lambda also runs as lambda-primes
            continue
        vals = _values(VO.VOLUME_ENGINES, m, n)
        if "lambda" in vals:  # the lambda sum again, at other parameters
            primes = (2, 3, 5, 7, 11, 13)[: m + 1]
            vals["lambda-primes"] = VO.nvol_lambda(m, n, primes)
        yield _check("volume-engines-agree", {"m": m, "n": n}, _agree(vals), repr(vals))
    for m, n in grid:
        if len(_methods(EH.EHRHART_ENGINES, m, n)) + len(_methods(_SERIES, m, n)) < 2:
            continue
        polys = {**_values(EH.EHRHART_ENGINES, m, n), **_values(_SERIES, m, n)}
        yield _check("ehrhart-engines-agree", {"m": m, "n": n}, _agree(polys),
                     repr({k: v.to_strings() for k, v in polys.items()}))
    modes = ("volume", "ehrhart")
    for m, mode in [(m, mode) for m in range(1, max_m + 1) for mode in modes]:
        try:
            tally = draconian_shape_tally(m, mode)
        except ValueError:  # above enumerate_draconian's DRACONIAN_LIST_MAX
            break
        census = draconian_census(m, mode)
        yield _check("draconian-census-matches-enumeration",
                     {"m": m, "mode": mode}, census == tally,
                     repr({"census": sorted(census.items()),
                           "enumeration": sorted(tally.items())}))
    for m, n in [(m, n) for m, n in grid if oracle_domain(m, n)]:
        h, box = pp_facets(m, n), pp_box(m, n)
        counts = {t: (pp_count(m, n, t), count_points(h, t, box=box))
                  for t in (1, 2)}
        interior = {t: (pp_count(m, n, t, True),
                        count_points(h, t, box=box, interior=True))
                    for t in (1, 2)}
        ok = all(a == b for a, b in (*counts.values(), *interior.values()))
        yield _check("pp-count-matches-generic", {"m": m, "n": n}, ok,
                     repr({"closed": counts, "interior": interior}))


def _suite_faces(max_m: int, max_n: int) -> Iterator[dict]:
    yield _check("f-vector-pentagon", {"m": 2, "n": 2},
                 FA.f_vector(2, 2) == (5, 5, 1))
    yield _check("f-vector-3-3", {"m": 3, "n": 3},
                 FA.f_vector(3, 3) == (16, 24, 10, 1))
    for m in range(1, min(max_m, 4) + 1):
        for n in range(1, max_n + 1):
            census = FA.f_vector(m, n)
            ranks = Counter(FA.missing_ranks(c) for c in enumerate_chains(m, n))
            tally = tuple(ranks[d] for d in range(m + 1))
            yield _check("f-vector-census-matches-enumeration", {"m": m, "n": n},
                         census == tally, repr({"census": census, "enumeration": tally}))
    c1 = ({1, 2, 3}, {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 6, 7})
    c2 = (frozenset(),) + c1
    yield _check("face-vertices-census-40", {"m": 10, "n": 6},
                 len(FA.face_vertices(c1, 10, 6)) == 40)
    yield _check("face-vertices-census-24", {"m": 10, "n": 6},
                 len(FA.face_vertices(c2, 10, 6)) == 24)
    for m in range(1, min(max_m, 4) + 1):
        for n in range(1, min(max_n, 4) + 1):
            h = pp_facets(m, n)
            ok = True
            for v in pp_vertices(m, n).points:
                tight = sum(
                    1 for a, b in h.rows
                    if sum(c * x for c, x in zip(a, v)) == b
                )
                if tight != m:
                    ok = False
                    break
            yield _check("simplicity", {"m": m, "n": n}, ok)
    for m in range(1, min(max_m, 4) + 1):
        yield _check("comb-equivalence-stable", {"m": m},
                     FA.comb_equiv_check(m, m, m + 2))
    yield _check("comb-equivalence-distinguishes", {"m": 2},
                 not FA.comb_equiv_check(2, 1, 2))
    for m in range(1, min(max_m, 4) + 1):
        for n in range(1, max_n + 1):
            polys = _values(FA.H_POLY_ENGINES, m, n, FA.h_poly)
            first = next(iter(polys.values()))
            ok = _agree(polys) and FA.is_palindromic(first, m)
            ok = ok and sum(first.coeffs) == len(pp_vertices(m, n).points)
            yield _check("h-poly-methods-agree", {"m": m, "n": n}, ok,
                         repr({k: v.to_strings() for k, v in polys.items()}))
    for m in range(1, min(max_m, 3) + 1):
        for n in range(1, min(max_n, 3) + 1):
            ok = True
            try:
                for c in enumerate_chains(m, n):
                    FA.face_from_chain(c, m, n)
            except EngineDisagreement:
                ok = False
            yield _check("face-forms-equivalent", {"m": m, "n": n}, ok)
    for m in range(1, min(max_m, 3) + 1):  # each check runs a hull conversion
        for n in range(1, min(max_n, 5) + 1):
            yield _check("antiblocking-vertex-identity", {"m": m, "n": n},
                         verify_antiblocking_identity(m, n))
    av, edges = antiblocking_vertices_edges((1, 1, 0, 0))
    idx = {p: i for i, p in enumerate(av.points)}
    u = idx[(1, 1, 0, 0)]
    nbrs = {a ^ b ^ u for a, b in edges if u in (a, b)}
    expected = {idx[p] for p in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0),
                                 (0, 1, 0, 1), (1, 0, 1, 0), (1, 0, 0, 1)]}
    yield _check("antiblocking-6-neighbours", {"z": [1, 1, 0, 0]}, nbrs == expected)


def _suite_conjectures(max_m: int, max_n: int) -> Iterator[dict]:
    for n in (3, 4):
        rep = VO.conj_vmn_fit(n)
        ok = rep["consistent"] and all(
            info["matches_stated_degree"] and info["leading_positive"]
            for info in rep["polynomials"].values()
        )
        yield _check("volume-expansion-fit", {"n": n}, ok, repr(rep))


def _suite_appendix(max_m: int, max_n: int) -> Iterator[dict]:
    for m in (3, 4):
        v = VO.aux1_vertices(m)
        yield _check("aux1-volume", {"m": m},
                     VO.nvol_of_vrep(v) == VO.aux1_nvol(m))
        v2 = VO.aux2_vertices(m)
        yield _check("aux2-volume", {"m": m},
                     VO.nvol_of_vrep(v2) == VO.aux2_nvol(m))
    for n in (4, 5):
        qpts, fpts = EH.aux3_points(n)
        hq = hull_convert(VRep(qpts, 4))
        box = vertex_box(qpts)
        aa = (1, 1, 0, 0)
        bb = 2 * n - 1
        hf = hq.with_rows([(aa, bb), (tuple(-x for x in aa), -bb)])
        expect = EH.aux_lemma3(n)
        ok = True
        for t in (1, 2):
            got = count_points(hq, t, box=box) - count_points(hf, t, box=box)
            if got != expect(t):
                ok = False
        yield _check("aux3-count-difference", {"n": n}, ok)


# Suite name -> the generator of its check records, in the order --suite all
# runs them; the --suite flag's choices are these names and "all".
SUITES: Dict[str, Callable[[int, int], Iterator[dict]]] = {
    "engines": _suite_engines, "faces": _suite_faces,
    "conjectures": _suite_conjectures, "appendix": _suite_appendix,
}


def verify_suite(name: str, max_m: int = 4, max_n: int = 6) -> Iterator[dict]:
    """Yield check records for one named verification suite, or all of them."""
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}")
    for suite in SUITES.values() if name == "all" else (SUITES[name],):
        yield from suite(max_m, max_n)


def _cmd_verify(args) -> int:
    count = 0
    for rec in verify_suite(args.suite, args.max_m, args.max_n):
        print(_dump(rec))
        count += 1
        if rec["status"] == "fail":
            print(_dump({"summary": "FAIL", "checks_run": count,
                         "counterexample": rec["params"]}))
            raise VerificationFailure(rec["check"])
    print(_dump({"summary": "PASS", "checks_run": count, "kernel": KERNEL_NAME}))
    return 0


# ---------------------------------------------------------------------------
# The command table and its parse loop.


class Flag(NamedTuple):
    """One flag of a command.  ``kind`` is what it takes: an int, the least
    integer it accepts; ``int``, any integer; a tuple or an engine table,
    the names it accepts; ``bool``, no value (a switch, True when given)."""

    kind: Any
    help: str
    required: bool = False
    default: Any = None


class Command(NamedTuple):
    help: str
    run: Callable[[Any], int]
    flags: Dict[str, Flag]


def _mn_flags(n_min: int = 0, formats=("json", "csv", "tex")) -> Dict[str, Flag]:
    return {
        "--m": Flag(1, "dimension m >= 1", required=True),
        "--n": Flag(n_min, f"value bound n >= {n_min}", required=True),
        "--format": Flag(formats, "output format", default="json"),
    }


def _method_flags(table: Dict[str, Engine]) -> Dict[str, Flag]:
    return {
        "--method": Flag(table, "the engine to run (default: chosen by (m,n))"),
        "--all-methods": Flag(bool, "run every covering engine and compare (JSON only)",
                              default=False),
    }


# Command name -> Command, in the order the help lists them.  The --method
# names are read from the engine tables whenever a flag is checked.
COMMANDS: Dict[str, Command] = {
    "vertices": Command("vertex list of P(m,n)", _cmd_vertices, _mn_flags()),
    "facets": Command("facet inequalities of P(m,n)", _cmd_facets, _mn_flags()),
    "faces": Command("all faces as chain records (JSON lines)", _cmd_faces,
                     _mn_flags(1, ("json", "csv"))),
    "fvector": Command("f-vector of P(m,n)", _cmd_fvector, _mn_flags(1)),
    "hpoly": Command("h-polynomial of P(m,n)", _cmd_hpoly,
                     {**_mn_flags(1), **_method_flags(FA.H_POLY_ENGINES)}),
    "volume": Command("normalized volume of P(m,n)", _cmd_volume,
                      {**_mn_flags(0, ("json", "csv")), **_method_flags(VO.VOLUME_ENGINES)}),
    "ehrhart": Command("Ehrhart polynomial of P(m,n)", _cmd_ehrhart, {
        **_mn_flags(), **_method_flags(EH.EHRHART_ENGINES),
        "--eval": Flag(int, "also evaluate at t = EVAL (JSON only)"),
    }),
    "verify": Command("run a cross-validation suite", _cmd_verify, {
        "--suite": Flag((*SUITES, "all"), "the suite to run", default="all"),
        "--max-m": Flag(1, "largest m of the suite's grids", default=4),
        "--max-n": Flag(0, "largest n of the suite's grids", default=6),
    }),
    "table": Command("volume polynomial tables", _cmd_table, {
        "--which": Flag(("volume-n", "volume-N"),
                        "v(m,n) as a polynomial in n, or in N = n-m+1", required=True),
        "--max-m": Flag(1, "largest m (default: 7 for volume-n, 6 for volume-N)"),
        "--format": Flag(("json", "csv", "tex"), "output format", default="json"),
    }),
}

_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _flag_of(token: str, names: Sequence[str]) -> Optional[Tuple[Optional[str], Optional[str]]]:
    """Read one token against a command's flag names, as argparse does.

    None for a value (a word, '-', a negative number); (flag, text) for a
    flag given in full or by a unique prefix, text what follows '=' or None;
    (None, None) for an unknown flag.
    """
    if token in names:
        return token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    head, eq, text = token.partition("=")
    if eq and head in names:
        return head, text
    if token[1] != "-":
        if token[1] == "h":  # the one short flag; text may follow it, as in -h5
            return "-h", token[2:]
    else:
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], text if eq else None
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _value(flag: str, kind: Any, text: str):
    """The value a flag's text gives, or a usage error naming the flag."""
    if kind is int or isinstance(kind, int):
        try:
            value = int(text)
        except ValueError:
            problem = (f"invalid int value: {text!r}" if kind is int
                       else f"expected an integer, got {text!r}")
            raise UsageError(f"argument {flag}: {problem}") from None
        if kind is not int and value < kind:
            raise UsageError(f"argument {flag}: must be >= {kind}, got {value}")
        return value
    if text not in kind:
        raise UsageError(f"argument {flag}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    return text


def _columns(rows) -> List[str]:
    """Help rows: each name, then its text from column 24."""
    lines = []
    for name, text in rows:
        if len(name) < 20:
            lines.append(f"  {name:<22}{text}")
        else:
            lines += [f"  {name}", " " * 24 + text]
    return lines


def _top_help() -> str:
    return "\n".join([
        "usage: partperm [-h] COMMAND [FLAGS]", "",
        "Exact invariants of partial permutohedra P(m,n).", "", "commands:",
        *_columns((name, command.help) for name, command in COMMANDS.items()), "",
        "'partperm COMMAND -h' lists the flags of a command.",
    ])


def _command_help(name: str, command: Command) -> str:
    usage, rows = [f"usage: partperm {name} [-h]"], [("-h, --help", "show this help and exit")]
    for flag, spec in command.flags.items():
        if spec.kind is not bool:
            is_int = spec.kind is int or isinstance(spec.kind, int)
            flag += " " + (flag[2:].upper().replace("-", "_") if is_int
                           else "{" + ",".join(spec.kind) + "}")
        usage.append(flag if spec.required else f"[{flag}]")
        note = (" (required)" if spec.required else
                f" (default: {spec.default})" if spec.default not in (None, False) else "")
        rows.append((flag, spec.help + note))
    lines = [usage[0]]  # the usage wrapped at 79 columns, under its first flag
    for part in usage[1:]:
        if len(lines[-1]) + len(part) >= 79:
            lines.append(" " * len(f"usage: partperm {name}"))
        lines[-1] += " " + part
    return "\n".join([*lines, "", command.help, "", "flags:", *_columns(rows)])


def _print(text: str) -> int:
    print(text)
    return 0


def _parse(argv: Sequence[str]) -> Tuple[Callable[[Any], int], Any]:
    """argv -> (what to run, its argument): a command and its flags, or the
    printing of a help text.  argv is read as argparse reads it: '--flag
    value' or '--flag=value', the last repeat winning; a unique prefix of a
    flag for the flag; a negative number as a value; every error a
    UsageError with argparse's text.
    """
    extras: List[str] = []
    for at, token in enumerate(argv):  # before the command: -h, or unknown flags
        if token == "--":  # argparse reads it as the command, unless it is last
            hit = None if at + 1 < len(argv) else (None, None)
        else:
            hit = _flag_of(token, _HELP)
        if hit is None:
            break
        if hit[0] is not None:
            if hit[1] is not None:
                raise UsageError(f"argument -h/--help: ignored explicit argument {hit[1]!r}")
            return _print, _top_help()
        extras.append(token)
    else:
        raise UsageError("the following arguments are required: command")
    name, tokens = argv[at], argv[at + 1:]
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"argument command: invalid choice: {name!r} "
                         f"(choose from {', '.join(map(repr, COMMANDS))})")
    # Every token is read before any value is, so an ambiguous prefix is
    # refused first; '--' is an unknown flag, and every token after it a value.
    names = (*_HELP, *command.flags)
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    hits = ([_flag_of(token, names) for token in tokens[:cut]]
            + [(None, None)] + [None] * (len(tokens) - cut - 1))
    values: Dict[str, Any] = {}
    at = 0
    while at < len(tokens):
        hit, token = hits[at], tokens[at]
        at += 1
        if hit is None or hit[0] is None:
            extras.append(token)
            continue
        flag, text = hit
        spec = command.flags.get(flag)
        if spec is None or spec.kind is bool:  # -h, --help or a switch: no value
            if text is not None:
                shown = "-h/--help" if spec is None else flag
                raise UsageError(f"argument {shown}: ignored explicit argument {text!r}")
            if spec is None:
                return _print, _command_help(name, command)
            values[flag] = True
            continue
        if text is None:
            if at == len(tokens) or hits[at] is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            text = tokens[at]
            at += 1
        values[flag] = _value(flag, spec.kind, text)
    missing = [flag for flag, spec in command.flags.items()
               if spec.required and flag not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    for flag in ("--all-methods", "--eval"):
        if values.get(flag) is not None and values.get("--format", "json") != "json":
            raise UsageError(f"{flag} writes JSON only, not --format {values['--format']}")
    return command.run, SimpleNamespace(**{
        flag[2:].replace("-", "_"): values.get(flag, spec.default)
        for flag, spec in command.flags.items()})


def _run(run: Callable[[Any], int], args: Any) -> int:
    """run(args), with integers of up to OUTPUT_DIGITS_MAX digits writable
    as text; the interpreter's own limit is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no limit
        return run(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(OUTPUT_DIGITS_MAX)
    try:
        return run(args)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise UsageError(f"an output value has more than OUTPUT_DIGITS_MAX = "
                         f"{OUTPUT_DIGITS_MAX} digits") from None
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _run(*_parse(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # a StringIO has no descriptor
            fd = None
        if fd is None:
            raise
        # the reader has gone: later writes and the exit flush go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except EngineDisagreement as exc:
        print(f"engine disagreement: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
