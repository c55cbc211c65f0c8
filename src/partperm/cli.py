"""Command-line interface: exact invariants of partial permutohedra.

Subcommands: vertices, facets, faces, fvector, hpoly, volume, ehrhart,
verify, table.  Output is deterministic JSON by default (sorted keys,
compact separators); --format csv/tex give flat rows and TeX tabulars.
All numbers are exact: integers or 'p/q' strings, never floats.

Exit codes: 0 success; 1 usage error (bad arguments or unsupported
parameter ranges); 2 a verification suite found a counterexample;
3 two internal engines disagreed (EngineDisagreement).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Dict, Iterator, List, Optional

from . import ehrhart as EH
from . import faces as FA
from . import volume as VO
from .combinat import (
    ORACLE_MAX_M,
    ORACLE_MAX_N,
    Engine,
    draconian_census,
    draconian_shape_tally,
    enumerate_chains,
)
from .exactmath import EngineDisagreement, Polynomial
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit 1
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer >= low; argparse names the flag on failure."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _poly_json(p: Polynomial) -> List[str]:
    return p.to_strings()


def _methods(table: Dict[str, Engine], m: int, n: int) -> List[str]:
    """The methods of an engine table that cover (m,n), in table order."""
    return [name for name, engine in table.items() if engine.domain(m, n)]


def _values(table: Dict[str, Engine], m: int, n: int) -> dict:
    """Every covering method of an engine table -> its value at (m,n)."""
    return {name: table[name].value(m, n) for name in _methods(table, m, n)}


def _require_applicable(method: str, methods: List[str], m: int, n: int) -> None:
    if method not in methods:
        raise UsageError(
            f"method {method!r} not applicable at (m,n)=({m},{n}); "
            f"applicable: {', '.join(methods)}"
        )


def _disagreement(what: str, m: int, n: int, values: dict) -> EngineDisagreement:
    """The --all-methods error, naming every method and the value it gave."""
    pairs = "; ".join(f"{meth} -> {val}" for meth, val in values.items())
    return EngineDisagreement(f"{what} disagree at (m,n)=({m},{n}): {pairs}")


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
    chains = enumerate_chains(args.m, args.n, include_empty=False)
    for c in chains:
        rec = {
            "chain": [sorted(a) for a in c],
            "dimension": FA.missing_ranks(c) if c else -1,
            "vertex_count": len(FA.face_vertices(c, args.m, args.n)),
        }
        if args.format == "csv":
            chain_str = "<".join("{" + " ".join(map(str, sorted(a))) + "}" for a in c)
            print(f"{rec['dimension']},{rec['vertex_count']},{chain_str}")
        else:
            print(_dump(rec))
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
    m, n = args.m, args.n
    if args.all_methods:
        results = {meth: FA.h_poly(m, n, meth)
                   for meth in _methods(FA.H_POLY_ENGINES, m, n)}
        polys = list(results.values())
        agree = all(p == polys[0] for p in polys)
        out = {
            "m": m,
            "n": n,
            "results": {k: _poly_json(p) for k, p in results.items()},
            "agree": agree,
            "palindromic": FA.is_palindromic(polys[0], m),
        }
        print(_dump(out))
        if not agree:
            raise _disagreement("h-polynomial methods", m, n,
                                {k: p.render() for k, p in results.items()})
        return 0
    p = FA.h_poly(m, n, args.method or "from_f")
    out = {
        "m": m,
        "n": n,
        "method": args.method or "from_f",
        "coefficients": _poly_json(p),
        "rendered": p.render(),
        "palindromic": FA.is_palindromic(p, m),
        "h_at_1": int(sum(p.coeffs)),
    }
    if args.format == "csv":
        print(",".join(_poly_json(p)))
    elif args.format == "tex":
        print(f"$h_{{P({m},{n})}}(t) = {p.render()}$")
    else:
        print(_dump(out))
    return 0


def _cmd_volume(args) -> int:
    m, n = args.m, args.n
    engines = VO.VOLUME_ENGINES
    methods = _methods(engines, m, n)
    if not methods:
        raise UsageError(f"no exact volume engine covers (m,n)=({m},{n})")
    if args.all_methods:
        values = _values(engines, m, n)
        agree = len(set(values.values())) == 1
        print(_dump({"m": m, "n": n, "values": values, "agree": agree}))
        if not agree:
            raise _disagreement("volume engines", m, n, values)
        return 0
    method = args.method or ("closed" if "closed" in methods else methods[-1])
    _require_applicable(method, methods, m, n)
    value = engines[method].value(m, n)
    if args.format == "csv":
        print(f"{m},{n},{value}")
    else:
        print(_dump({"m": m, "n": n, "method": method, "value": value}))
    return 0


def _cmd_ehrhart(args) -> int:
    m, n = args.m, args.n
    engines = EH.EHRHART_ENGINES
    methods = _methods(engines, m, n)
    if not methods:
        raise UsageError(f"no exact Ehrhart engine covers (m,n)=({m},{n})")
    if args.all_methods:
        values = _values(engines, m, n)
        polys = list(values.values())
        agree = all(p == polys[0] for p in polys)
        out = {"m": m, "n": n,
               "results": {k: _poly_json(p) for k, p in values.items()},
               "agree": agree}
        if args.eval is not None:
            out["value_at_t"] = str(polys[0](args.eval))
        print(_dump(out))
        if not agree:
            raise _disagreement("Ehrhart engines", m, n,
                                {k: p.render() for k, p in values.items()})
        return 0
    method = args.method or methods[0]
    _require_applicable(method, methods, m, n)
    p = engines[method].value(m, n)
    out = {"m": m, "n": n, "method": method, "coefficients": _poly_json(p),
           "rendered": p.render()}
    if args.eval is not None:
        out["value_at_t"] = str(p(args.eval))
    if args.format == "csv":
        print(",".join(_poly_json(p)))
    elif args.format == "tex":
        print(f"$\\mathrm{{ehr}}_{{P({m},{n})}}(t) = {p.render()}$")
    else:
        print(_dump(out))
    return 0


def _cmd_table(args) -> int:
    which = args.which
    if which == "volume-n":
        max_m = 7 if args.max_m is None else args.max_m
        rows = [(m, VO.nvol_poly(m, "n")) for m in range(1, max_m + 1)]
        var = "n"
    elif which == "volume-N":
        max_m = 6 if args.max_m is None else args.max_m
        rows = [(m, VO.nvol_poly(m, "N")) for m in range(1, max_m + 1)]
        var = "N"
    else:
        raise UsageError(f"unknown table {which!r}")
    if args.format == "json":
        print(_dump({
            "table": f"normalized volume of P(m,n) as a polynomial in {var}"
                     + (" where N = n-m+1" if var == "N" else ""),
            "rows": [{"m": m, "coefficients": _poly_json(p),
                      "rendered": p.render(var)} for m, p in rows],
        }))
    elif args.format == "csv":
        for m, p in rows:
            print(f"{m}," + ",".join(_poly_json(p)))
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


def _suite_engines(max_m: int, max_n: int) -> Iterator[dict]:
    for m in range(1, min(max_m, 5) + 1):
        for n in range(max(1, m - 1), max_n + 1):
            vals = _values(VO.VOLUME_ENGINES, m, n)
            if "lambda" in vals:  # the lambda sum again, at other parameters
                primes = (2, 3, 5, 7, 11, 13)[: m + 1]
                vals["lambda-primes"] = VO.nvol_lambda(m, n, primes)
            ok = len(set(vals.values())) == 1
            yield _check("volume-engines-agree", {"m": m, "n": n}, ok, repr(vals))
    for m in range(1, min(max_m, ORACLE_MAX_M) + 1):
        for n in range(max(1, m - 1), min(max_n, ORACLE_MAX_N) + 1):
            polys = _values(EH.EHRHART_ENGINES, m, n)
            ps = list(polys.values())
            ok = all(p == ps[0] for p in ps)
            yield _check("ehrhart-engines-agree", {"m": m, "n": n}, ok,
                         repr({k: v.to_strings() for k, v in polys.items()}))
    for m in range(1, min(max_m, 5) + 1):
        for mode in ("volume", "ehrhart"):
            census = draconian_census(m, mode)
            tally = draconian_shape_tally(m, mode)
            yield _check("draconian-census-matches-enumeration",
                         {"m": m, "mode": mode}, census == tally,
                         repr({"census": sorted(census.items()),
                               "enumeration": sorted(tally.items())}))
    for m in range(1, min(max_m, ORACLE_MAX_M) + 1):
        for n in range(0, min(max_n, ORACLE_MAX_N) + 1):
            h, box = pp_facets(m, n), pp_box(m, n)
            counts = {t: (pp_count(m, n, t), count_points(h, t, box=box))
                      for t in (1, 2)}
            yield _check("pp-count-matches-generic", {"m": m, "n": n},
                         all(a == b for a, b in counts.values()), repr(counts))


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
            polys = {meth: FA.h_poly(m, n, meth)
                     for meth in _methods(FA.H_POLY_ENGINES, m, n)}
            ps = list(polys.values())
            ok = all(p == ps[0] for p in ps)
            ok = ok and FA.is_palindromic(ps[0], m)
            ok = ok and sum(ps[0].coeffs) == len(pp_vertices(m, n).points)
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
    for m in range(1, min(max_m, 5) + 1):
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
    for m in range(1, min(max_m, 4) + 1):
        for n in range(max(1, m - 1), min(max_n, 6) + 1):
            truth = EH.ehr_interpolate(m, n)
            p1, p2, equal = EH.ehr_conjecture(m, n)
            rec = EH.ehr_recurrence(m, n)
            ok = equal and p1 == truth and rec == truth
            yield _check("ehrhart-conjectures-consistent", {"m": m, "n": n}, ok,
                         repr({"interp": truth.to_strings(),
                               "conj": p1.to_strings(),
                               "recur": rec.to_strings()}))
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


def verify_suite(name: str, max_m: int = 4, max_n: int = 6) -> Iterator[dict]:
    """Yield check records for one named verification suite."""
    suites = {
        "engines": lambda: _suite_engines(max_m, max_n),
        "faces": lambda: _suite_faces(max_m, max_n),
        "conjectures": lambda: _suite_conjectures(max_m, max_n),
        "appendix": lambda: _suite_appendix(max_m, max_n),
    }
    if name == "all":
        for key in ("engines", "faces", "conjectures", "appendix"):
            yield from suites[key]()
        return
    if name not in suites:
        raise UsageError(f"unknown suite {name!r}")
    yield from suites[name]()


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
# Parser and dispatch.


def _build_parser() -> _Parser:
    p = _Parser(prog="partperm",
                description="Exact invariants of partial permutohedra P(m,n).")
    sub = p.add_subparsers(dest="command", required=True)

    def add_mn(sp, n_min=0):
        sp.add_argument("--m", type=_int_at_least(1), required=True,
                        help="dimension m >= 1")
        sp.add_argument("--n", type=_int_at_least(n_min), required=True,
                        help=f"value bound n >= {n_min}")
        sp.add_argument("--format", choices=("json", "csv", "tex"), default="json")

    sp = sub.add_parser("vertices", help="vertex list of P(m,n)")
    add_mn(sp)
    sp.set_defaults(func=_cmd_vertices)

    sp = sub.add_parser("facets", help="facet inequalities of P(m,n)")
    add_mn(sp)
    sp.set_defaults(func=_cmd_facets)

    sp = sub.add_parser("faces", help="all faces as chain records (JSON lines)")
    add_mn(sp, n_min=1)
    sp.set_defaults(func=_cmd_faces)

    sp = sub.add_parser("fvector", help="f-vector of P(m,n)")
    add_mn(sp, n_min=1)
    sp.set_defaults(func=_cmd_fvector)

    sp = sub.add_parser("hpoly", help="h-polynomial of P(m,n)")
    add_mn(sp, n_min=1)
    sp.add_argument("--method", choices=tuple(FA.H_POLY_ENGINES))
    sp.add_argument("--all-methods", action="store_true")
    sp.set_defaults(func=_cmd_hpoly)

    sp = sub.add_parser("volume", help="normalized volume of P(m,n)")
    add_mn(sp)
    sp.add_argument("--method", choices=tuple(VO.VOLUME_ENGINES))
    sp.add_argument("--all-methods", action="store_true")
    sp.set_defaults(func=_cmd_volume)

    sp = sub.add_parser("ehrhart", help="Ehrhart polynomial of P(m,n)")
    add_mn(sp)
    sp.add_argument("--method", choices=tuple(EH.EHRHART_ENGINES))
    sp.add_argument("--all-methods", action="store_true")
    sp.add_argument("--eval", type=int, default=None, metavar="T",
                    help="also evaluate at t=T")
    sp.set_defaults(func=_cmd_ehrhart)

    sp = sub.add_parser("verify", help="run a cross-validation suite")
    sp.add_argument("--suite", choices=("engines", "faces", "conjectures",
                                        "appendix", "all"), default="all")
    sp.add_argument("--max-m", type=_int_at_least(1), default=4)
    sp.add_argument("--max-n", type=_int_at_least(0), default=6)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("table", help="volume polynomial tables")
    sp.add_argument("--which", choices=("volume-n", "volume-N"), required=True)
    sp.add_argument("--max-m", type=_int_at_least(1), default=None)
    sp.add_argument("--format", choices=("json", "csv", "tex"), default="json")
    sp.set_defaults(func=_cmd_table)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
