"""The three workloads: seeded operation plans and their checks.

``build(name, seed)`` returns the operations of one round, as JSON-ready
dicts, and a ``check`` function.  Every round of a run repeats the same
operations.  The seed changes the inputs but not their cost:

* lattice translations and coordinate permutations of P(m,n) and of the
  auxiliary polytopes (counts, volumes and hulls are carried along
  exactly; points and rows keep their order, so the work is the same);
* the value T of ``ehrhart --eval T``;
* a relabelling of the ground set of the chains given to
  ``face_from_chain`` (the chains are a fixed, evenly spaced sample).

``check(outputs)`` takes the round's outputs by operation id and returns a
dict from operation id to a list of problems (an empty list for a correct
answer).  Operations that failed are not passed to it.  Every expected
value comes from ``reference.py`` or from a property of the answer itself,
never from a saved output of the program.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import reference as R

WORKLOADS = ("oracle-count", "generic-hull", "engines-faces")

count = lru_cache(maxsize=None)(R.count)
volume = lru_cache(maxsize=None)(R.volume)
ehrhart = lru_cache(maxsize=None)(R.ehrhart)
vertices = lru_cache(maxsize=None)(R.vertices)


def _fracs(strings):
    return [Fraction(s) for s in strings]


class Transform:
    """x -> (x[s[0]], ..., x[s[m-1]]) + v, a lattice-preserving map."""

    def __init__(self, rng, m, shift=5):
        self.s = list(range(m))
        rng.shuffle(self.s)
        self.v = [rng.randint(-shift, shift) for _ in range(m)]

    def point(self, p):
        return [p[i] + vj for i, vj in zip(self.s, self.v)]

    def normal(self, a):
        return [a[i] for i in self.s]

    def row(self, a, b):
        a2 = self.normal(a)
        return a2, b + sum(x * y for x, y in zip(a2, self.v))

    def rows(self, rows):
        return [list(a2) + [b2] for a2, b2 in (self.row(a, b) for a, b in rows)]

    def box(self, box):
        return [[box[i][0] + vj, box[i][1] + vj] for i, vj in zip(self.s, self.v)]


# ---------------------------------------------------------------------------
# Checks shared by the workloads.


def ehrhart_problems(coeffs, m, n):
    """Compare an Ehrhart polynomial with the reference counts, and test
    Ehrhart-Macdonald reciprocity against the interior counts."""
    bad = []
    if coeffs != ehrhart(m, n):
        bad.append(f"ehr P({m},{n}) is {coeffs}, counts give {ehrhart(m, n)}")
    if n >= 1:
        for t in (1, 2):
            if (-1) ** m * R.evaluate(coeffs, -t) != R.count(m, n, t, interior=True):
                bad.append(f"reciprocity fails at t={t}")
    return bad


def cli_json(out):
    return [json.loads(line) for line in out["stdout"].splitlines()]


def verify_problems(out):
    """A verify suite passes: every record passes and the summary says so."""
    recs = cli_json(out)
    checks, summary = recs[:-1], recs[-1]
    bad = [f"{r['check']} {r['params']} failed" for r in checks if r["status"] != "pass"]
    if summary.get("summary") != "PASS" or summary.get("checks_run") != len(checks):
        bad.append(f"summary {summary}")
    if not checks:
        bad.append("no checks ran")
    return bad


def rows_select(rows, m, n):
    """Reference vertices of P(m,n) on which every equality row holds."""
    return {v for v in vertices(m, n)
            if all(sum(c * x for c, x in zip(r[:-1], v)) == r[-1] for r in rows)}


# ---------------------------------------------------------------------------
# oracle-count: the lattice-point counter on dilates of P(m,n).

ORACLE_EHRHART = [(3, 5), (3, 6), (4, 3), (4, 4), (4, 5), (4, 6), (5, 2), (5, 3)]
ORACLE_VOLUME = [(2, 6), (3, 3), (4, 2), (5, 1)]
ORACLE_COUNTS = [(5, 4, 4), (5, 5, 3), (5, 6, 2), (5, 3, 5), (5, 5, 2), (4, 5, 5),
                 (4, 4, 6), (4, 6, 3), (3, 6, 9)]


def oracle_count(rng):
    ops, checks = [], {}
    for m, n in ORACLE_EHRHART:
        t = rng.randint(1, 9)
        oid = f"ehrhart-interpolate-{m}-{n}"
        ops.append({"id": oid, "kind": "cli", "argv": [
            "ehrhart", "--m", str(m), "--n", str(n), "--method", "interpolate",
            "--eval", str(t)]})

        def chk(out, m=m, n=n, t=t):
            rec = cli_json(out)[0]
            bad = ehrhart_problems(_fracs(rec["coefficients"]), m, n)
            if Fraction(rec["value_at_t"]) != count(m, n, t):
                bad.append(f"value at t={t} is {rec['value_at_t']}")
            return bad

        checks[oid] = chk
    for m, n in ORACLE_VOLUME:
        oid = f"volume-oracle-{m}-{n}"
        ops.append({"id": oid, "kind": "cli", "argv": [
            "volume", "--m", str(m), "--n", str(n), "--method", "oracle"]})
        checks[oid] = lambda out, m=m, n=n: (
            [] if cli_json(out)[0]["value"] == volume(m, n) else ["volume"])
    for m, n, t in ORACLE_COUNTS:
        tr = Transform(rng, m)
        oid = f"count-{t}P({m},{n})"
        ops.append({"id": oid, "kind": "count_points", "dim": m, "t": t,
                    "rows": tr.rows(sorted(R.facets(m, n))),
                    "box": tr.box([(0, n)] * m)})
        checks[oid] = lambda out, m=m, n=n, t=t: (
            [] if out == count(m, n, t) else [f"count {out} != {count(m, n, t)}"])
    return ops, checks


# ---------------------------------------------------------------------------
# generic-hull: hull conversion, auxiliary volumes, cuts, boxless counting.

HULL_VH = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 2)]
HULL_HV = [(3, 3), (3, 5), (4, 2), (4, 3), (4, 3)]
AUX = [("aux1", 3), ("aux1", 4), ("aux1", 5), ("aux2", 3), ("aux2", 4)]
# (m, n, normal, offset, dilate): both sides of every cut are full-dimensional.
CUTS = [(3, 3, (1, 2, 0), 4, 2), (3, 4, (1, 2, 0), 9, 2), (3, 5, (2, 1, 1), 12, 2),
        (4, 2, (1, 1, 1, 0), 2, 2), (2, 5, (1, 3), 8, 3)]


def aux_vertices(kind, m):
    """The auxiliary polytopes as the paper describes them."""
    def unit(j):
        return [1 if i == j else 0 for i in range(m)]
    if kind == "aux1":
        ws = [[0] * m] + [unit(j) for j in range(2, m)]
        pts = set()
        for w in ws:
            for c1, c2, cw in ((4, 4, 2), (4, 3, 3), (3, 4, 3)):
                p = [cw * x for x in w]
                p[0] += c1
                p[1] += c2
                pts.add(tuple(p))
        return sorted(pts), R.aux1_volume(m)
    pts = {tuple(list(a) + [0] * (m - 3)) for a in ((4, 3, 3), (3, 4, 3), (3, 3, 4))}
    ws = [[0] * (m - 3)] + [[1 if i == j else 0 for i in range(m - 3)] for j in range(m - 3)]
    for perm in permutations((4, 3, 2)):
        for w in ws:
            pts.add(tuple(perm) + tuple(w))
    return sorted(pts), R.aux2_volume(m)


def cut_counts(m, n, a, b, t):
    """Points of t*P(m,n) on each closed side of a . x = t*b."""
    near = far = 0
    for y in product(range(t * n + 1), repeat=m):
        if R.contains(y, n, t):
            s = sum(c * x for c, x in zip(a, y))
            near += s <= t * b
            far += s >= t * b
    return near, far


def generic_hull(rng):
    ops, checks = [], {}
    for m, n in HULL_VH:
        tr = Transform(rng, m)
        oid = f"hull-vh-P({m},{n})"
        pts = [tr.point(p) for p in R.vertices(m, n)]
        ops.append({"id": oid, "kind": "hull_vh", "dim": m, "points": pts})
        want = sorted(list(a) + [b] for a, b in (tr.row(a, b) for a, b in R.facets(m, n)))
        checks[oid] = lambda out, want=want: [] if out == want else ["facets"]
    for i, (m, n) in enumerate(HULL_HV):
        tr = Transform(rng, m)
        oid = f"hull-hv-{i}-P({m},{n})"
        ops.append({"id": oid, "kind": "hull_hv", "dim": m,
                    "rows": tr.rows(sorted(R.facets(m, n)))})
        want = sorted(tr.point(p) for p in R.vertices(m, n))
        checks[oid] = lambda out, want=want: [] if out == want else ["vertices"]
    for kind, m in AUX:
        tr = Transform(rng, m)
        pts, vol = aux_vertices(kind, m)
        oid = f"nvol-{kind}-{m}"
        ops.append({"id": oid, "kind": "nvol_of_vrep", "dim": m,
                    "points": [tr.point(p) for p in pts]})
        checks[oid] = lambda out, vol=vol: [] if out == vol else [f"{out} != {vol}"]
    for m, n, a, b, t in CUTS:
        tr = Transform(rng, m)
        rows = tr.rows(sorted(R.facets(m, n)))
        a2, b2 = tr.row(a, b)
        oid = f"cut-P({m},{n})"
        ops.append({"id": oid, "kind": "cut", "dim": m, "rows": rows,
                    "a": a2, "b": b2, "t": t})
        near, far = cut_counts(m, n, a, b, t)
        top = max(sum(c * x for c, x in zip(a, v)) for v in R.vertices(m, n))
        neg = [-x for x in a2]

        def chk(out, rows=rows, a2=a2, b2=b2, neg=neg, near=near, far=far, top=top, b=b):
            bad = []
            if out["pprime"] != rows + [a2 + [b2]]:
                bad.append("near side rows")
            if out["q"] != rows + [neg + [-b2]]:
                bad.append("far side rows")
            if out["f"] != rows + [a2 + [b2], neg + [-b2]]:
                bad.append("slice rows")
            if out["q_empty"] != (top < b):
                bad.append("q_empty")
            if (out["near"], out["far"]) != (near, far):
                bad.append(f"counts {out['near']},{out['far']} != {near},{far}")
            return bad

        checks[oid] = chk
    ops.append({"id": "verify-appendix", "kind": "cli",
                "argv": ["verify", "--suite", "appendix"]})
    checks["verify-appendix"] = verify_problems
    return ops, checks


# ---------------------------------------------------------------------------
# engines-faces: volume and Ehrhart engines, tables, f/h-vectors and faces.

# Above the counting cap (m <= 5, n <= 6), so no engine counts points.
VOLUME_ALL = [(5, 7), (5, 8), (6, 5), (6, 6), (6, 7), (7, 6), (7, 8)]
EHRHART_METHODS = [("draconian", 4, 3), ("draconian", 4, 4), ("draconian", 4, 5),
                   ("draconian", 4, 6), ("draconian", 4, 7), ("draconian", 5, 5),
                   ("small_n", 6, 2), ("small_n", 7, 3), ("small_m", 3, 7),
                   ("small_m", 4, 6)]
# tall shapes: many faces, few coordinates; wide shapes: the reverse
SHAPES = [(8, 2), (9, 2), (7, 3), (6, 4), (5, 6), (3, 9), (4, 8)]
FACES = [(4, 4), (5, 3), (5, 4)]
CHAIN_SAMPLE = (5, 5, 200)
# P(m,0) is a point: volume 0 and Ehrhart polynomial 1.  Both calls fail
# because the CLI offers the n <= 4 and n <= 3 engines, which refuse n = 0.
POINT_CASES = [("volume", 2), ("ehrhart", 3)]


def engines_faces(rng):
    ops, checks = [], {}

    def add(oid, argv, chk):
        ops.append({"id": oid, "kind": "cli", "argv": argv})
        checks[oid] = chk

    for m, n in VOLUME_ALL:
        def chk(out, m=m, n=n):
            rec = cli_json(out)[0]
            bad = [f"{k}={v}" for k, v in rec["values"].items() if v != volume(m, n)]
            return bad + ([] if rec["agree"] else ["agree"])
        add(f"volume-all-{m}-{n}",
            ["volume", "--m", str(m), "--n", str(n), "--all-methods"], chk)
    for method, m, n in EHRHART_METHODS:
        add(f"ehrhart-{method}-{m}-{n}",
            ["ehrhart", "--m", str(m), "--n", str(n), "--method", method],
            lambda out, m=m, n=n: ehrhart_problems(
                _fracs(cli_json(out)[0]["coefficients"]), m, n))
    for which, var_shift in (("volume-n", 0), ("volume-N", 1)):
        def chk(out, var_shift=var_shift):
            bad = []
            for row in cli_json(out)[0]["rows"]:
                m, p = row["m"], _fracs(row["coefficients"])
                for n in (m - 1, m, m + 1):
                    x = n - m + 1 if var_shift else n
                    if R.evaluate(p, x) != volume(m, n):
                        bad.append(f"m={m} n={n}")
            return bad
        add(f"table-{which}", ["table", "--which", which], chk)
    # --max-m 3 keeps the suite's interpolation truth off the counter.
    add("verify-conjectures", ["verify", "--suite", "conjectures", "--max-m", "3"],
        verify_problems)
    for m, n in SHAPES:
        def fchk(out, m=m, n=n):
            rec = cli_json(out)[0]
            return R.fvector_properties(rec["f_vector"], m, n) + (
                [] if rec["euler"] == 1 else ["euler"])
        add(f"fvector-{m}-{n}", ["fvector", "--m", str(m), "--n", str(n)], fchk)

        def hchk(out, outputs, m=m, n=n):
            rec = cli_json(out)[0]
            polys = list(rec["results"].values())
            h = _fracs(polys[0])
            bad = [] if all(p == polys[0] for p in polys) and rec["agree"] else ["methods"]
            if not rec["palindromic"] or h != h[::-1] or len(h) != m + 1:
                bad.append("palindromic")
            if h[0] != 1 or h[m] != 1 or h[m - 1] != R.f_facets(m, n) - m:
                bad.append("h_0, h_{m-1}, h_m")
            if sum(h) != R.f0(m, n):
                bad.append("h(1) != f_0")
            fout = outputs.get(f"fvector-{m}-{n}")
            if fout is not None:
                f = cli_json(fout)[0]["f_vector"]
                if R.compose_shift([Fraction(x) for x in f]) != h:
                    bad.append("h(t) != f(t-1)")
            return bad
        hchk.cross = True
        add(f"hpoly-{m}-{n}", ["hpoly", "--m", str(m), "--n", str(n), "--all-methods"],
            hchk)
    for m, n in FACES:
        def faces_chk(out, m=m, n=n):
            want = faces_census(m, n)
            got = {}
            for rec in cli_json(out):
                key = tuple(tuple(a) for a in rec["chain"])
                got[key] = (rec["dimension"], rec["vertex_count"])
            if got == want:
                return []
            wrong = [k for k in want if got.get(k) != want[k]]
            return [f"{len(wrong)} faces differ, {len(got)} records for {len(want)} faces"]
        add(f"faces-{m}-{n}", ["faces", "--m", str(m), "--n", str(n)], faces_chk)
    m, n, k = CHAIN_SAMPLE
    relabel = list(range(1, m + 1))
    rng.shuffle(relabel)
    every = R.chains(m, n)
    sample = [tuple(tuple(sorted(relabel[i - 1] for i in a)) for a in c)
              for c in every[::len(every) // k][:k]]
    ops.append({"id": f"face-from-chain-{m}-{n}", "kind": "face_from_chain",
                "m": m, "n": n, "chains": [[list(a) for a in c] for c in sample]})

    def ffc_chk(out, sample=sample, m=m, n=n):
        bad = []
        for c, face in zip(sample, out):
            want = set(R.face_of_chain(c, m, n))
            if face["dimension"] != R.affine_rank(sorted(want)):
                bad.append(f"dimension of {c}")
            if rows_select(face["case"], m, n) != want:
                bad.append(f"case form of {c}")
            if rows_select(face["compact"], m, n) != want:
                bad.append(f"compact form of {c}")
        return bad + ([] if len(out) == len(sample) else ["face count"])
    checks[f"face-from-chain-{m}-{n}"] = ffc_chk
    add("verify-faces", ["verify", "--suite", "faces"], verify_problems)
    for cmd, m in POINT_CASES:
        argv = [cmd, "--m", str(m), "--n", "0"]
        if cmd == "ehrhart":
            argv.append("--all-methods")
            chk = (lambda out: [] if all(p == ["1"] for p in
                                         cli_json(out)[0]["results"].values()) else ["ehr"])
        else:
            chk = lambda out: [] if cli_json(out)[0]["value"] == 0 else ["volume"]
        add(f"{cmd}-P({m},0)", argv, chk)
    return ops, checks


@lru_cache(maxsize=None)
def faces_census(m, n):
    """chain -> (dimension, vertex count), from the reference face vertices."""
    out = {}
    for c in R.chains(m, n):
        face = R.face_of_chain(c, m, n)
        out[c] = (R.affine_rank(face), len(face))
    return out


BUILDERS = {"oracle-count": oracle_count, "generic-hull": generic_hull,
            "engines-faces": engines_faces}


def build(name, seed):
    """Operations of one round of workload ``name`` and their check."""
    rng = random.Random(f"{name}:{seed}")
    ops, checks = BUILDERS[name](rng)

    def check(outputs):
        problems = {}
        for oid, out in outputs.items():
            fn = checks[oid]
            try:
                problems[oid] = fn(out, outputs) if getattr(fn, "cross", False) else fn(out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems[oid] = [f"malformed output: {type(exc).__name__}: {exc}"]
        return problems

    return ops, check


# The bench_count cases: t*P(m,n) for each kernel, counted over the box.
KERNEL_CASES = [(4, 5, 2), (4, 5, 4), (5, 5, 3), (5, 6, 5)]


def kernel_cases():
    cases = []
    for m, n, t in KERNEL_CASES:
        rows = sorted(R.facets(m, n))
        cases.append({"id": f"{t}P({m},{n})", "rows_a": [list(a) for a, _ in rows],
                      "rows_b": [b * t for _, b in rows], "lows": [0] * m,
                      "highs": [n * t] * m, "want": count(m, n, t)})
    return cases
