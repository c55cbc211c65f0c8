"""Self-checks of the benchmark: the reference is right and every check bites.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It tests ``reference.py`` against box
enumeration and against facts of the paper's small cases, then runs one
round of every workload, requires the check to pass on the program's real
answers, and requires it to reject each answer after one perturbation.
Exits 1 on the first failure.
"""

import copy
import json
import os
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as R  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class SelfCheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SelfCheckFailed(msg)


def check_reference():
    for m in range(1, 4):
        for n in range(0, 4):
            for t in range(0, 4):
                for interior in (False, True):
                    expect(R.count(m, n, t, interior) == R.naive_count(m, n, t, interior),
                           f"count of {t}P({m},{n}) interior={interior}")
    # P(2,2) is the pentagon x >= 0, x1, x2 <= 2, x1 + x2 <= 3.
    expect(R.facets(2, 2) == {((-1, 0), 0), ((0, -1), 0), ((1, 0), 2), ((0, 1), 2),
                              ((1, 1), 3)}, "facets of P(2,2)")
    expect(R.vertices(2, 2) == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)], "vertices of P(2,2)")
    expect(R.ehrhart(2, 2) == [1, Fraction(7, 2), Fraction(7, 2)], "ehr P(2,2)")
    expect(R.volume(2, 2) == 7 and R.volume(3, 1) == 1, "volumes")
    expect(R.interpolate([(0, 1), (1, 3), (2, 7)]) == [1, 1, 1], "interpolate")
    expect(R.compose_shift([0, 0, 1]) == [1, -2, 1], "compose_shift")
    # Chains: the pruned search equals a filter over every chain of subsets.
    for m in range(1, 4):
        subsets = [frozenset(s) for r in range(m + 1)
                   for s in combinations(range(1, m + 1), r)]
        every = [(s,) for s in subsets]
        frontier = list(every)
        while frontier:
            frontier = [c + (s,) for c in frontier for s in subsets if c[-1] < s]
            every += frontier
        for n in range(1, 5):
            want = sorted(tuple(tuple(sorted(a)) for a in c) for c in every
                          if R.in_family(c, m, n))
            expect(R.chains(m, n) == want, f"chains of P({m},{n})")
    # The f-vector properties hold on the face census of the reference, and
    # the census gives the pentagon and P(3,3).
    for m in range(1, 5):
        for n in range(1, 6):
            fv = [0] * (m + 1)
            for c in R.chains(m, n):
                fv[R.affine_rank(R.face_of_chain(c, m, n))] += 1
            expect(R.fvector_properties(fv, m, n) == [], f"f-vector of P({m},{n}): {fv}")
            if (m, n) == (2, 2):
                expect(fv == [5, 5, 1], "pentagon")
            if (m, n) == (3, 3):
                expect(fv == [16, 24, 10, 1], "P(3,3)")
    expect(R.fvector_properties([5, 6, 1], 2, 2) != [], "perturbed pentagon accepted")
    for kind, m in workloads.AUX:
        pts, vol = workloads.aux_vertices(kind, m)
        expect(len(pts) == len(set(pts)) and vol > 0, f"{kind}({m})")


def _bump_json(out, edit):
    """Apply ``edit`` to the first JSON line of a CLI output."""
    lines = out["stdout"].splitlines()
    rec = json.loads(lines[0])
    edit(rec)
    lines[0] = json.dumps(rec)
    out["stdout"] = "\n".join(lines) + "\n"


def _bump_first_coeff(key):
    def edit(rec):
        rec[key][0] = str(Fraction(rec[key][0]) + 1)
    return edit


def _bump_table(rec):
    row = rec["rows"][-1]
    row["coefficients"][0] = str(Fraction(row["coefficients"][0]) + 1)


def _bump_volumes(rec):
    for k in rec["values"]:
        rec["values"][k] += 1


def _bump_hpoly(rec):
    for k, p in rec["results"].items():
        p[1] = str(Fraction(p[1]) + 1)
        p[-2] = str(Fraction(p[-2]) + 1)


def _fail_verify(out):
    lines = out["stdout"].splitlines()
    rec = json.loads(lines[-2])
    rec["status"] = "fail"
    lines[-2] = json.dumps(rec)
    out["stdout"] = "\n".join(lines) + "\n"


def _bump_faces(out):
    lines = out["stdout"].splitlines()
    rec = json.loads(lines[len(lines) // 2])
    rec["vertex_count"] += 1
    lines[len(lines) // 2] = json.dumps(rec)
    out["stdout"] = "\n".join(lines) + "\n"


def perturb(oid, out):
    """A copy of ``out`` with one wrong value in it."""
    out = copy.deepcopy(out)
    if oid.startswith(("count-", "nvol-")):
        return out + 1
    if oid.startswith("hull-vh"):
        out[0][-1] += 1
        return out
    if oid.startswith("hull-hv"):
        return out[1:]
    if oid.startswith("cut-"):
        out["near"] += 1
        return out
    if oid.startswith("face-from-chain"):
        out[-1]["compact"][-1][-1] += 1
        return out
    if oid.startswith("verify-"):
        _fail_verify(out)
    elif oid.startswith("faces-"):
        _bump_faces(out)
    elif oid.startswith("volume-all"):
        _bump_json(out, _bump_volumes)
    elif oid.startswith("volume-"):
        _bump_json(out, lambda rec: rec.update(value=rec["value"] + 1))
    elif oid.startswith("ehrhart-P"):
        _bump_json(out, lambda rec: [p.append("1") for p in rec["results"].values()])
    elif oid.startswith("ehrhart-interpolate"):
        _bump_json(out, lambda rec: rec.update(value_at_t=str(int(rec["value_at_t"]) + 1)))
    elif oid.startswith("ehrhart-"):
        _bump_json(out, _bump_first_coeff("coefficients"))
    elif oid.startswith("table-"):
        _bump_json(out, _bump_table)
    elif oid.startswith("fvector-"):
        _bump_json(out, lambda rec: rec["f_vector"].__setitem__(0, rec["f_vector"][0] + 1))
    elif oid.startswith("hpoly-"):
        _bump_json(out, _bump_hpoly)
    else:
        raise SelfCheckFailed(f"no perturbation for {oid}")
    return out


def check_workload(name, root, env):
    ops, check = workloads.build(name, 7)
    rnd = run.worker(root, env, {"mode": "round", "ops": ops})
    outputs = {op["id"]: op["output"] for op in rnd["ops"] if not run.op_failed(op)}
    failed = sorted(op["id"] for op in rnd["ops"] if run.op_failed(op))
    bad = {k: v for k, v in check(outputs).items() if v}
    expect(not bad, f"{name}: real answers rejected: {bad}")
    for oid, out in outputs.items():
        wrong = dict(outputs, **{oid: perturb(oid, out)})
        expect(check(wrong)[oid], f"{name}: perturbed {oid} accepted")
    # The point cases: the right answers pass, wrong ones do not.
    for cmd, m in workloads.POINT_CASES:
        oid = f"{cmd}-P({m},0)"
        if oid not in {op["id"] for op in ops}:
            continue
        if cmd == "volume":
            right = {"m": m, "n": 0, "method": "small_n", "value": 0}
            wrong = dict(right, value=1)
        else:
            right = {"m": m, "n": 0, "results": {"interpolate": ["1"]}, "agree": True}
            wrong = dict(right, results={"interpolate": ["1", "1"]})
        for rec, ok in ((right, True), (wrong, False)):
            out = {"rc": 0, "stdout": json.dumps(rec) + "\n", "stderr": ""}
            expect((not check({oid: out})[oid]) == ok, f"{oid} with {rec}")
    print(f"{name}: {len(outputs)} answers checked and each perturbation rejected; "
          f"failed: {failed}")


def main():
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    try:
        check_reference()
        print("reference: counts, vertices, facets, chains and f-vectors agree")
        run.check_layout(root)
        for name in workloads.WORKLOADS:
            check_workload(name, root, env)
    except (SelfCheckFailed, run.RunError) as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
