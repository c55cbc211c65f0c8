"""One round of a workload in a fresh process.

Reads a plan (JSON) on stdin and writes one JSON object on stdout.  Each
operation is timed with ``time.perf_counter``, and the reference loop runs
just before the first operation and just after every operation, so each
operation has a loop timing on either side of it.  Inputs are turned into
``partperm`` objects before the clock starts, and outputs into JSON after
it stops.

Modes:

* ``python3 worker.py import``: time ``import partperm, partperm.cli`` in
  this fresh process, then the reference loop; reads no plan;
* plan mode ``round``: run the plan's operations; with ``plan["trace"]`` the
  public functions are wrapped first (see ``tracing.py``);
* plan mode ``kernels``: time the lattice-point counting cases on every
  importable kernel.
"""

import sys
import time

if __name__ == "__main__" and sys.argv[1:] == ["import"]:
    # An import probe: nothing but ``time`` and ``sys`` is loaded before.
    t0 = time.perf_counter()
    import partperm  # noqa: F401
    import partperm.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    from refloop import timed_ref

    refs = sorted(timed_ref() for _ in range(3))
    print(repr([seconds, refs[1]]))
    sys.exit(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from refloop import timed_ref  # noqa: E402


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    Linux carries ``ru_maxrss`` across exec, so for a child it also covers
    the parent's memory at fork time.  ``VmHWM`` covers this image only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _hrep(P, rows, dim):
    return P.HRep(tuple((tuple(r[:-1]), r[-1]) for r in rows), dim)


def _rows_json(h):
    return [list(a) + [b] for a, b in h.rows]


def _prepare(P, op):
    """Return a zero-argument callable for the operation, and a function
    that turns its result into JSON."""
    kind = op["kind"]
    if kind == "cli":
        argv = list(op["argv"])

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = P.cli.main(argv)
            return rc, out.getvalue(), err.getvalue()

        return call, lambda r: {"rc": r[0], "stdout": r[1], "stderr": r[2]}
    if kind == "count_points":
        h = _hrep(P, op["rows"], op["dim"])
        box = tuple(tuple(b) for b in op["box"]) if op.get("box") else None
        return (lambda: P.count_points(h, op["t"], box=box)), (lambda r: r)
    if kind == "hull_vh":
        v = P.VRep(tuple(tuple(p) for p in op["points"]), op["dim"])
        return (lambda: P.hull_convert(v)), _rows_json
    if kind == "hull_hv":
        h = _hrep(P, op["rows"], op["dim"])
        return (lambda: P.hull_convert(h)), (lambda r: [list(p) for p in r.points])
    if kind == "nvol_of_vrep":
        v = P.VRep(tuple(tuple(p) for p in op["points"]), op["dim"])
        return (lambda: P.nvol_of_vrep(v)), (lambda r: r)
    if kind == "cut":
        h = _hrep(P, op["rows"], op["dim"])

        def call():
            res = P.cut(h, op["a"], op["b"])
            return res, P.count_points(res.pprime, op["t"]), P.count_points(res.q, op["t"])

        def out(r):
            res, near, far = r
            return {"pprime": _rows_json(res.pprime), "q": _rows_json(res.q),
                    "f": _rows_json(res.f), "q_empty": res.q_empty,
                    "near": near, "far": far}

        return call, out
    if kind == "face_from_chain":
        m, n = op["m"], op["n"]
        chains = [tuple(frozenset(a) for a in c) for c in op["chains"]]

        def out(faces):
            return [{"dimension": f.dimension,
                     "case": [list(a) + [b] for a, b in f.case_rows],
                     "compact": [list(a) + [b] for a, b in f.compact_rows]}
                    for f in faces]

        return (lambda: [P.face_from_chain(c, m, n) for c in chains]), out
    raise ValueError(f"unknown operation kind {kind!r}")


def run_round(plan):
    import partperm as P
    import partperm.cli  # noqa: F401

    tracer = None
    if plan.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install(P)
    results = []
    refs = [timed_ref()]
    for op in plan["ops"]:
        call, to_json = _prepare(P, op)
        error = None
        t0 = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            value = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        refs.append(timed_ref())
        rec = {"id": op["id"], "seconds": seconds}
        if error is None:
            rec["output"] = to_json(value)
            if tracer is not None and op["kind"] == "cli":
                tracer.stats["cli"]["output_bytes"] += len(value[1].encode())
        else:
            rec["error"] = error
        results.append(rec)
    out = {"ops": results, "refs": refs, "kernel": P.KERNEL_NAME,
           "peak_rss_kb": peak_rss_kb()}
    if tracer is not None:
        out["trace"] = tracer.metrics()
    return out


def run_kernels(plan):
    """Time each counting case once on every importable kernel."""
    from partperm import _counting_py

    kernels = {"pure": _counting_py.count_lattice_points}
    try:
        from partperm import _countcore
    except ImportError:
        pass
    else:
        kernels["compiled"] = _countcore.count_lattice_points
    out = {}
    for name, fn in kernels.items():
        cases = []
        for case in plan["cases"]:
            args = (case["rows_a"], case["rows_b"], case["lows"], case["highs"])
            t0 = time.perf_counter()
            value = fn(*args)
            cases.append({"id": case["id"], "seconds": time.perf_counter() - t0,
                          "points": value})
        out[name] = cases
    return out


def main():
    plan = json.load(sys.stdin)
    if plan["mode"] == "round":
        result = run_round(plan)
    elif plan["mode"] == "kernels":
        result = run_kernels(plan)
    else:
        raise ValueError(f"unknown worker mode {plan['mode']!r}")
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
