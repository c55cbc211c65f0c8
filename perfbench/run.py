"""Benchmark of partperm: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle-count --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It builds the package in place
(``setup.py build_ext --inplace``, once per checkout), then runs whole
rounds of the workload until ``--seconds`` have passed.  Each round is a
fresh worker process (``worker.py``), started one at a time, so every cache
of the program starts cold, as it does for a command-line user.  Before each
round, import probes time ``import partperm, partperm.cli`` in fresh
processes.

Times are reported in units of the reference loop in ``refloop.py``, which
runs just before and just after every operation: raw seconds on a shared
machine drift by tens of percent within minutes, the ratio does not (see
README.md).

End-to-end metrics (``--trace 0``):

* ``wall_ref``: per round, the sum over operations of operation time over
  the mean of the two loop timings around it; median over rounds;
* ``op_p50_ref``: per operation, the median over rounds of that ratio;
  median over operations;
* ``peak_rss_mb``: peak resident memory of a round's process, median;
* ``setup_s``: import time of ``partperm`` and ``partperm.cli``, as seconds
  on a machine whose reference loop takes ``NOMINAL_REF_S``; median over
  all probes.

With ``--trace 1`` traced rounds alternate with untraced ones and the
per-layer metrics (``tracing.py``) are reported instead, as medians over
the traced rounds.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a report with
the raw figures goes to ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

PROBES_PER_ROUND = 5
# setup_s is import time in seconds at this reference-loop time: the import
# time over the loop time in the same probe process, times this constant.
NOMINAL_REF_S = 0.005
WORKER_TIMEOUT_S = 150


def metric_specs(root):
    """Names and units of the end-to-end and per-layer metrics."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class RunError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def check_layout(root):
    for rel in ("BENCHMARK.json", "setup.py", "src/partperm/__init__.py",
                "src/partperm/cli.py"):
        if not (root / rel).is_file():
            raise RunError(f"{rel} not found under {root}: run from a partperm checkout")


def build(root, env):
    """Build the package in place once per checkout, then byte-compile it so
    that no import probe pays for compiling."""
    stamp = root / ".bench_build" / "partperm.built"
    if stamp.is_file():
        return
    for cmd in ([sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
                [sys.executable, "-m", "compileall", "-q", "src/partperm"]):
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RunError(f"{' '.join(cmd[1:])} failed:\n{proc.stdout}{proc.stderr}")
    stamp.parent.mkdir(exist_ok=True)
    stamp.write_text("built\n")


def worker(root, env, plan=None, args=()):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          input=json.dumps(plan) if plan is not None else "",
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RunError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def op_ratios(rnd):
    """Operation time over the mean of the loop timings just around it."""
    refs = rnd["refs"]
    return [op["seconds"] / ((refs[i] + refs[i + 1]) / 2) for i, op in enumerate(rnd["ops"])]


def op_failed(op):
    return "error" in op or (isinstance(op.get("output"), dict)
                             and op["output"].get("rc", 0) != 0)


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(opts, root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("PARTPERM_PURE", None)
    check_layout(root)
    end_to_end_units, per_layer_units = metric_specs(root)
    build(root, env)
    ops, check = workloads.build(opts.workload, opts.seed)
    plain = {"mode": "round", "ops": ops}
    traced = dict(plain, trace=True)

    setup, rounds, traced_rounds = [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_ROUND):
            setup.append(worker(root, env, args=["import"]))
        rounds.append(worker(root, env, plain))
        if opts.trace:
            traced_rounds.append(worker(root, env, traced))
        if time.perf_counter() - start >= opts.seconds:
            break
    kernels = None
    if opts.trace and opts.workload == "oracle-count":
        cases = workloads.kernel_cases()
        kernels = worker(root, env, {"mode": "kernels", "cases": cases})

    attempted = failed = 0
    problems = {}
    for rnd in rounds + traced_rounds:
        outputs = {}
        for op in rnd["ops"]:
            attempted += 1
            if op_failed(op):
                failed += 1
            else:
                outputs[op["id"]] = op["output"]
        for oid, bad in check(outputs).items():
            if bad:
                problems.setdefault(oid, bad)
    if kernels is not None:
        for name, results in kernels.items():
            for case, res in zip(cases, results):
                attempted += 1
                if res["points"] != case["want"]:
                    problems[f"counter.{name}.{case['id']}"] = [
                        f"{res['points']} != {case['want']}"]

    ratios = [op_ratios(r) for r in rounds]
    walls = [sum(r) for r in ratios]
    per_op = [statistics.median(col) for col in zip(*ratios)]
    end_to_end = {
        "wall_ref": statistics.median(walls),
        "op_p50_ref": statistics.median(per_op),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in rounds),
        "setup_s": statistics.median(s / ref for s, ref in setup) * NOMINAL_REF_S,
    }
    if opts.trace:
        values = layer_metrics(per_layer_units, traced_rounds, walls, kernels)
        # counter.compiled.* (when that kernel imports) has the units of counter.pure.*
        units = {name: per_layer_units[name.replace(".compiled.", ".pure.")]
                 for name in values}
    else:
        values, units = end_to_end, end_to_end_units
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    report = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "kernel": rounds[0]["kernel"],
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root), "rounds": len(rounds),
        "elapsed_s": time.perf_counter() - start,
        "end_to_end": end_to_end, "metrics": metrics, "problems": problems,
        "raw": {
            "round_op_seconds": [sum(op["seconds"] for op in r["ops"]) for r in rounds],
            "rounds": [{"op_s": [op["seconds"] for op in r["ops"]], "ref_s": r["refs"]}
                       for r in rounds],
            "ref_loop_s_median": statistics.median(x for r in rounds for x in r["refs"]),
            "op_seconds_median": {op["id"]: statistics.median(
                r["ops"][i]["seconds"] for r in rounds) for i, op in enumerate(ops)},
            "op_ref_median": {op["id"]: v for op, v in zip(ops, per_op)},
            "import_s": [s for s, _ in setup],
            "import_ref_s": [ref for _, ref in setup],
            "failed_ops": sorted({op["id"] for r in rounds for op in r["ops"]
                                  if op_failed(op)}),
        },
        "kernels": kernels,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{opts.workload}-seed{opts.seed}-trace{int(opts.trace)}.json"
    (results / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']}")
    raw = report["raw"]
    print(f"# kernel={report['kernel']} python={report['python']} cpus={report['cpu_count']}"
          f" rounds={len(rounds)} ref_loop_s={raw['ref_loop_s_median']:.6f}"
          f" round_op_s_median={statistics.median(raw['round_op_seconds']):.4f}")
    for oid, bad in problems.items():
        print(f"# WRONG {oid}: {'; '.join(bad)[:500]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(names, traced_rounds, untraced_walls, kernels):
    """Medians over traced rounds of every per-layer counter."""
    values = {}
    for name in names:
        if name.startswith(("trace.", "counter.")):
            continue
        if name == "polytope.count_lattice_points.points_per_s":
            samples = []
            for r in traced_rounds:
                busy = r["trace"].get("polytope.count_lattice_points.self_s", 0)
                points = r["trace"].get("polytope.count_lattice_points.points", 0)
                samples.append(points / busy if busy else 0)
        else:
            samples = [r["trace"].get(name, 0) for r in traced_rounds]
        values[name] = statistics.median(samples)
    traced_walls = [sum(op_ratios(r)) for r in traced_rounds]
    values["trace.wall_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls)
    # The counting cases run on the traced oracle-count run only.
    for kernel, cases in (kernels or {"pure": []}).items():
        busy = sum(c["seconds"] for c in cases)
        values[f"counter.{kernel}.cases_s"] = busy
        values[f"counter.{kernel}.points_per_s"] = (
            sum(c["points"] for c in cases) / busy if busy else 0)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    try:
        result = run(opts, Path.cwd())
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
