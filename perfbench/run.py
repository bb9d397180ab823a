"""plap benchmark launcher.

    python3 perfbench/run.py --workload eval-poles --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh interpreter (``worker.py``) that imports plap
from this checkout's ``src/`` without installing it, checks every output
against the numpy reference in ``check.py`` outside the timed region, and
prints a human-readable report line followed, as the last line, by one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a traced pass.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
BLAS_THREADS = "1"          # single client; at or below nproc on any machine
SETUP_PROBES = 4            # extra set-up-only launches; set-up is their median with the run's own
DEADLINE_S = 170.0
P90_MIN_OPS = 100           # op_p90_s needs at least ten ops beyond it
ACCOUNTED_TOL = 1e-6


class BenchError(Exception):
    pass


def child_env():
    """The caller's environment plus PYTHONPATH=src and pinned BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(args, work, deadline, setup_only=False):
    """Start one worker, return its set-up time (launch to READY) once it
    has exited; stop it and raise if it fails or passes the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError("worker did not finish set-up")
        proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        rc = proc.returncode
        if rc != 0:
            raise BenchError(f"worker exited with {rc}")
        return setup_s
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker passed the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def relative(pass_):
    """Each op's latency in yardsticks: divided by the mean of the yardstick
    times measured right before and right after it."""
    yard = pass_["yard"]
    return [t / (0.5 * (a + b)) for t, a, b in zip(pass_["lat"], yard, yard[1:])]


def per_op_median(rows):
    """Sum over the ops of each op's median across the passes, so a burst of
    load from outside the run that hits one pass does not move the figure."""
    return sum(statistics.median(op) for op in zip(*rows))


def end_to_end(result, setups):
    """The gated metrics, and the same figures in seconds for the report."""
    timed = result["passes"]
    rel = [relative(p) for p in timed]
    wall_s = per_op_median(p["lat"] for p in timed)
    gated = {
        "setup_s": statistics.median(setups),
        "wall_rel": per_op_median(rel),
        "op_p50_rel": statistics.median(r for ops in rel for r in ops),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    seconds = {
        "wall_s": wall_s,
        "op_p50_s": statistics.median(t for p in timed for t in p["lat"]),
        "items_per_s": result["items_per_pass"] / wall_s,
        "yardstick_s": statistics.median(y for p in timed for y in p["yard"]),
    }
    return gated, seconds


def per_layer(result, accuracy):
    layers = dict(result["layers"])
    layers["cli.import_s"] = result["import_s"]
    layers["superpose.worst_direct_vs_closed"] = accuracy.get("worst_direct_vs_closed", 0.0)
    layers["superpose.worst_fd_vs_closed"] = accuracy.get("worst_fd_vs_closed", 0.0)
    layers["comparison.min_gap_min"] = accuracy.get("min_gap_min", 0.0)
    return layers


def declared_units():
    """name -> unit of the end-to-end and the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "plap", "cli.py")):
        print(f"no plap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_units()
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(launch(args, work, deadline, setup_only=True))
        setups.append(launch(args, work, deadline))
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        ops = workloads.make_pass(args.workload, args.seed)
        executed = [(p["pass"], i, rc) for p in result["passes"] for i, rc in enumerate(p["rc"])]
        attempted, reasons, accuracy = check.check_run(ops, executed, os.path.join(work, "ops"))
    except BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "ops"), ignore_errors=True)

    failed = sum(reasons.values())
    if args.trace:
        metrics, seconds = per_layer(result, accuracy), {}
    else:
        metrics, seconds = end_to_end(result, setups)
    lat = [t for p in result["passes"] for t in p["lat"]]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(result["passes"]), "ops": len(lat),
        "fail_frac": failed / attempted, "failures": reasons,
        "known_defects": sorted(set(reasons) & check.KNOWN_DEFECTS),
        "machine": result["machine"],
        **seconds,
    }
    if len(lat) >= P90_MIN_OPS:
        report["op_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    if args.workload == "eval-poles" and not args.trace:
        report["points_per_s"] = seconds["items_per_s"]
    if args.trace and not abs(metrics["trace.accounted_frac"] - 1.0) <= ACCOUNTED_TOL:
        print("span self times and gaps do not add up to the traced wall time", file=sys.stderr)
        return 1
    declared = layer_units if args.trace else e2e_units
    if set(metrics) != set(declared) or not all(map(math.isfinite, metrics.values())):
        print(f"metrics do not match BENCHMARK.json or are not finite: {metrics}", file=sys.stderr)
        return 1
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": set(reasons) <= check.KNOWN_DEFECTS,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
