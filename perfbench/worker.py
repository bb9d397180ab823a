"""One workload run in a fresh interpreter: a closed loop with one client.

Set-up imports plap from ``src/`` (the launcher puts it on PYTHONPATH),
generates the pass's configs from the seed, writes them to the work
directory and runs one small untimed warm-up op; it then prints ``READY``
so the launcher can time set-up from interpreter launch.  The timed part
calls ``plap.cli.main`` once per op, each op starting when the previous one
returned, and repeats the pass as often as fits in ``--seconds`` (at least
once).  The yardstick (``yardstick.py``) is measured before each op and
after the last one, outside the op latencies.  With ``--trace 1`` it runs
the pass once untraced and then once more under the span tracer, both
without the yardstick.  Everything is written to
``result.json`` (and ``trace.json``) in the work directory.

    python3 perfbench/worker.py --workload eval-poles --seed 1 --seconds 30 \
        --trace 0 --work perfbench/_work/eval-poles-s1
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_op(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed op, as it would be for the process
        traceback.print_exc()
        return 1


def run_pass(cli, argvs, pass_no, yardstick=None, tracer=None):
    """Run every op of the pass back to back; returns the pass record.

    With a yardstick, it is measured before each op and after the last one
    (``yard`` has one entry more than ``lat``); its time is not in
    ``wall_s``, which is the sum of the op latencies."""
    lat, codes, yard = [], [], []
    for i, argv in enumerate(argvs(pass_no)):
        if yardstick is not None:
            yard.append(yardstick.measure())
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        codes.append(run_op(cli, argv))
        lat.append(time.perf_counter() - t0)
    if yardstick is not None:
        yard.append(yardstick.measure())
    return {"pass": pass_no, "wall_s": sum(lat), "lat": lat, "rc": codes, "yard": yard}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import plap.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"plap was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    import numpy as np
    import scipy

    import workloads
    import yardstick

    ops = workloads.make_pass(args.workload, args.seed)
    warmup = workloads.make_warmup(args.workload, args.seed)
    cfg_dir = os.path.join(args.work, "configs")
    out_dir = os.path.join(args.work, "ops")
    os.makedirs(cfg_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    cfg_paths = []
    for name, op in [(f"o{i}", op) for i, op in enumerate(ops)] + [("warmup", warmup)]:
        path = os.path.join(cfg_dir, name + ".json")
        data = workloads.config_bytes(op)
        if data is not None:
            with open(path, "wb") as fh:
                fh.write(data)
        cfg_paths.append(path)

    if run_op(cli, workloads.argv(warmup, cfg_paths[-1], os.path.join(out_dir, "warmup"))) != 0:
        print("warm-up op failed", file=sys.stderr)
        return 3

    def argvs(pass_no):
        return [workloads.argv(op, cfg_paths[i], os.path.join(out_dir, f"p{pass_no}-o{i}"))
                for i, op in enumerate(ops)]

    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import spans

        passes = [run_pass(cli, argvs, 0)]
        tracer = spans.Tracer()
        tracer.install()
        passes.append(run_pass(cli, argvs, 1, tracer=tracer))
    else:
        stick = yardstick.Yardstick()
        stick.measure()  # the first measurement pays the yardstick's own lazy costs
        start = time.perf_counter()
        passes = [run_pass(cli, argvs, 0, stick)]
        first = time.perf_counter() - start
        for pass_no in range(1, max(1, int(args.seconds // first))):
            passes.append(run_pass(cli, argvs, pass_no, stick))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "items_per_pass": sum(workloads.items_in(op) for op in ops),
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "machine": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if args.trace:
        traced = passes[1]["wall_s"]
        rows = sum(workloads.items_in(op) for op in ops if op["kind"] == "eval")
        result["layers"] = spans.layer_metrics(tracer, traced, rows)
        result["layers"]["trace.overhead_frac"] = (traced - passes[0]["wall_s"]) / passes[0]["wall_s"]
        tracer.dump(os.path.join(args.work, "trace.json"))
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
