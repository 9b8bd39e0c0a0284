"""Benchmark of hypermatch, run from the root of a checkout:

    python3 perfbench/run.py --workload suites|phi-large|catalogue \
        --seed 0 --seconds 50 --trace 0

It imports hypermatch from src/, builds the workload's inputs from the
seed, runs whole passes over the workload's operations for about
--seconds (at least two passes), checks every output, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: setup_s, wall_s,
op_p50_ms and peak_rss_mb. Each operation's time is the best of its
passes, because load from other tenants of the machine only ever slows
an operation down; wall_s sums these best times over one pass and
op_p50_ms is their median. With --trace 1 wrappers around the public
functions of each layer record spans, and the metrics are the per-layer
ones of tracing.METRICS plus trace.overhead_s; spans are written to
perfbench/runs/. End-to-end metrics are never taken from a traced run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "runs")
WORKLOAD_NAMES = ("suites", "phi-large", "catalogue")
SETUP_SAMPLES = 9  # set-ups per run: the run's own, then one process
# that only sets up after each pass until there are this many
MIN_PASSES = 2  # every pass's outputs must equal the first pass's


def _parse(argv):
    p = argparse.ArgumentParser(description="hypermatch benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(args):
    """Import hypermatch and build the workload's inputs; returns the
    workload and the seconds it took, which setup_s reports, less the
    workload's own bookkeeping (own_setup_s) that does not use hypermatch."""
    t0 = time.perf_counter()
    hm = importlib.import_module("hypermatch")
    importlib.import_module("hypermatch.cli")
    import workloads

    wl = workloads.WORKLOADS[args.workload](hm, args.seed, RUN_DIR)
    return wl, time.perf_counter() - t0 - getattr(wl, "own_setup_s", 0.0)


def _setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _run_passes(wl, seconds, traced_pass=None, after_pass=None):
    """Whole passes for about `seconds`, and at least MIN_PASSES: another
    pass starts only if one more like the last still ends in time.
    after_pass(), if given, runs after each round of passes.

    Keeps the first pass's outputs for the checks and the numbers of the
    later passes whose outputs differ from them. With traced_pass set,
    every untraced pass is followed by a traced one (traced_pass(wl) runs
    it and returns what wl.run_pass returns)."""
    result = {"walls": [], "traced_walls": [], "op_times": [], "outputs": None,
              "differing": [], "attempted": 0, "failed": 0, "peak_mb": 0.0}
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in (False, True) if traced_pass else (False,):
            t0 = time.perf_counter()
            times, outs, failed = traced_pass(wl) if traced else wl.run_pass()
            (result["traced_walls"] if traced else result["walls"]).append(time.perf_counter() - t0)
            if not traced:
                result["op_times"].append(times)
            result["attempted"] += len(times)
            result["failed"] += failed
            if result["outputs"] is None:
                result["outputs"] = outs
            elif outs != result["outputs"]:
                result["differing"].append(len(result["walls"]) + len(result["traced_walls"]))
        if after_pass:
            after_pass()
        if len(result["walls"]) == MIN_PASSES:
            result["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if len(result["walls"]) >= MIN_PASSES and 2 * now - t_round - t_start > seconds:
            return result


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "hypermatch", "__init__.py")):
        print(f"error: {SRC} holds no hypermatch package; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(RUN_DIR, exist_ok=True)

    if args.setup_only:
        print(_setup(args)[1])
        return 0

    if args.trace:
        importlib.import_module("hypermatch")
        importlib.import_module("hypermatch.cli")
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        wl, _ = _setup(args)
        tracer.uninstall()
        setup_totals = tracer.totals()
        per_pass = []

        def traced_pass(wl):
            tracer.install()
            mark = tracer.mark()
            try:
                return wl.run_pass()
            finally:
                tracer.uninstall()
                per_pass.append(tracer.totals(mark))

        res = _run_passes(wl, args.seconds, traced_pass)
        metrics = tracing.layer_metrics(per_pass, setup_totals)
        overhead = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.write(os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.tsv.gz"))
    else:
        wl, first = _setup(args)
        setup = [first]

        def more_setups():
            if len(setup) < SETUP_SAMPLES:
                setup.append(_setup_in_child(args))

        res = _run_passes(wl, args.seconds, after_pass=more_setups)
        best = [min(op) for op in zip(*res["op_times"])]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(best), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_mb"], "unit": "MB"},
        }

    problems = [f"pass {i} output differs from pass 1" for i in res["differing"]]
    problems += wl.check(res["outputs"])
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    passes = len(res["walls"]) + len(res["traced_walls"])
    print(f"{args.workload} seed {args.seed}: {passes} passes of "
          f"{res['attempted'] // passes} operations (op_p50_ms is the median of "
          f"their best times), {res['failed']} failed, {len(problems)} check problems")
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
