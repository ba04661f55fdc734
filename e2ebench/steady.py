#!/usr/bin/env python3
"""Steadiness mode: runs each workload back to back and reports how much
each metric moves between runs.

Usage (from the repository root):

    python3 e2ebench/steady.py [--runs N] [--workloads a,b]
                               [--trace 0|1] [--same-seed]

Each run is one invocation of the command in BENCHMARK.json, with the
workload's `run_seconds`. Runs use seeds 1..N (or seed 1 every time with
--same-seed). For every metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (q3 - q1) / median
against the metric's bound. With --trace 1 --same-seed it also lists the
per-layer counts that did not repeat exactly (a warning, not a failure):
work stealing and queue depth depend on thread timing, and so do the
SPICE solve counts of a variation Monte Carlo, whose worker threads race
to fill the shared operating-point cache. The exit status is non-zero
when any run reports a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys

TIMING_DEPENDENT = ("core.service.queue_steals", "core.service.queue_depth_max")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    ok = True
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = 1 if args.same_seed else 1 + i
            r = run_once(bench, workload, seed, args.trace)
            results.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
            ok &= r["correct"] and r["failed"] == 0
        print(f"\n{workload}: {args.runs} runs")
        print(f"{'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'/bound':>7}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            rel = f"{spread / bound:7.2f}" if bound else f"{'-':>7}"
            print(f"{name:<42} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound if bound else '-':>6} {rel}")
            if args.trace and args.same_seed and len(set(values)) > 1 \
                    and bench_unit(declared, name) == "count" \
                    and name not in TIMING_DEPENDENT:
                print(f"  ! {name} did not repeat: {sorted(set(values))}")
    sys.exit(0 if ok else 1)


def bench_unit(declared, name):
    return next(m["unit"] for m in declared if m["name"] == name)


if __name__ == "__main__":
    main()
