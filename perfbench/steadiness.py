#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

Runs the command in BENCHMARK.json once per seed for every workload, untraced,
and reports per end-to-end metric the median, the quartiles, the sample count
and the spread (interquartile range over median) against the metric's bound.
With --traced it also makes one traced run per workload and reports the
tracing overhead: each traced end-to-end figure over the untraced median.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/STEADINESS.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TRACED_TWINS = ["setup_s", "sssp_or_update_ms", "pagerank_or_update_p90_ms"]


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, wall


def hardware():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"hardware_threads": os.cpu_count(), "cpu": model, "machine": platform.machine()}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "count": len(values),
        "spread": spread,
        "bound": bound,
        "within_third_of_bound": spread <= bound / 3,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also one traced run per workload")
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "hardware": hardware(), "workloads": {}}
    for workload in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(spec, workload, seed, 0)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        entry = {
            "process_wall_s": summarize(walls, 1.0),
            "metrics": {n: summarize(v, bounds[n]) for n, v in values.items()},
        }
        if args.traced:
            traced, wall = run_once(spec, workload, args.first_seed, 1)
            entry["traced_wall_s"] = wall
            entry["tracing_overhead"] = {
                name: traced["metrics"]["trace." + name]["value"]
                / entry["metrics"][name]["median"] - 1.0
                for name in TRACED_TWINS
            }
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            flag = "ok" if s["within_third_of_bound"] else "WIDE"
            print(
                f"{workload:24s} {name:22s} median {s['median']:.6g} "
                f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['count']} "
                f"spread {s['spread']:.3f} bound {s['bound']} {flag}"
            )
        for name, overhead in entry.get("tracing_overhead", {}).items():
            print(f"{workload:24s} tracing overhead on {name}: {overhead:+.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
