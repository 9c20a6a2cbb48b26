#!/usr/bin/env python3
"""Build and run one workload of the wall-clock benchmark.

    python3 perfbench/run.py --workload moe_routing --seed 1 --seconds 35 \
        --trace 0

Run from the root of a DynMo checkout.  The first run configures and builds
perfbench/ (its own CMake package over ../src) into .bench_build/perfbench;
later runs only rebuild what changed.  Build output goes to stderr.  The
last line of stdout is the result object the benchmark binary prints:

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

BENCHMARK.json is the one list of metrics: the result carries its
end_to_end metrics (--trace 0) or its per_layer ones (--trace 1), in its
order.  A per-layer metric the workload does not exercise reads 0.

Exits non-zero, without printing a result, when the sources are missing,
the build fails, the binary fails, or the binary reports a metric that
BENCHMARK.json does not declare with that unit or leaves out an end-to-end
metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("moe_routing", "grid_trace_replay", "threaded_elastic")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dynmo", "dynmo.hpp")):
        print("perfbench: no DynMo sources under %s/src" % ROOT,
              file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print("perfbench: %s: %s" % (cmd[:2], exc), file=sys.stderr)
            return None
        if proc.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def parse_result(line):
    """The binary's result object, or None."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"}):
        return obj
    return None


def declared_metrics(trace):
    """{name: unit} of BENCHMARK.json's metrics for this mode, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def complete(metrics, declared, trace):
    """The metrics in BENCHMARK.json's order, or an error message."""
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            return "metric %s in %s is not declared so in BENCHMARK.json" % (
                name, m["unit"])
    out = {}
    for name, unit in declared.items():
        if name in metrics:
            out[name] = metrics[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}  # layer not exercised
        else:
            return "end-to-end metric %s missing" % name
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    declared = declared_metrics(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(BUILD_DIR, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1])
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        print("perfbench: binary exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    metrics = complete(result["metrics"], declared, args.trace)
    if isinstance(metrics, str):
        sys.stderr.write(proc.stdout)
        print("perfbench: %s" % metrics, file=sys.stderr)
        return 1
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
