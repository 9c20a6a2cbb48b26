#!/usr/bin/env python3
"""Steadiness report: run each workload N times and summarize every metric.

    python3 perfbench/steadiness.py --runs 10 [--workloads moe_routing,...]
                                    [--traced M]

For each workload (all of BENCHMARK.json's by default) it runs
perfbench/run.py with seeds 1..N for BENCHMARK.json's run_seconds, tracing
off, then prints, for every end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json: "steady" below a third of the bound, "ok" below the bound,
"UNSTEADY" above it.  With --traced M it also makes a traced run right after each of the first M untraced ones
and prints the per-layer medians and the tracing overhead: the traced
wall_s minus the untraced one, per seed.  Where /proc/stat exists it also
prints the host's CPU steal share during the runs, which is what makes
timings on a shared VM drift from run to run.

The machine facts the binary prints (nproc, compiler, build type) end the
report.  A run that fails, prints no result or reports correct=false makes
the report exit 1; the binary itself refuses to measure a non-Release build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) CPU ticks from /proc/stat; None where unavailable."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns (result, machine line, error or None)."""
    before = cpu_ticks()
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
                          check=False)
    after = cpu_ticks()
    lines = proc.stdout.rstrip("\n").split("\n")
    machine = next((l[len("# machine: "):] for l in lines
                    if l.startswith("# machine: ")), None)
    if proc.returncode != 0:
        return None, machine, "exit %d" % proc.returncode
    result = json.loads(lines[-1])
    if before and after and after[1] > before[1]:
        # Share of CPU time the hypervisor gave to other guests.
        result["steal"] = (after[0] - before[0]) / (after[1] - before[1])
    if not result["correct"] or result["failed"] != 0:
        notes = [l for l in lines if l.startswith("# FAILED")]
        return result, machine, "incorrect: %s" % "; ".join(notes)
    return result, machine, None


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per workload (0: none)")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    failures = 0
    machine = None
    for workload in args.workloads.split(","):
        runs, traced = [], []
        seeds = range(1, args.runs + 1)
        for i, seed in enumerate(seeds):
            # A traced run follows its untraced twin directly, so the
            # overhead pair sees the same machine state.
            for trace in (0, 1) if i < args.traced else (0,):
                result, machine, err = run_once(workload, seed, seconds,
                                                trace)
                if err:
                    failures += 1
                    print("%s seed %d trace %d: %s" % (workload, seed, trace,
                                                       err))
                if result is not None:
                    (traced if trace else runs).append({"seed": seed,
                                                        **result})

        print("\n== %s: %d runs, %s s each, seeds %d..%d" %
              (workload, len(runs), seconds, seeds[0], seeds[-1]))
        print("%-22s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        names = list(runs[0]["metrics"]) if runs else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict = "UNSTEADY"
            print("%-22s %14.6g %14.6g %14.6g %7.2f%% %6s  %s" %
                  (name, med, q1, q3, 100 * spread,
                   "" if bound is None else "%.2f" % bound, verdict))
        steal = [r["steal"] for r in runs if "steal" in r]
        if steal:
            print("host CPU steal during the runs: median %.1f%%, max %.1f%%"
                  % (100 * statistics.median(steal), 100 * max(steal)))
        if traced:
            print("-- traced: %d runs (per-layer medians)" % len(traced))
            for name in traced[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in traced]
                print("%-28s %14.6g %s" % (name, statistics.median(values),
                                            traced[0]["metrics"][name]["unit"]))
            wall = {r["seed"]: r["metrics"]["wall_s"]["value"] for r in runs}
            over = [t["metrics"]["trace.wall_s"]["value"] - wall[t["seed"]]
                    for t in traced if t["seed"] in wall]
            if over:
                print("tracing overhead: %+.4f s median (traced minus "
                      "untraced wall_s of the same seed, run back to back; "
                      "pairs: %s)" % (statistics.median(over), " ".join(
                          "%+.3f" % o for o in over)))
        sys.stdout.flush()

    print("\nmachine: %s" % machine)
    if machine and "build Release" not in machine:
        print("WARNING: NOT A RELEASE BUILD - these timings mean nothing")
        failures += 1
    if failures:
        print("%d runs failed" % failures)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
