#!/usr/bin/env python3
"""Builds and runs the end-to-end service benchmark (see README.md).

One run of one workload:
    python3 perfbench/run.py --workload hot-taxi-rnd --seed 1 --seconds 16 --trace 0

Other modes:
    --self-test         prove the correctness and backlog checks can fail
    --seed-check        every workload, traced, on two seeds: same regime?
    --spread N          N seeds of one workload: median and quartile spread

Run from the repository root. The library and the driver are built from
source with CMake into $CARGO_TARGET_DIR (default .bench_build); the last
line of a run's standard output is its JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# An untraced run is this many driver processes of --seconds/N each, their
# metrics averaged: on a shared host a process's speed level is drawn once
# (thread placement, physical pages) and varies by ±10%, so two draws per
# run narrow the spread between runs at no extra run time. Not for
# gcp-poisson-inline: its per-tuple cost swings for thousands of tuples after
# initialization, and a half-length process would time that transient.
PROCESSES_PER_RUN = 2
SINGLE_PROCESS_WORKLOADS = ("gcp-poisson-inline",)
# Provenance fields that must match before two results are compared.
HOST_KEYS = ("nproc", "cpus_allowed", "cpu", "kernel_tier", "build_type",
             "SNS_FORCE_GENERIC_KERNELS")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures and builds the driver; returns the binary's path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "api", "sns_service.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"run.py: {needed} not found under {ROOT}; the benchmark "
                     "builds the library from the repository's sources")
    build_dir = os.path.join(target_dir(), "perfbench-build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "sns_perfbench")


def run_binary(binary, args, echo=True, timeout=RUN_TIMEOUT_S):
    """Runs the driver; returns (exit code, stdout lines)."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        done = subprocess.run([binary, *args, "--out-dir", out_dir],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: run exceeded {timeout:.0f} s")
    if echo:
        sys.stdout.write(done.stdout)
    return done.returncode, done.stdout.splitlines()


def parse_run(lines):
    """Provenance, result JSON and info lines of one run."""
    provenance = {}
    info = []
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        elif line.startswith("info "):
            info.append(line[len("info "):])
    result = json.loads(lines[-1]) if lines else None
    return provenance, result, info


def check_result(result):
    keys = {"correct", "attempted", "failed", "metrics"}
    return isinstance(result, dict) and set(result) == keys


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def one_run(binary, workload, seed, seconds, trace, echo=True):
    """One run: PROCESSES_PER_RUN processes untraced (metrics averaged), one
    traced. Prints every process's lines, then the run's JSON result."""
    processes = PROCESSES_PER_RUN
    if trace or workload in SINGLE_PROCESS_WORKLOADS:
        processes = 1
    runs = []
    for _ in range(processes):
        code, lines = run_binary(
            binary, ["--workload", workload, "--seed", str(seed), "--seconds",
                     str(seconds / processes), "--trace", str(trace)],
            False, RUN_TIMEOUT_S / processes)
        if code != 0:
            sys.exit(f"run.py: {workload} seed {seed} exited with {code}")
        provenance, result, info = parse_run(lines)
        if not check_result(result):
            sys.exit("run.py: the run printed no valid result line")
        if echo:
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        runs.append((provenance, result, info))
    provenance, result, _ = runs[0]
    if processes > 1:
        result = {
            "correct": all(r["correct"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "metrics": {
                name: {"value": statistics.mean(
                           r["metrics"][name]["value"] for _, r, _ in runs),
                       "unit": metric["unit"]}
                for name, metric in result["metrics"].items()},
        }
    if echo:
        print(json.dumps(result))
    return provenance, result, [i for _, _, run_info in runs for i in run_info]


def same_host(a, b):
    differing = [k for k in HOST_KEYS if a.get(k) != b.get(k)]
    if differing:
        print(f"run.py: results come from different hosts or builds "
              f"({', '.join(differing)}); not comparing them", file=sys.stderr)
    return not differing


def seed_check(binary, seeds):
    """Each workload, traced, on two seeds: the regime must not change."""
    spec = benchmark_json()
    report = {"seeds": seeds, "seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            provenance, result, info = one_run(binary, workload, seed,
                                               spec["run_seconds"], 1, False)
            growth = any(i.startswith("backlog_end") and i.endswith("growth yes")
                         for i in info)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "provenance": provenance,
                         "correct": result["correct"],
                         "failed_frac": result["failed"] / result["attempted"],
                         "backlog_growth": growth,
                         "sampling_active_frac":
                             metrics["core.sampling_active_frac"],
                         "slice_nnz_p99": metrics["tensor.slice_nnz_p99"],
                         "events_per_tuple": metrics["core.events_per_tuple"]})
        a, b = runs
        if not same_host(a["provenance"], b["provenance"]):
            sys.exit(1)
        frac_a, frac_b = a["sampling_active_frac"], b["sampling_active_frac"]
        verdict = {
            "failed_frac_zero": a["failed_frac"] == 0 and b["failed_frac"] == 0,
            "correct": a["correct"] and b["correct"],
            "same_backlog_regime": a["backlog_growth"] == b["backlog_growth"],
            # Similar: within 0.05 absolute or 20% of the larger.
            "similar_sampling_active_frac":
                abs(frac_a - frac_b) <= max(0.05, 0.2 * max(frac_a, frac_b)),
        }
        verdict["same_regime"] = all(verdict.values())
        ok = ok and verdict["same_regime"]
        report["workloads"][workload] = {"runs": runs, "verdict": verdict}
        print(f"{workload}: {verdict}")
    path = os.path.join(HERE, "results", "seed_check.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def spread(binary, workload, count, seconds, trace):
    """Runs seeds 1..count; prints each metric's median and IQR / median."""
    runs = []
    for seed in range(1, count + 1):
        provenance, result, _ = one_run(binary, workload, seed, seconds, trace,
                                        False)
        if runs and not same_host(runs[0]["provenance"], provenance):
            sys.exit(1)
        runs.append({"seed": seed, "provenance": provenance, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median,
                         "iqr_over_median": (q3 - q1) / median if median else None,
                         "values": values}
        print(f"{name:36s} median {median:14.6g}  iqr/median "
              f"{summary[name]['iqr_over_median']}")
    path = os.path.join(HERE, "results", f"spread-{workload}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seconds": seconds, "trace": trace,
                   "provenance": runs[0]["provenance"], "metrics": summary},
                  f, indent=2)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed-check", nargs=2, type=int, metavar="SEED")
    parser.add_argument("--spread", type=int, metavar="N")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        status = 0
        names = [args.workload] if args.workload else \
            [w["name"] for w in benchmark_json()["workloads"]]
        for workload in names:
            code, _ = run_binary(binary, ["--self-test", "--workload",
                                          workload, "--seed", str(args.seed)])
            status = status or code
        return status
    if args.seed_check:
        return seed_check(binary, args.seed_check)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds or benchmark_json()["run_seconds"]
    if args.spread:
        return spread(binary, args.workload, args.spread, seconds, args.trace)
    one_run(binary, args.workload, args.seed, seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
