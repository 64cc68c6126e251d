#!/usr/bin/env python3
"""rsmem benchmark of record.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library from src/ plus
the benchmark binary) in Release mode under .bench_build/, measures one
workload, and prints as its LAST line one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json; with
--trace 1 they are its per_layer metrics, and the per-layer table is printed
above the result. Every workload reports every metric: a per-layer count,
share or rate of a layer the workload does not reach reads 0. The full
record of the run, with its context block (git sha, build type, GF backend,
cores, load average, host wake-up lateness and steal share, tracing, seed),
is written to .bench_build/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

MANIFEST = "BENCHMARK.json"
# Metrics in these units are always measured, never filled in as 0.
TIME_UNITS = ("s", "ms", "us")
# Extra cold set-ups per run, half before and half after the measured run
# (at least 1, up to 6 on each side while that side takes under 1.5 s), so
# they sample the host over the whole run; setup_s is the median of these
# and the run's own.
SETUP_REPEATS_PER_SIDE, SETUP_BUDGET_PER_SIDE_S = 6, 1.5
RUN_TIMEOUT_S = 170
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_manifest():
    """The workloads and metrics of record, from BENCHMARK.json."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    return ([w["name"] for w in manifest["workloads"]],
            manifest["end_to_end"], manifest["per_layer"])


def select_metrics(measured, wanted, fill_zero):
    """The wanted metrics, in manifest order; returns (metrics, missing)."""
    metrics, missing = {}, []
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        metric = measured.get(name)
        if metric is None and fill_zero and unit not in TIME_UNITS:
            metric = {"value": 0.0, "unit": unit}  # layer not on the path
        if (metric is None or metric["unit"] != unit or
                not isinstance(metric["value"], (int, float)) or
                not math.isfinite(metric["value"])):
            missing.append(name)
            continue
        metrics[name] = metric
    return metrics, missing


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found: run from the "
                           "repository root")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, args, timeout):
    """Runs the binary; returns the JSON object on its last stdout line."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def cpu_ticks():
    """(steal, total) jiffies of all CPUs so far, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def source_digest():
    """sha256 over the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, subdirs, files in sorted(os.walk(top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def print_table(workload, record):
    stages = record["stages"]
    if not stages:
        return
    total = sum(row["ms_per_op"] for row in stages)
    log("per-layer attribution, %s (ms per %s):" % (workload, record["op"]))
    for row in stages:
        share = 100.0 * row["ms_per_op"] / total if total else 0.0
        log("  %-22s %12.4f  %5.1f%%" % (row["stage"], row["ms_per_op"], share))
    log("  %-22s %12.4f" % ("total", total))
    overhead = record["metrics"].get("trace.overhead_pct")
    if overhead is not None:
        log("tracing overhead: %+.2f%% (traced vs untraced, same run)"
            % overhead["value"])


def main():
    try:
        workloads, end_to_end, per_layer = load_manifest()
    except (OSError, ValueError, KeyError, TypeError) as error:
        log("perfbench: cannot read %s: %s" % (MANIFEST, error))
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 1

    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    if load_before[0] > 0.75 * nproc:
        log("perfbench: WARNING: 1-minute load average %.2f on %d cores; "
            "this run is flagged high_load" % (load_before[0], nproc))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(RESULTS_DIR, tag + ".spans.json")
    def sample_setups():
        samples = []
        started = time.time()
        while not samples or (
                len(samples) < SETUP_REPEATS_PER_SIDE and
                time.time() - started < SETUP_BUDGET_PER_SIDE_S):
            samples.append(run_binary(
                binary, common + ["--trace", "0", "--setup-only"],
                RUN_TIMEOUT_S)["setup_s"])
        return samples

    try:
        setups = sample_setups()
        record = run_binary(binary, common + ["--trace", str(args.trace),
                                              "--trace-out", trace_out],
                            RUN_TIMEOUT_S)
        setups += [record["setup_s"]] + sample_setups()
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log("perfbench: run failed: %s" % error)
        return 1
    load_after = os.getloadavg()
    ticks_after = cpu_ticks()
    steal_share = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal_share = ((ticks_after[0] - ticks_before[0]) /
                       (ticks_after[1] - ticks_before[1]))

    measured = dict(record["metrics"])
    if args.trace == 0:
        measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics, missing = select_metrics(measured, end_to_end, False)
    else:
        metrics, missing = select_metrics(measured, per_layer, True)
    correct = record["correct"] and not missing
    for failure in record["check_failures"]:
        log("perfbench: known-answer check failed: %s" % failure)
    for name in missing:
        log("perfbench: metric %s not measured in its unit" % name)

    wake_lag = record["info"].get("host_wake_lag_us_p99")
    context = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": record["info"].get("build_type"),
        "gf_backend": record["info"].get("gf_backend"),
        "gf_supported": record["info"].get("gf_supported"),
        "nproc": nproc,
        "load_avg_before": list(load_before),
        "load_avg_after": list(load_after),
        "high_load": load_before[0] > 0.75 * nproc,
        "host_wake_lag_us_p99": wake_lag,
        "host_steal_share": steal_share,
        "noisy_host": wake_lag is not None and wake_lag > 1000.0,
        "tracing": bool(args.trace),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s_samples": setups,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as handle:
        json.dump({"context": context, "run": record, "metrics": metrics,
                   "missing": missing},
                  handle, indent=1)

    log("context: " + json.dumps(context))
    print_table(args.workload, record)
    for name, metric in metrics.items():
        log("  %-30s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
