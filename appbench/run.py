#!/usr/bin/env python3
"""Application-level benchmark for the LITE reproduction.

Run from the repository root:

    python3 appbench/run.py --workload kv-rpc --seed 1 --seconds 10 --trace 0
    python3 appbench/run.py --selftest

Builds the benchmark binary (appbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR or .bench_build, runs one workload in its own process,
prints every metric BENCHMARK.json names for the mode (end_to_end with
--trace 0, per_layer with --trace 1) with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. Exits non-zero when any
result fails its check. See appbench/NOTES.md for what is measured and why.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-rpc", "log-commit", "rdma-batch")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")
BINARY_TIMEOUT_S = 170


def fail(msg):
    print(f"appbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "appbench")


def build_binary():
    """Configures and builds the benchmark binary; returns (path, build type)."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: the program's sources (src/) are missing")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "appbench", "-j",
                      str(max(1, len(os.sched_getaffinity(0))))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    build_type = "?"
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return os.path.join(out, "appbench"), build_type


def machine_state(build_type):
    load1, load5, _ = os.getloadavg()
    return (f"machine: nproc={len(os.sched_getaffinity(0))} loadavg_1m={load1:.2f} "
            f"loadavg_5m={load5:.2f} build_type={build_type} "
            f"optimised={'yes' if build_type in OPTIMISED_BUILD_TYPES else 'no'}")


def run_once(binary, spec, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result line, binary's raw result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(build_dir(), f"spans-{workload}-{seed}.csv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        elif echo:
            print(line)
    if raw is None:
        fail(f"benchmark binary exited with {proc.returncode} and no result")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} [{m['unit']}] missing or with another unit: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    if echo:
        # Every metric the binary computed, also those this mode's result
        # line leaves out (failed_frac; the host-time metrics at --trace 0).
        print()
        for name, m in raw["metrics"].items():
            print(f"metric {name} = {m['value']:.6g} {m['unit']}")
        print(f"requests attempted={raw['attempted']} failed={raw['failed']}")
    return proc.returncode, result, raw


def selftest(binary, spec):
    problems = []

    def digest(workload, seed):
        return subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed), "--stream-digest"],
            stdout=subprocess.PIPE, text=True, check=True).stdout.split()[-1]

    for w in WORKLOADS:
        a, b, c = digest(w, 1), digest(w, 1), digest(w, 2)
        print(f"selftest {w}: seed 1 -> {a}, again -> {b}, seed 2 -> {c}")
        if a != b:
            problems.append(f"{w}: the same seed gave two different request streams")
        if a == c:
            problems.append(f"{w}: two seeds gave the same request stream")
        for trace in (0, 1):
            code, result, raw = run_once(binary, spec, w, 7, 1, trace, echo=False)
            listed = len(spec["per_layer" if trace else "end_to_end"])
            print(f"selftest {w} trace={trace}: exit {code}, {len(result['metrics'])}/{listed} "
                  f"metrics, failed_frac={raw['metrics']['failed_frac']['value']}")
            if code != 0 or not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} trace={trace}: run not correct (exit {code})")
            if raw["metrics"]["failed_frac"]["value"] != 0:
                problems.append(f"{w} trace={trace}: failed_frac is not 0")
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root: BENCHMARK.json is missing")

    binary, build_type = build_binary()
    print(machine_state(build_type))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.selftest:
        return selftest(binary, spec)
    code, result, _ = run_once(binary, spec, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
