#!/usr/bin/env python3
"""Build and run the engine training benchmark.

    python3 enginebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 enginebench/run.py --selftest

Builds enginebench/ (and the runtime sources it compiles from src/) into
.bench_build/enginebench with the release-bench flags, then runs one
workload. With --trace 0 it first runs a few extra cold engine set-ups in
fresh processes, so setup_s is a median of cold starts. The last line of
stdout is the result JSON printed by the benchmark binary. Any build
failure or timeout exits non-zero without printing a result.

--selftest runs every workload of BENCHMARK.json briefly, checks the output
format against BENCHMARK.json and the correctness checks, and checks on
dense_bulk that an injected hang ends as a counted failure while the run
still completes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "enginebench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "engine_bench")
# Flags of the repo's release-bench preset.
CXX_FLAGS = "-O3 -DNDEBUG -DAIACC_NO_LOCK_ORDER_CHECKS"
EXTRA_SETUPS = 8      # cold starts in fresh processes, besides the main run's
RUN_BUDGET_S = 170.0  # every run must end within 180 s after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release", "-DCMAKE_CXX_FLAGS=" + CXX_FLAGS]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(args, deadline):
    """Run the benchmark binary; returns (stdout, parsed last line) or None."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        log("enginebench: out of time")
        return None
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("enginebench: %s timed out" % " ".join(args))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("enginebench: %s exited with %d" % (" ".join(args), proc.returncode))
        sys.stderr.write(proc.stdout)
        return None
    try:
        return proc.stdout, json.loads(lines[-1])
    except json.JSONDecodeError:
        log("enginebench: last line is not JSON: %r" % lines[-1])
        return None


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        args += ["--trace-dir", TRACE_DIR]
    else:
        samples = []
        for _ in range(EXTRA_SETUPS):
            out = run_binary(["--workload", workload, "--seed", str(seed), "--setup-only"],
                             deadline)
            if out is None:
                return 1
            samples.append("%r:%r" % (out[1]["setup_s"], out[1]["steal"]))
        args += ["--setup-samples", ",".join(samples)]
    out = run_binary(args, deadline)
    if out is None:
        return 1
    sys.stdout.write(out[0])
    sys.stdout.flush()
    return 0


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(name, args, metric_specs, want_failed=False, max_wall_s=None):
        known = len(problems)
        start = time.monotonic()
        out = run_binary(args, time.monotonic() + RUN_BUDGET_S)
        wall = time.monotonic() - start
        if out is None:
            problems.append("%s: no result" % name)
            return
        result = out[1]
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append("%s: keys %s" % (name, sorted(result)))
            return
        if result["correct"] is not True:
            problems.append("%s: output check failed" % name)
        if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                and isinstance(result["failed"], int)):
            problems.append("%s: attempted/failed %r" % (name, result))
        if want_failed and result["failed"] < 1:
            problems.append("%s: injected hang was not counted as failed" % name)
        if max_wall_s is not None and wall > max_wall_s:
            problems.append("%s: took %.1f s (limit %.1f s)" % (name, wall, max_wall_s))
        wanted = {m["name"]: m["unit"] for m in metric_specs}
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != wanted:
            problems.append("%s: metrics %s, want %s" % (name, got, wanted))
        for key, value in result["metrics"].items():
            if not isinstance(value.get("value"), (int, float)):
                problems.append("%s: %s has no numeric value" % (name, key))
        log("selftest: %-40s %s (%.1f s)" % (name, "ok" if len(problems) == known else "FAILED",
                                                wall))

    for w in spec["workloads"]:
        base = ["--workload", w["name"], "--seed", "11"]
        check(w["name"] + " untraced", base + ["--seconds", "2", "--trace", "0"],
              spec["end_to_end"])
        os.makedirs(TRACE_DIR, exist_ok=True)
        check(w["name"] + " traced", base + ["--seconds", "4", "--trace", "1",
                                             "--trace-dir", TRACE_DIR],
              spec["per_layer"])
    # A rank that never leaves its iteration (as in the engine's lost-wakeup
    # hang) must end as a counted failure: mid-run, and in the last iteration,
    # where no peer starts another iteration unless the benchmark pokes.
    for name, iterations, stall in (("hang mid-run", 8, 3), ("hang in last iteration", 6, 5)):
        check("dense_bulk " + name,
              ["--workload", "dense_bulk", "--seed", "12", "--trace", "0",
               "--iterations", str(iterations), "--stall-iteration", str(stall),
               "--stall-ms", "60000"],
              spec["end_to_end"], want_failed=True, max_wall_s=20.0)
    for p in problems:
        log("selftest FAILED: " + p)
    log("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("enginebench: build failed")
        return 1
    if args.selftest:
        return selftest()
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
