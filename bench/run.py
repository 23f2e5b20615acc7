#!/usr/bin/env python3
"""Repository benchmark: builds the serving stack from source and runs one
workload against it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the repository root. The first run configures and builds
bench/CMakeLists.txt (the kspdg library from src/, tools/shard_worker.cc and
the benchmark binary in bench/src) into .bench_build/; later runs rebuild
incrementally. The binary's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The line
before it is a report with the run's shape, every metric with its sample
count, and the failure breakdown (oracle mismatches, errors, accounting).

--self-test runs every workload (the ungated ones too) at tiny sizes, traced
and untraced, and checks that every named metric is present, that the
oracle and accounting checks ran, that an injected wrong distance is
caught, and that the benchmark refuses to run without the rest of the
repository.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "kspdg_repo_bench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Longest a single benchmark invocation may take once built.
RUN_TIMEOUT_S = 170
# Runnable and self-tested, but not in BENCHMARK.json. live-local's writer
# races its readers, so which epoch answers a request depends on timing;
# while the service returns wrong answers at some epochs, the number of
# failed requests then differs between runs of the same seed. remote-batch
# waits on cross-process round trips, and on a host that steals CPU time
# its qps and p90 moved by 35-60 % between seeds. Its layers (core, remote,
# rpc, shard) are still measured by the fleet probe of every traced run.
UNGATED_WORKLOADS = ["live-local", "remote-batch"]


def log(message):
    print(f"bench/run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns False on any failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(args):
    """Runs the binary in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    # Reap anything the binary left in its group (shard workers).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out


def parse_output(out):
    lines = [line for line in out.strip().splitlines() if line.strip()]
    if len(lines) < 2:
        return None, None
    try:
        return json.loads(lines[-2]).get("report"), json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, None


def check_result(result, names, units):
    """Problems with a result line against the expected metric names."""
    problems = []
    if result is None or set(result) != RESULT_KEYS:
        return ["result line is not a JSON object with keys " +
                ", ".join(sorted(RESULT_KEYS))]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        problems.append(f"metrics {sorted(metrics)} != expected {sorted(names)}")
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], (int, float)):
            problems.append(f"metric {name} is malformed: {metric}")
        elif name in units and metric["unit"] != units[name]:
            problems.append(f"metric {name} has unit {metric['unit']}, "
                            f"expected {units[name]}")
    return problems


def run_once(args, spec):
    code, out = run_binary(args)
    report, result = parse_output(out)
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    section = spec["per_layer"] if trace else spec["end_to_end"]
    problems = check_result(result, [m["name"] for m in section],
                            {m["name"]: m["unit"] for m in section})
    return code, out, report, result, problems


def self_test(spec):
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            log("FAIL " + message)

    base = ["--seed", "3", "--seconds", "2", "--tiny"]
    for workload in workload_names(spec):
        for trace in ("0", "1"):
            args = ["--workload", workload, "--trace", trace] + base
            code, _, report, result, problems = run_once(args, spec)
            label = f"{workload} trace={trace}"
            expect(code == 0, f"{label}: exit code {code}")
            expect(not problems, f"{label}: {problems}")
            if report is None or result is None:
                continue
            extra = report["extra"]
            expect(result["correct"], f"{label}: checks failed")
            expect(extra["oracle.checked"]["value"] >= 1,
                   f"{label}: oracle checked nothing")
            expect(extra["accounting.issued"]["value"] ==
                   extra["accounting.counted"]["value"] >= 1,
                   f"{label}: accounting cross-check did not hold")
            log(f"ok {label}: attempted={result['attempted']} "
                f"failed={result['failed']}")

    args = ["--workload", spec["workloads"][0]["name"], "--trace", "0",
            "--inject-wrong-distance"] + base
    code, _, report, result, _ = run_once(args, spec)
    caught = report is not None and report["extra"].get(
        "oracle.injected_caught", {}).get("value") == 1
    expect(code == 0 and caught and result["failed"] >= 1,
           "an injected wrong distance was not reported as a failure")

    # Without the rest of the repository the benchmark must fail cleanly.
    lone = os.path.join(BUILD_ROOT, "lone-checkout")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(lone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    shutil.copytree(HERE, os.path.join(lone, "bench"))
    lone_run = subprocess.run(
        [sys.executable, os.path.join(lone, "bench", "run.py"), "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=lone, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    shutil.rmtree(lone, ignore_errors=True)
    expect(lone_run.returncode != 0 and '"correct"' not in lone_run.stdout,
           "a checkout holding only the benchmark did not fail cleanly")

    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("the repository's src/ is missing; nothing to benchmark")
        return 1
    if not build():
        log("build failed")
        return 1
    spec = load_spec()
    if opts.self_test:
        return self_test(spec)
    if opts.workload not in workload_names(spec):
        log(f"unknown workload {opts.workload!r}")
        return 2

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace]
    if opts.trace == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, f"{opts.workload}-seed{opts.seed}.jsonl")]
    code, out, _, _, problems = run_once(args, spec)
    if code != 0 or problems:
        for problem in problems:
            log(problem)
        log(f"benchmark binary exited with code {code}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
