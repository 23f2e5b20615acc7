#!/usr/bin/env python3
"""Correctness gate between two runs of one benchmark workload.

    scripts/bench_gate.py HEAD_OUTPUT BASE_OUTPUT

Each file holds the stdout of one `python3 bench/run.py --workload W --seed N
--seconds S` run, the same W, N and S for both; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. Exits 1 if the head's
result says "correct": false, or if the head failed more requests than the
base. `failed` repeats exactly for a seed, so the comparison is
deterministic. Throughput is not compared here: BENCHMARK.json bounds it.
"""

import json
import sys


def result_of(path):
    """The result object on the last non-empty line of `path`."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or not {"correct", "failed"} <= set(result):
        sys.exit(f"bench_gate: {path} does not end in a benchmark result line")
    return result


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    head, base = result_of(argv[1]), result_of(argv[2])
    summary = (f"head failed {head['failed']} of {head.get('attempted')}, "
               f"base failed {base['failed']} of {base.get('attempted')}")
    problems = []
    if head["correct"] is not True:
        problems.append("the head's checks did not hold (\"correct\": false)")
    if head["failed"] > base["failed"]:
        problems.append("the head fails more requests than the base")
    for problem in problems:
        print(f"bench_gate: FAIL {problem}; {summary}", file=sys.stderr)
    if not problems:
        print(f"bench_gate: ok, {summary}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
