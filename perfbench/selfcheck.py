#!/usr/bin/env python3
"""Self-check of the benchmark: runs every workload briefly, untraced
and traced, and validates each result line against BENCHMARK.json.

    python3 perfbench/selfcheck.py [--seconds 2]

Checks, per workload and mode: the last stdout line is one JSON object
with exactly the keys correct/attempted/failed/metrics; the run was
correct, attempted at least one operation and failed none; the metric
names are exactly those BENCHMARK.json lists for the mode, each with
its declared unit and a finite value (end-to-end values nonzero); and a
traced run leaves a Chrome trace-event span file whose spans carry a
name, start, duration, id and parent. Exits nonzero on any failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_result(line, specs, trace):
    problems = []
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:120]]
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append("failed is not 0")
    metrics = result["metrics"]
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, metric in metrics.items():
        if name not in expected:
            continue
        value = metric.get("value")
        if metric.get("unit") != expected[name]:
            problems.append("%s: unit %r, expected %r" % (
                name, metric.get("unit"), expected[name]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number" %
                            (name, value))
        elif not trace and value == 0:
            problems.append("%s: end-to-end value is 0" % name)
    return problems


def check_spans(path):
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return ["span file %s unreadable: %s" % (path, e)]
    if not events:
        return ["span file %s holds no spans" % path]
    for event in events:
        if not {"name", "ts", "dur"} <= set(event) or \
                not {"id", "parent"} <= set(event.get("args", {})):
            return ["span without name/ts/dur/id/parent: %r" % event]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    failures = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            command = bench["command"] + [
                "--workload", name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(trace)]
            run = subprocess.run(command, cwd=ROOT, capture_output=True,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            problems = [] if run.returncode == 0 else [
                "exit code %d: %s" % (run.returncode, run.stderr[-400:])]
            problems += check_result(lines[-1] if lines else "",
                                     bench["per_layer" if trace else
                                           "end_to_end"], trace)
            if trace:
                problems += check_spans(os.path.join(
                    ROOT, ".bench_build", "perfbench", "traces",
                    "%s-seed%d.json" % (name, args.seed)))
            failures += bool(problems)
            print("%-16s trace=%d %s" % (name, trace,
                                         "ok" if not problems else "FAIL"))
            for problem in problems:
                print("    " + problem)
    print("selfcheck: %s" % ("PASS" if failures == 0 else
                             "%d FAILED" % failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
