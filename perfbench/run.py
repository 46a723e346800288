#!/usr/bin/env python3
"""Builds and runs the GAugur end-to-end benchmark from a source checkout.

    python3 perfbench/run.py --workload plan_offline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --unit-tests

The driver is compiled from the checkout's sources into .bench_build/ at
the checkout root (the first run configures and builds; later runs only
check that the build is current). Its human-readable report goes to
stdout, and the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the span
log is written to .bench_build/traces/<workload>-seed<seed>.jsonl.
Exits non-zero, printing no result, when the sources are missing, the
build fails, the driver fails, or its result is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("serve_hot_armed", "plan_offline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def run(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group; on timeout kills the whole
    group (cmake's make and compiler children too) and waits for it."""
    proc = subprocess.Popen(
        [str(c) for c in cmd],
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {cmd[0]}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited {proc.returncode}")
    return out


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no GAugur sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        BUILD_TIMEOUT_S)
    return BUILD_DIR / target


def expected_metrics(tracing):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if tracing else "end_to_end"]}


def validate(result, tracing):
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise BenchError("result keys differ from " + str(sorted(RESULT_KEYS)))
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise BenchError(f"{key} is not a whole number")
    if result["attempted"] < 1 or not isinstance(result["correct"], bool):
        raise BenchError("nothing attempted, or correct is not a bool")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if (set(metric) != {"value", "unit"}
                or not isinstance(metric["value"], (int, float))):
            raise BenchError(f"malformed metric {name}")
    expected = expected_metrics(tracing)
    if expected is not None and set(metrics) != expected:
        missing = sorted(expected - set(metrics))
        extra = sorted(set(metrics) - expected)
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the statistics unit tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.unit_tests:
        run([build("perfbench_stats_test")], RUN_TIMEOUT_S)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    driver = build("perfbench_driver")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"]
    lines = run(cmd, RUN_TIMEOUT_S, capture=True).splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"last line is not JSON: {err}")
    validate(result, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
