#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
Build output goes to stderr. The benchmark's own lines go to stdout, and the
last stdout line is the result as one JSON object whose metric names are
checked against BENCHMARK.json: with --trace 0 every end_to_end metric, with
--trace 1 every per_layer metric. A layer the workload does not call reports
0. Traced runs also write their spans as Chrome trace JSON under
<build dir>/traces/. Exits non-zero, printing no result, when the build, the
run or the result check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group; on timeout the whole group
    (make, compilers) is killed and reaped before failing."""
    try:
        proc = subprocess.Popen(command, start_new_session=True, **kwargs)
    except OSError as err:
        fail(f"cannot start {command[0]}: {err}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{os.path.basename(command[0])} exceeded {timeout} s")
    return proc.returncode, out


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", target],
    ]
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            fail(f"build step {' '.join(step[:2])} exited {code}")
    return os.path.join(out, target)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def self_test():
    code, _ = run([build("perfbench_selftest")], RUN_TIMEOUT_S)
    return 1 if code != 0 else 0


def shape_result(line, spec, trace):
    """Checks the program's result line and fills unexercised layers."""
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in units or entry["unit"] != units[name]:
            fail(f"metric {name} ({entry['unit']}) is not declared in BENCHMARK.json")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build("perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, out = run(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited {code}")
    result = shape_result(lines[-1], spec, args.trace == 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
