#!/usr/bin/env python3
"""Build the library and the perfbench binary, run one workload, print its result.

    python3 perfbench/run.py --workload replay|serve-hot|serve-miss \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds the
library sources under src/ together with perfbench/cpp/ into .bench_build/
(CMake + Ninja, RelWithDebInfo); later runs rebuild only what changed.

The binary runs the workload once and prints a report; its last line is
the JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; this script checks that the names match
before it repeats the line. A traced run also leaves its spans in
.bench_build/traces/<workload>-seed<N>.json (Chrome trace-event format,
viewable in Perfetto or chrome://tracing).

Exit status: 0 when the run completed, non-zero (and no result line) when
the sources are missing, the build fails, the binary fails or times out,
or its output is malformed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("replay", "serve-hot", "serve-miss")
# A hung binary is killed; a whole run must end within 180 s.
BINARY_TIMEOUT_S = 170
BUILD_JOBS = "4"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally (serialized by a lock)."""
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(f"{needed} not found under {ROOT}; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
            subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench", "--",
             "-j", BUILD_JOBS],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be 1 to 60")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench did not finish within {BINARY_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        die(f"perfbench exited with status {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("perfbench's last line is not JSON")
    if set(result.get("metrics", {})) != expected_metrics(args.trace):
        die("perfbench's metrics differ from BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
