#!/usr/bin/env python3
"""Builds the checker from source and runs one kissbench workload.

    python3 kissbench/run.py --workload corpus|deep|service|fuzz \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds kissbench/
(a CMake project over ../src and kissd) into $CARGO_TARGET_DIR/kissbench,
or .bench_build/kissbench when that is unset, then runs the workload. The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json under --trace 0 and every
per-layer metric under --trace 1. It exits non-zero, without a result
line, if the sources are missing, the build fails or the output does not
match BENCHMARK.json; and with 1 if any unit's outcome was wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("corpus", "deep", "service", "fuzz")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


def fail(message):
    print("kissbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(here, build_dir):
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", here, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the benchmark failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("building the benchmark failed")


def kill_group(pgid):
    """Kills what is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in ("src/CMakeLists.txt", "tools/kissd/CMakeLists.txt",
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("run this from the root of a checkout: no " + need)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build", "kissbench")
    build(here, build_dir)
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    # Unix socket paths are short: hand the program paths relative to
    # the checkout root, which is its working directory.
    rel = lambda p: os.path.relpath(p, root)
    cmd = [os.path.join(build_dir, "kissbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work-dir", rel(work_dir),
           "--kissd", rel(os.path.join(build_dir, "kissd", "kissd"))]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        fail("the workload did not finish in time")
    finally:
        kill_group(proc.pid)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and list(result["metrics"]) == wanted)
    except (ValueError, TypeError):
        ok = False
    if proc.returncode not in (0, 1) or not ok:
        sys.stderr.write(out)
        fail("the workload exited %d without a valid result line"
             % proc.returncode)
    sys.stdout.write(out)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
