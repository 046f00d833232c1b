#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 primbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the runner and prim_serve from the
sources in src/ (Release, into .bench_build/), runs one workload and relays
the runner's result line: the last line of stdout is one JSON object with
correct, attempted, failed and the metrics. Build output and diagnostics go
to stderr. See primbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("train-small", "train-paper", "serve-read", "serve-mutate")
# A run, set-up and teardown included, must end well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print("primbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "primbench"), "-B",
                      cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                  "primbench_runner", "prim_serve"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return (os.path.join(cmake_dir, "primbench_runner"),
            os.path.join(cmake_dir, "prim", "serve", "prim_serve"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fail-check", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt here: run from the root of a checkout")
    build_dir = os.path.join(root, ".bench_build")
    runner, serve = build(root, build_dir)

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--serve-binary", serve,
               "--fail-check", str(args.fail_check)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the runner take its server down before it dies.
        child.send_signal(signal.SIGTERM)
        try:
            child.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
