#!/usr/bin/env python3
"""The benchmark leaves no process behind, on the failure paths too.

    python3 primbench/tests/test_teardown.py

Run from the root of a checkout (the first run builds). Three cases:
  1. a run whose correctness check fails (--fail-check 1) reports
     correct=false, exits 1, and its prim_serve is gone;
  2. a runner killed with SIGKILL takes its prim_serve with it
     (PR_SET_PDEATHSIG);
  3. a runner stopped with SIGTERM tears its prim_serve down first.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

WORKLOAD = ["--workload", "serve-mutate", "--seed", "1", "--seconds", "1",
            "--trace", "0"]


def alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        return state != "Z"
    except FileNotFoundError:
        return False


def wait_gone(pid, timeout_s):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        if not alive(pid):
            return True
        time.sleep(0.05)
    return False


def children(pid):
    found = []
    for task in os.listdir("/proc/%d/task" % pid):
        with open("/proc/%d/task/%s/children" % (pid, task)) as f:
            found += [int(c) for c in f.read().split()]
    return found


def start_and_find_server():
    """Starts run.py; returns (run.py process, runner pid, server pid)."""
    proc = subprocess.Popen([sys.executable, "primbench/run.py"] + WORKLOAD,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    for line in proc.stderr:
        match = re.search(r"prim_serve pid (\d+)", line)
        if match:
            server = int(match.group(1))
            runner = [c for c in children(proc.pid) if c != server][0]
            return proc, runner, server
    raise AssertionError("the run ended before prim_serve started")


def test_failed_check():
    done = subprocess.run([sys.executable, "primbench/run.py", "--fail-check",
                           "1"] + WORKLOAD, capture_output=True, text=True)
    assert done.returncode == 1, done.returncode
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False, result
    server = int(re.search(r"prim_serve pid (\d+)", done.stderr).group(1))
    assert not alive(server), "prim_serve %d outlived a failed run" % server


def test_killed_runner(signo):
    proc, runner, server = start_and_find_server()
    os.kill(runner, signo)
    proc.communicate(timeout=60)
    assert wait_gone(server, 10), \
        "prim_serve %d outlived its runner (signal %d)" % (server, signo)


def main():
    test_failed_check()
    print("ok: a failed correctness check leaves no server")
    test_killed_runner(signal.SIGKILL)
    print("ok: SIGKILL of the runner takes the server with it")
    test_killed_runner(signal.SIGTERM)
    print("ok: SIGTERM of the runner tears the server down")


if __name__ == "__main__":
    main()
