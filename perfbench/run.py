#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last stdout line is the harness's JSON result.
Scratch files (daemon WALs, span dumps) live in a temporary directory
under the build root and are removed afterwards. Exits non-zero without a
result when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("index_churn_2d", "daemon_sensor")
RUN_TIMEOUT_S = 170


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = os.path.join(build_root(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # A failed configure must not leave a cache that skips it next time.
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def stop_group(pgid):
    """SIGKILLs whatever is left of the harness's process group and waits."""
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


def run(binary, args):
    """Runs the harness in its own process group; returns its exit code."""
    os.makedirs(build_root(), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=build_root())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp-dir", tmp]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print("perfbench: " + str(e), file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run(binary, args)


if __name__ == "__main__":
    sys.exit(main())
