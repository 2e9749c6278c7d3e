#!/usr/bin/env python3
"""Build and run the dsnet benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0

Workloads: serve_warm, serve_churn, grid_100k (see perfbench/README.md).
The script configures and builds perfbench/ (the dsnet libraries from
src/, wsn_serve and the dsn_perfbench driver) into .bench_build/, then
runs the driver. The driver's last line of output is one JSON object
with the keys correct, attempted, failed and metrics. --trace 1 runs
the separate traced run and reports the per-layer metrics; its spans
are written to .bench_build/traces/. Other arguments (such as --tiny,
the smoke-test sizes) pass through to the driver.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "dsn_perfbench")
WORKLOADS = ("serve_warm", "serve_churn", "grid_100k")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark package; output goes to
    stderr so stdout stays the driver's."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dsnet sources under " + os.path.join(ROOT, "src") +
             "; run from the repository root")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_rev():
    """HEAD of the checkout, or "none" when it is not a git work tree of
    its own (an enclosing repository's HEAD would mislabel the run)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def src_digest():
    """SHA-256 over the sources the driver links, so two checkouts
    without git can still be told apart."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(args):
    """Runs the driver, streaming its stdout; returns its exit code."""
    proc = subprocess.Popen([DRIVER] + args, stdout=sys.stdout,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build()
    driver_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace",
                   str(args.trace), "--git-rev", git_rev(),
                   "--src-digest", src_digest()]
    if args.trace == 1:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        driver_args += ["--spans-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(run_driver(driver_args + extra))


if __name__ == "__main__":
    main()
