#!/usr/bin/env python3
"""Smoke test of the dsnet benchmark: tiny sizes, the same code paths.

Run from the repository root:

    python3 perfbench/smoke.py

It builds the benchmark like run.py does, then checks that
  1. every workload, untraced and traced, passes its output checks and
     prints every metric BENCHMARK.json names, with that metric's unit;
  2. a serve stream fed to `wsn_serve --batch` yields records
     byte-identical to the in-process engine's;
  3. a corrupted record and a violated broadcast bound are each caught;
  4. on serve_churn and grid_100k, `attempted` and `failed` follow from
     the seed, not from how many timed passes fit the run's seconds.
Exit status 0 when all of that holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

OUT = os.path.join(run.ROOT, ".bench_build", "smoke")
WSN_SERVE = os.path.join(run.BUILD, "wsn_serve")
failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def driver(*args, seconds="1"):
    """Runs the driver at tiny sizes; returns (exit code, stdout lines,
    parsed last-line JSON or None)."""
    cmd = [run.DRIVER, "--tiny", "--seconds", seconds, "--seed", "3"] + \
        list(args)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, lines, result


def check_metrics(workload, trace, spec):
    code, lines, result = driver("--workload", workload, "--trace", str(trace))
    tag = "%s trace=%d" % (workload, trace)
    expect(code == 0 and result is not None and result["correct"],
           tag + ": exit 0 with correct=true")
    if result is None:
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           tag + ": result has exactly correct/attempted/failed/metrics")
    expect(result["attempted"] >= 1, tag + ": attempted >= 1")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(set(got) == {m["name"] for m in want},
           tag + ": metrics are exactly the BENCHMARK.json list")
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ") and len(line.split()) >= 4}
    for m in want:
        unit_ok = (m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                   and printed.get(m["name"]) == m["unit"])
        if not unit_ok:
            expect(False, tag + ": %s printed with unit %s" %
                   (m["name"], m["unit"]))
    expect("error_rate" in printed, tag + ": error_rate printed")


def check_batch_equality(workload):
    os.makedirs(OUT, exist_ok=True)
    stream = os.path.join(OUT, workload + "_stream.jsonl")
    inproc = os.path.join(OUT, workload + "_inprocess.jsonl")
    batch = os.path.join(OUT, workload + "_batch.jsonl")
    code, _, _ = driver("--workload", workload, "--trace", "0",
                        "--emit-stream", stream, "--emit-records", inproc)
    expect(code == 0, workload + ": stream and records emitted")
    # Exit 1 only means some job failed, which serve_churn expects.
    done = subprocess.run([WSN_SERVE, "--batch", stream, "--jobs", "2",
                           "--out", batch, "--quiet"], timeout=300)
    expect(done.returncode in (0, 1), workload + ": wsn_serve --batch ran")
    with open(inproc, "rb") as a, open(batch, "rb") as b:
        same = a.read() == b.read()
    expect(same, workload + ": wsn_serve --batch records byte-identical "
           "to the in-process engine's")


def check_caught(workload, inject, check_name):
    code, lines, result = driver("--workload", workload, "--trace", "0",
                                 "--inject", inject)
    flagged = any(line.startswith("check " + check_name + " FAILED")
                  for line in lines)
    expect(code == 1 and result is not None and not result["correct"]
           and flagged, "%s: injected %s caught by %s" %
           (workload, inject, check_name))


def check_counts_fixed(workload):
    counts = []
    for seconds in ("1", "3"):
        _, _, result = driver("--workload", workload, "--trace", "0",
                              seconds=seconds)
        counts.append(result and (result["attempted"], result["failed"]))
    expect(counts[0] is not None and counts[0] == counts[1],
           workload + ": attempted and failed the same at 1 s and 3 s")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_metrics(w["name"], trace, spec)
    for workload in ("serve_warm", "serve_churn"):
        check_batch_equality(workload)
    check_caught("serve_warm", "corrupt-record",
                 "records_identical_across_workers")
    check_caught("grid_100k", "bound", "completion_within_bound")
    for workload in ("serve_churn", "grid_100k"):
        check_counts_fixed(workload)
    print("smoke: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
