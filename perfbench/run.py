#!/usr/bin/env python3
"""Receive-path benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds perfbench/perfbench.exe
from source with dune (into .bench_build/), runs it, checks that the
metric names it prints are exactly the ones BENCHMARK.json declares
for the run's mode, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"<name>": {"value": ..., "unit": "..."}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones.  Exits non-zero when the build fails,
the program's oracle finds a wrong outcome, or the output does not
match BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    """(name -> unit) for the run's mode, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace == 1 else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exited %d)" % done.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = p.parse_args()

    units = declared_metrics(a.trace)
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (a.workload, a.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("no result (exit %d)" % done.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("unreadable result: %r" % lines[-1])

    names = set(raw["metrics"])
    if names != set(units):
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - names), sorted(names - set(units))))
    bad = [k for k, v in raw["metrics"].items() if not math.isfinite(v)]
    if bad:
        fail("non-finite metrics: %s" % bad)

    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in raw["metrics"].items()},
    }
    print(json.dumps(result))
    if done.returncode != 0 or not raw["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
