#!/usr/bin/env python3
"""Checks the benchmark against its own declaration.

    python3 perfbench/test_metric_names.py      (from the source root)

For every workload in BENCHMARK.json and both modes, runs the
benchmark command briefly and checks that it exits 0, that its oracle
passes, and that the metric names it prints are exactly the ones
BENCHMARK.json declares, with their units.  Also checks that the
exact counts repeat on a second run with the same seed.
"""

import json
import subprocess
import unittest

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)

# Counts that must repeat exactly for a given seed.
EXACT = {
    0: ["minor_words_per_dg", "live_bytes_per_conn"],
    1: ["demux.pcbs_examined_per_lookup", "tcpcore.tx_segments_per_dg",
        "packet.parse_words", "tcpcore.handle_segment_words"],
}


def run(workload, trace, seed=7):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    return done, json.loads(done.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def check_mode(self, trace, key):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                done, result = run(w["name"], trace)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                self.assertEqual(
                    set(result),
                    {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, declared)
                _, again = run(w["name"], trace)
                for name in EXACT[trace]:
                    a = result["metrics"][name]["value"]
                    b = again["metrics"][name]["value"]
                    self.assertEqual(a, b, name)

    def test_end_to_end(self):
        self.check_mode(0, "end_to_end")

    def test_per_layer(self):
        self.check_mode(1, "per_layer")

    def test_unknown_workload_fails(self):
        cmd = SPEC["command"] + ["--workload", "no-such-shape", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
