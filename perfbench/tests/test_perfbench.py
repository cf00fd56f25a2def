#!/usr/bin/env python3
"""Tests of the perfbench harness itself.

    python3 perfbench/tests/test_perfbench.py   # from the repository root

- The same seed gives byte-identical pre-generated inputs (the stream
  digest covers every preload set and op stream); another seed does not.
- Two traced runs with one seed give exactly equal count-type per-layer
  metrics and no failed operation.

Counts left out of the exact comparison because they depend on timers:
wire.bytes_per_op (bytes_on_wire includes heartbeats), transport.reconnects
and transport.heartbeats_missed (peer timeouts), transport.partial_writes
(socket buffer state), and every time or rate. The sfcarray maintenance
counts are left out too: they are 0 on every run with the default
skip-list backend, which erases in place, so comparing them proves nothing.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run as perfbench_run  # noqa: E402

WORKLOADS = perfbench_run.WORKLOADS
EXACT_COUNTS = (
    "covering.checks",
    "covering.hits",
    "dominance.cubes",
    "sfcarray.runs_probed",
    "broker.sub_msgs",
    "broker.event_msgs",
    "wal.bytes",
)

BINARY = None


def setUpModule():
    global BINARY
    BINARY = perfbench_run.build()


def harness(*args):
    with tempfile.TemporaryDirectory(dir=perfbench_run.build_root()) as tmp:
        out = subprocess.run([BINARY, *args, "--tmp-dir", tmp], capture_output=True,
                             text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError("harness failed: " + out.stderr)
    return out.stdout.strip().splitlines()


def digest(workload, seed):
    lines = harness("--workload", workload, "--seed", str(seed), "--seconds", "1",
                    "--trace", "0", "--digest-only")
    return next(l.split()[1] for l in lines if l.startswith("stream_digest"))


class StreamTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(digest(w, 7), digest(w, 7))
                self.assertNotEqual(digest(w, 7), digest(w, 8))


class CountsTest(unittest.TestCase):
    def traced(self, workload):
        lines = harness("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", "1")
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_counts_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = self.traced(w), self.traced(w)
                self.assertGreater(a["covering.checks"], 0)
                for name in EXACT_COUNTS:
                    self.assertEqual(a[name], b[name], name)


if __name__ == "__main__":
    unittest.main()
