#!/usr/bin/env python3
"""The benchmark's own tests, on tiny inputs (a few minutes, most of it the
one-time build and model training):

    python3 e2ebench/tests.py

- every workload passes a smoke run, traced and untraced;
- the parallel probe of firehose_chunker (2 threads, 4 shards) emits the
  same mentions as its serial passes;
- traced and untraced runs emit the same mentions (the decorator forwards
  exactly), and emd + core.global partition each cycle;
- a timed run fails when a cached model is missing;
- the same seed gives the same input bytes, another seed other bytes;
- the reported F1 (the corpus-order pass) is the same for every seed.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
RESULTS = os.path.join(ROOT, ".bench_build", "work", "results")
WORKLOADS = ["topic_stream_bertweet", "firehose_chunker",
             "serve_two_streams_int8"]
SCALE = "0.03"


def run(workload, seed, trace):
    """Runs one tiny pass through run.py; returns (stdout JSON, record)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
               "--trace", str(trace), "--tweet-scale", SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=1800)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n"
                             f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS,
                           f"{workload}-seed{seed}-trace{trace}.json")) as f:
        record = json.load(f)
    return result, record


class BenchmarkTest(unittest.TestCase):
    records = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.records[(w, trace)] = run(w, 3, trace)

    def test_every_workload_passes_a_smoke_run(self):
        for (w, trace), (result, _record) in self.records.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_parallel_firehose_matches_serial(self):
        serial = self.records[("firehose_chunker", 0)][1]
        traced_result, traced = self.records[("firehose_chunker", 1)]
        self.assertTrue(serial["output_digest"])
        self.assertEqual(serial["output_digest"],
                         traced["parallel_output_digest"])
        self.assertEqual(traced_result["metrics"]["util.lanes"]["value"], 2)

    def test_traced_run_matches_untraced(self):
        for w in WORKLOADS[:2]:
            with self.subTest(workload=w):
                self.assertEqual(self.records[(w, 0)][1]["output_digest"],
                                 self.records[(w, 1)][1]["output_digest"])

    def test_emd_and_global_partition_each_cycle(self):
        # The run itself fails (correct=false) if a traced local call falls
        # outside its cycle; here the shares must also add up.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = self.records[(w, 1)][0]["metrics"]
                share = m["emd.local_share"]["value"]
                self.assertGreater(share, 0.0)
                self.assertLessEqual(share, 1.0)
                self.assertGreaterEqual(m["core.global_ms_p50"]["value"], 0.0)

    def test_reported_f1_does_not_depend_on_the_seed(self):
        for w in WORKLOADS[:2]:
            with self.subTest(workload=w):
                other, record = run(w, 4, 0)
                mine = self.records[(w, 0)]
                self.assertNotEqual(record["input_digest"],
                                    mine[1]["input_digest"])
                self.assertEqual(other["metrics"]["f1"],
                                 mine[0]["metrics"]["f1"])

    def test_missing_model_fails_the_run(self):
        inputs = os.path.join(ROOT, ".bench_build", "work", "inputs")
        path = os.path.join(inputs, f"firehose_chunker-seed3-x{float(SCALE)}.txt")
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            proc = subprocess.run(
                [BINARY, "run", "--workload", "firehose_chunker", "--input", path,
                 "--models", d, "--scratch", d, "--seconds", "0.1", "--trace",
                 "0", "--tweet-scale", SCALE],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)
        self.assertIn("missing", proc.stderr)

    def test_input_is_a_function_of_the_seed(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
            paths = []
            for i, seed in enumerate((5, 5, 6)):
                paths.append(os.path.join(d, f"in{i}.txt"))
                subprocess.run([BINARY, "input", "--workload", "firehose_chunker",
                                "--seed", str(seed), "--tweet-scale", SCALE,
                                "--out", paths[-1]], check=True, timeout=120)
            data = []
            for p in paths:
                with open(p, "rb") as f:
                    data.append(f.read())
        self.assertEqual(data[0], data[1])
        self.assertNotEqual(data[0], data[2])


if __name__ == "__main__":
    unittest.main()
