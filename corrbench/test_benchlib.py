#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 corrbench/test_benchlib.py

The input tests build corrob and the harness into .bench_build/ first,
as a benchmark run does.
"""

import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402
import run  # noqa: E402


class SeedTest(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(benchlib.derive_seed(7, "job", 3),
                         benchlib.derive_seed(7, "job", 3))

    def test_seeds_streams_and_indices_differ(self):
        seen = {benchlib.derive_seed(seed, stream, index)
                for seed in range(20) for stream in ("job", "deltas", "reads")
                for index in range(20)}
        self.assertEqual(len(seen), 20 * 3 * 20)

    def test_fits_a_positive_int64(self):
        for seed in (0, 1, 2**64 - 1):
            value = benchlib.derive_seed(seed, "corpus")
            self.assertGreaterEqual(value, 0)
            self.assertLess(value, 2**63)


class PercentileRuleTest(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        for n in range(11, 3000):
            index = benchlib.tail_index(n)
            self.assertGreaterEqual(n - 1 - index, 10, n)
            # The highest such index, unless the p90 cap binds.
            self.assertTrue(index == n - 11 or
                            index == math.ceil(0.90 * n) - 1, n)

    def test_capped_at_p90(self):
        self.assertEqual(benchlib.tail_index(5000), 4499)
        self.assertAlmostEqual(benchlib.tail_level(5000), 90.0)
        self.assertAlmostEqual(benchlib.tail_level(100), 90.0)
        self.assertAlmostEqual(benchlib.tail_level(50), 80.0)

    def test_too_few_samples(self):
        self.assertIsNone(benchlib.tail_index(10))
        self.assertIsNone(benchlib.tail_level(0))

    def test_failures_rank_as_infinite(self):
        ok = [float(i) for i in range(1, 91)]
        p50, tail, level, n = benchlib.latency_summary(ok, 10, 60000.0)
        self.assertEqual(n, 100)
        self.assertEqual(level, 90.0)
        self.assertEqual(tail, 90.0)
        self.assertEqual(p50, 50.5)
        # One more failure pushes the tail onto a failed operation.
        _, tail, _, _ = benchlib.latency_summary(ok, 11, 60000.0)
        self.assertEqual(tail, 60000.0)

    def test_failed_majority_moves_the_median(self):
        p50, _, _, _ = benchlib.latency_summary([1.0] * 20, 21, 60000.0)
        self.assertEqual(p50, 60000.0)


class AccountingTest(unittest.TestCase):
    def op(self, sched, send, status="ok"):
        return {"sched_ns": sched, "send_ns": send, "status": status}

    def test_lateness_issued_and_failures(self):
        ops = [self.op(-1_000_000, -900_000),  # warm-up: not counted
               self.op(0, 0), self.op(1_000_000, 3_000_000),
               self.op(2_000_000, 2_500_000, "shed"),
               self.op(3_000_000, -1, "not_issued"),
               # Scheduled after the window: neither offered nor failed.
               self.op(10_000_000, -1, "not_issued")]
        offered, issued, late_ms, failed = benchlib.open_loop_accounting(
            ops, window_ns=5_000_000)
        self.assertEqual(offered, 4)
        self.assertEqual(issued, 3)
        self.assertEqual(late_ms, [0.0, 2.0, 0.5])
        self.assertEqual(failed, 2)


class SelfTimeTest(unittest.TestCase):
    def span(self, id_, parent, start, end, name="x"):
        return {"id": id_, "parent": parent, "start_ns": start,
                "end_ns": end, "name": name}

    def test_children_are_subtracted_once(self):
        spans = [self.span(1, 0, 0, 100, "job"),
                 self.span(2, 1, 10, 40, "data.parse"),
                 self.span(3, 1, 30, 60, "core.run"),  # overlaps span 2
                 self.span(4, 3, 35, 45, "core.inner")]
        own = benchlib.self_times(spans)
        self.assertEqual(own, {1: 50, 2: 30, 3: 20, 4: 10})
        per_layer = benchlib.layer_self_ms(spans, ("data", "core"))
        self.assertAlmostEqual(per_layer["data"], 30 / 1e6)
        self.assertAlmostEqual(per_layer["core"], 30 / 1e6)


class InputsTest(unittest.TestCase):
    """Seeded inputs are byte-identical per seed and differ across seeds."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.dir = tempfile.TemporaryDirectory(dir=run.BUILD)
        cls.path = Path(cls.dir.name)

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def corpus(self, name, kind, facts, sources, seed):
        out = self.path / name
        run.harness(["setup", "--kind", kind, "--facts", facts, "--sources",
                     sources, "--seed", seed, "--out", out])
        return out.read_bytes()

    def deltas(self, corpus, seed):
        return subprocess.run(
            [str(run.HARNESS), "deltas", "--corpus", str(corpus), "--seed",
             str(seed), "--batches", "50"],
            check=True, stdout=subprocess.PIPE).stdout

    def test_batch_corpora(self):
        seed_a = benchlib.derive_seed(1, "job", 0)
        seed_b = benchlib.derive_seed(2, "job", 0)
        a1 = self.corpus("a1.csv", "synthetic", 2000, 10, seed_a)
        a2 = self.corpus("a2.csv", "synthetic", 2000, 10, seed_a)
        b = self.corpus("b.csv", "synthetic", 2000, 10, seed_b)
        self.assertEqual(a1, a2)
        self.assertNotEqual(a1, b)
        # The CLI writes the same bytes as the in-process generator.
        cli = self.path / "cli.csv"
        subprocess.run([str(run.CORROB), "generate", "--kind", "synthetic",
                        "--facts", "2000", "--sources", "10", "--seed",
                        str(seed_a), "--output", str(cli)],
                       check=True, stdout=subprocess.DEVNULL)
        self.assertEqual(cli.read_bytes(), a1)

    def test_serve_corpus_and_delta_stream(self):
        a1 = self.corpus("r1.csv", "restaurant", 3000, 6, 2012)
        a2 = self.corpus("r2.csv", "restaurant", 3000, 6, 2012)
        self.assertEqual(a1, a2)
        corpus = self.path / "r1.csv"
        d1 = self.deltas(corpus, benchlib.derive_seed(1, "deltas"))
        self.assertEqual(d1, self.deltas(corpus, benchlib.derive_seed(1, "deltas")))
        self.assertNotEqual(d1, self.deltas(corpus, benchlib.derive_seed(2, "deltas")))
        batches = {line.split(b"\t")[0] for line in d1.splitlines()}
        self.assertEqual(len(batches), 50)


if __name__ == "__main__":
    unittest.main()
