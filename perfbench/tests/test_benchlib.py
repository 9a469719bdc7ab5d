"""Unit tests of the benchmark's own helpers (perfbench/benchlib.py).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_counts(self):
        values = list(range(1, 101))  # 1..100, shuffled order is fine
        values.reverse()
        self.assertEqual(benchlib.percentile(values, 50), (50, 100, 50))
        self.assertEqual(benchlib.percentile(values, 95), (95, 100, 5))
        self.assertEqual(benchlib.percentile(values, 100), (100, 100, 0))

    def test_rank_rounds_up(self):
        # 0.95 * 390 = 370.5 -> rank 371, so 19 samples lie beyond it.
        values = [float(i) for i in range(390)]
        value, n, beyond = benchlib.percentile(values, 95)
        self.assertEqual((value, n, beyond), (370.0, 390, 19))

    def test_small_samples(self):
        self.assertEqual(benchlib.percentile([7.0], 50), (7.0, 1, 0))
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 95),
                         (3.0, 3, 0))
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 50),
                         (2.0, 3, 1))

    def test_rejects_empty_and_bad_p(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1.0], 101)


class CoveredTest(unittest.TestCase):
    def test_union_and_clipping(self):
        intervals = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (-1.0, 0.5)]
        self.assertAlmostEqual(benchlib.covered(intervals, 0.0, 10.0), 4.5)
        self.assertAlmostEqual(benchlib.covered(intervals, 2.5, 6.5), 2.0)
        self.assertEqual(benchlib.covered([], 0.0, 1.0), 0.0)

    def test_nested(self):
        self.assertAlmostEqual(
            benchlib.covered([(0.0, 10.0), (2.0, 3.0)], 0.0, 5.0), 5.0)


class NormalizeTest(unittest.TestCase):
    ROWS = ('[{"benchmark":"505.mcf_r","workloads":7,"mu_g_v":5.38,'
            '"refrate_seconds":0.409},{"benchmark":"557.xz_r",'
            '"workloads":12,"mu_g_v":0.25,"refrate_seconds":2.5}]')

    def test_drops_only_refrate_seconds(self):
        rows = json.loads(benchlib.normalize_table2(self.ROWS))
        self.assertEqual(rows, [
            {"benchmark": "505.mcf_r", "workloads": 7, "mu_g_v": 5.38},
            {"benchmark": "557.xz_r", "workloads": 12, "mu_g_v": 0.25}])

    def test_digest_ignores_wall_time_only(self):
        other_times = self.ROWS.replace("0.409", "0.9").replace("2.5", "3")
        self.assertEqual(benchlib.table2_digest(self.ROWS),
                         benchlib.table2_digest(other_times))
        other_model = self.ROWS.replace("5.38", "5.39")
        self.assertNotEqual(benchlib.table2_digest(self.ROWS),
                            benchlib.table2_digest(other_model))

    def test_rejects_non_array(self):
        with self.assertRaises(ValueError):
            benchlib.normalize_table2('{"benchmark":"x"}')


class FailureCountingTest(unittest.TestCase):
    REF = [("505.mcf_r", "test", '{"uops":1}'),
           ("557.xz_r", "test", '{"uops":2}')]

    def served(self, id_, pair, ok=True, payload=None, code=""):
        return {"id": id_, "phase": 0, "pair": pair, "ok": ok,
                "code": code, "error": "" if ok else "refused",
                "payload": self.REF[pair][2] if payload is None
                else payload}

    def test_counts_attempted_and_names_failures(self):
        f = benchlib.Failures()
        benchlib.check_served([
            self.served(1, 0),
            self.served(2, 1),
            self.served(3, 1, payload='{"uops":3}'),
            self.served(4, 0, ok=False, payload="", code="queue_full"),
        ], self.REF, f)
        self.assertEqual((f.attempted, f.failed), (4, 2))
        self.assertAlmostEqual(f.frac, 0.5)
        self.assertIn("request 3", f.names[0])
        self.assertIn("557.xz_r", f.names[0])
        self.assertIn("queue_full", f.names[1])

    def test_table2_reps(self):
        payload = NormalizeTest.ROWS
        ref = benchlib.table2_digest(payload)
        reps = [
            {"phase": 0, "ok": True, "error": "", "payload": payload},
            {"phase": 1, "ok": True, "error": "",
             "payload": payload.replace("5.38", "1.0")},
            {"phase": 2, "ok": False, "error": "boom", "payload": ""},
            {"phase": 3, "ok": True, "error": "", "payload": "not json"},
        ]
        f = benchlib.Failures()
        benchlib.check_table2_reps(reps, ref, f)
        self.assertEqual((f.attempted, f.failed), (4, 3))
        self.assertTrue(f.names[0].startswith("table2 call 1"))
        self.assertIn("boom", f.names[1])

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(benchlib.Failures().frac, 1.0)


class ModelCountersTest(unittest.TestCase):
    UOPS = {("a", "refrate"): 100, ("b", "refrate"): 10}

    def span(self, name, category, dur, uops=None):
        attrs = {} if uops is None else {"uops": uops}
        return {"name": name, "category": category, "dur": dur,
                "attrs": attrs}

    def test_cold_counts_every_execution(self):
        tasks = [self.span("a/x", "model_run", 1.0, 7),
                 self.span("b/y", "model_run", 2.0, 9)]
        tasks += [self.span("a/refrate", "refrate_rep", 0.5)] * 3
        # 2 model_run misses + 1 refrate miss.
        runs, uops, seconds = benchlib.model_runs(tasks, 3, self.UOPS)
        self.assertEqual((runs, uops), (5, 7 + 9 + 300))
        self.assertAlmostEqual(seconds, 4.5)

    def test_replays_count_nothing(self):
        tasks = [self.span("a/x", "model_run", 0.001, 7)]
        self.assertEqual(benchlib.model_runs(tasks, 0, self.UOPS),
                         (0, 0, 0))

    def test_mixed_hits_are_not_guessed(self):
        tasks = [self.span("a/x", "model_run", 1.0, 7),
                 self.span("b/y", "model_run", 1.0, 9)]
        self.assertIsNone(benchlib.model_runs(tasks, 1, self.UOPS))


class DeclarationTest(unittest.TestCase):
    """The metrics run.py reports are the ones BENCHMARK.json declares."""

    def test_names_and_units_match(self):
        path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("no BENCHMARK.json next to perfbench/")
        spec = json.loads(path.read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
