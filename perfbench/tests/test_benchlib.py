"""Unit tests for the benchmark's helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import benchlib  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        for n in range(21, 5000):
            q = benchlib.tail_percentile(n)
            self.assertGreaterEqual(n * (1 - q / 100), 10 - 1e-9, n)
            # The next whole percentile would leave fewer than ten beyond.
            self.assertLess(n * (1 - (q + 1) / 100), 10, n)

    def test_fixed_values_of_the_workloads(self):
        self.assertEqual(benchlib.tail_percentile(40), 75)
        self.assertEqual(benchlib.tail_percentile(801), 98)
        self.assertEqual(benchlib.tail_percentile(1024), 99)
        self.assertEqual(benchlib.tail_percentile(30), 66)

    def test_no_tail_from_too_few_samples(self):
        self.assertIsNone(benchlib.tail_percentile(20))
        self.assertIsNone(benchlib.tail_percentile(0))

    def test_nearest_rank_leaves_the_samples_beyond(self):
        values = list(range(1, 41))  # 40 samples
        q = benchlib.tail_percentile(len(values))
        tail = benchlib.percentile(values, q)
        self.assertEqual(tail, 30)
        self.assertEqual(sum(v > tail for v in values), 10)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # parent [0,100): children A [10,30) and B [50,90);
        # A has a child [15,20).
        spans = {
            0: (0.0, 100.0, -1),
            1: (10.0, 20.0, 0),
            2: (15.0, 5.0, 1),
            3: (50.0, 40.0, 0),
        }
        st = benchlib.self_times(spans)
        self.assertAlmostEqual(st[0], 40.0)
        self.assertAlmostEqual(st[1], 15.0)
        self.assertAlmostEqual(st[2], 5.0)
        self.assertAlmostEqual(st[3], 40.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = {
            0: (0.0, 10.0, None),
            1: (2.0, 4.0, 0),   # [2,6)
            2: (4.0, 4.0, 0),   # [4,8) overlaps the first
            3: (9.0, 5.0, 0),   # [9,14) runs past the parent's end
        }
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 10 - 6 - 1)

    def test_summary_from_chrome_events(self):
        def ev(i, name, ts, dur, parent):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur,
                    "args": {"id": i, "parent": parent, "op": 7}}
        events = [ev(0, "op", 0, 1000, -1), ev(1, "sim.async_unit", 100, 300, 0),
                  ev(2, "sim.async_unit", 500, 300, 0)]
        rows = benchlib.self_time_summary(events)
        self.assertEqual(rows["sim.async_unit"]["calls"], 2)
        self.assertAlmostEqual(rows["sim.async_unit"]["self_ms"], 0.6)
        self.assertAlmostEqual(rows["op"]["total_ms"], 1.0)
        self.assertAlmostEqual(rows["op"]["self_ms"], 0.4)


class CountMismatch(unittest.TestCase):
    def test_equal_repeats_pass(self):
        records = [("detect.instance0", 694), ("detect.instance1", 12),
                   ("detect.instance0", 694)]
        self.assertEqual(benchlib.repeat_mismatches(records), {})

    def test_differing_repeat_is_reported(self):
        records = [("fleet.repaired", 32), ("fleet.repaired", 33),
                   ("fleet.healthy", 80)]
        self.assertEqual(benchlib.repeat_mismatches(records),
                         {"fleet.repaired": [32, 33]})

    def test_stored_counts_compare_on_common_keys(self):
        stored = {"a": 1, "b": 2, "gone": 5}
        current = {"a": 1, "b": 3, "new": 4}
        self.assertEqual(benchlib.stored_mismatches(stored, current),
                         {"b": (2, 3)})


class Metrics(unittest.TestCase):
    RAW = {
        "min_ops": 40, "setup_s": [1.0, 3.0, 2.0],
        "op_wall_ns": [float(i) * 1e6 for i in range(1, 41)],
        "op_traced": [i % 2 for i in range(40)],
        "timed_wall_ns": 4e9, "timed_cpu_ns": 8e9, "node_steps": 1000,
        "attempted": 41, "failed": 0, "detect_units": [1.0],
        "state_bits_max": 1106, "peak_rss_mb": 500.0,
        "counters": {"nodes": 10.0}, "samples": {},
    }

    def test_end_to_end_has_every_declared_metric(self):
        m = benchlib.end_to_end(self.RAW)
        self.assertEqual(set(m), {n for n, _, _, _ in benchlib.END_TO_END})
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["ops_per_s"], 10.0)
        self.assertEqual(m["op_ms_tail"], 30.0)
        self.assertEqual(m["cpu_ms_per_op"], 200.0)

    def test_per_layer_has_every_declared_metric(self):
        m = benchlib.per_layer(self.RAW, [])
        self.assertEqual(set(m), {n for n, _, _ in benchlib.PER_LAYER})
        self.assertEqual(m["verify.detect_units_p50"], 1.0)


class Manifest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_is_generated_from_benchlib(self):
        path = os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")
        with open(path) as f:
            self.assertEqual(json.load(f), benchlib.manifest())

    def test_manifest_limits(self):
        m = benchlib.manifest()
        names = [w["name"] for w in m["workloads"]]
        names += [e["name"] for e in m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, self.NAME)
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        for e in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(e["unit"], self.UNIT)
        bounds = {e["name"]: e["bound"] for e in m["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
