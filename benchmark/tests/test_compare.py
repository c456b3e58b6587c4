"""Unit tests for benchmark/compare.py.

    python3 -m unittest discover benchmark/tests
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def doc(digest, p50, ops, failed=0):
    runs = [{"answer_digest": digest, "failed": failed, "e2e": {"p50_us": a, "ops_per_s": b}}
            for a, b in zip(p50, ops)]
    return {"workloads": {"w": {"answer_digest": [digest], "runs": runs}}}


class SummarizeTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        s = compare.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(s["n"], 10)
        self.assertEqual(s["median"], 5.5)
        self.assertEqual((s["q1"], s["q3"]), (2.75, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(compare.summarize([7.5]),
                         {"median": 7.5, "q1": 7.5, "q3": 7.5, "n": 1})

    def test_empty_is_rejected(self):
        with self.assertRaises(ValueError):
            compare.summarize([])

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread({"median": 10, "q1": 9, "q3": 11}), 0.2)


class BoundsTest(unittest.TestCase):
    def test_reads_every_end_to_end_metric(self):
        bounds = compare.load_bounds(SPEC)
        self.assertEqual(bounds["p50_us"], {"unit": "us", "better": "lower", "bound": 0.1})
        self.assertEqual(bounds["ops_per_s"]["better"], "higher")

    def test_rejects_bad_direction_or_bound(self):
        for bad in ({"better": "faster", "bound": 0.1}, {"better": "lower", "bound": 0.3},
                    {"better": "lower", "bound": 0}):
            metric = dict({"name": "m", "unit": "s"}, **bad)
            with self.assertRaises(ValueError):
                compare.load_bounds({"end_to_end": [metric]})

    def test_repository_spec_parses(self):
        with open(os.path.join(compare.ROOT, "BENCHMARK.json")) as f:
            bounds = compare.load_bounds(json.load(f))
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"]["bound"], max(b["bound"] for b in bounds.values()))


class VerdictTest(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_clear_win_is_improved(self):
        change = [x * 0.8 for x in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1), ("improved", 1.0))

    def test_win_needs_nine_tenths_of_pairs(self):
        change = [x * 0.8 for x in self.base[:8]] + [200, 200]
        v, wins = compare.verdict(self.base, change, "lower", 0.1)
        self.assertEqual(wins, 0.8)
        self.assertNotEqual(v, "improved")

    def test_win_needs_ten_pairs(self):
        base = self.base[:3]
        change = [x * 0.8 for x in base]
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), ("within bound", 1.0))

    def test_win_must_exceed_base_spread(self):
        change = [x - 0.5 for x in self.base]  # wins every pair, by less than the IQR
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1)[0], "within bound")

    def test_more_failures_cancel_a_gain(self):
        change = [x * 0.8 for x in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1, more_failures=True)[0],
                         "within bound")

    def test_worse_by_more_than_bound_is_regressed(self):
        change = [x * 1.2 for x in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1)[0], "regressed")
        self.assertEqual(compare.verdict(self.base, [x * 0.8 for x in self.base], "higher",
                                         0.1)[0], "regressed")

    def test_small_change_is_within_bound(self):
        change = [x * 1.03 for x in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1)[0], "within bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [50, 150, 60, 140, 100, 100, 70, 130, 80, 120]
        self.assertEqual(compare.verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0],
                         "unresolved")

    def test_unequal_run_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            compare.verdict([1, 2], [1], "lower", 0.1)


class CompareTest(unittest.TestCase):
    def test_digest_mismatch_is_reported_and_fails(self):
        base = doc("10:aa", [100, 100], [50, 50])
        self.assertEqual(compare.digest_mismatches(base, doc("10:aa", [90, 90], [55, 55])), [])
        self.assertEqual(compare.digest_mismatches(base, doc("11:ab", [90, 90], [55, 55])), ["w"])

    def test_rows_cover_every_metric(self):
        rows = compare.compare(doc("d", [100, 101], [50, 51]), doc("d", [100, 100], [50, 50]),
                               compare.load_bounds(SPEC))
        self.assertEqual([(r[0], r[1], r[4]) for r in rows],
                         [("w", "p50_us", "within bound"), ("w", "ops_per_s", "within bound")])

    def test_main_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, d in (("spec", SPEC), ("base", doc("d", [100] * 4, [50] * 4)),
                            ("same", doc("d", [101] * 4, [50] * 4)),
                            ("slow", doc("d", [150] * 4, [50] * 4)),
                            ("wrong", doc("x", [100] * 4, [50] * 4))):
                paths[name] = os.path.join(tmp, name + ".json")
                with open(paths[name], "w") as f:
                    json.dump(d, f)

            def run(change):
                return compare.main([paths["base"], paths[change], "--spec", paths["spec"]])

            with contextlib.redirect_stdout(io.StringIO()):
                codes = [run("same"), run("slow"), run("wrong")]
        self.assertEqual(codes, [0, 1, 2])


if __name__ == "__main__":
    unittest.main()
