"""Unit tests for perf_ab.py (run as `python3 -m unittest` from tools/,
wired into ctest as tools.perf_ab.unittest).

Covers result-line parsing, the rejection rule (only "correct": true
with "failed": 0 and a positive ns_per_op enters the summary), the CPU
assignment (own CPUs per side, swapped every pair, two per side for
fleet-mix), the summary arithmetic, and the main loop end to end with
the benchmark runs replaced by canned results.
"""

import contextlib
import io
import json
import unittest
from unittest import mock

import perf_ab


def result_line(ns, correct=True, failed=0, rss=None):
    metrics = {"ns_per_op": {"value": ns, "unit": "ns"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return json.dumps({"correct": correct, "attempted": 100,
                       "failed": failed, "metrics": metrics})


class ParseResult(unittest.TestCase):
    def test_last_line_is_the_result(self):
        out = "host: cpu=x\nworkload=zipf-deep\n" + result_line(12.5)
        result = perf_ab.parse_result(out + "\n")
        self.assertEqual(result["metrics"]["ns_per_op"]["value"], 12.5)

    def test_missing_or_malformed_line_is_none(self):
        self.assertIsNone(perf_ab.parse_result(""))
        self.assertIsNone(perf_ab.parse_result("no json here"))
        self.assertIsNone(perf_ab.parse_result('{"correct": true}'))
        self.assertIsNone(perf_ab.parse_result("[1, 2]"))
        # A result line followed by chatter is not a result.
        self.assertIsNone(perf_ab.parse_result(result_line(1) + "\nbye"))


class Rejection(unittest.TestCase):
    def test_accepts_only_correct_runs_without_failures(self):
        ok = perf_ab.parse_result(result_line(10))
        self.assertIsNone(perf_ab.rejection(ok))
        self.assertEqual(perf_ab.rejection(None), "no result line")
        self.assertIn("correct", perf_ab.rejection(
            perf_ab.parse_result(result_line(10, correct=False))))
        self.assertIn("failed = 3", perf_ab.rejection(
            perf_ab.parse_result(result_line(10, failed=3))))

    def test_needs_a_positive_ns_per_op(self):
        self.assertEqual(perf_ab.rejection(
            {"correct": True, "failed": 0, "metrics": {}}), "no ns_per_op")
        self.assertEqual(perf_ab.rejection(
            perf_ab.parse_result(result_line(0))), "no ns_per_op")


class CpuSets(unittest.TestCase):
    def test_sides_swap_every_pair(self):
        cpus = ["0", "1", "2", "3"]
        self.assertEqual(perf_ab.cpu_sets(cpus, 1, 0), ("0", "1"))
        self.assertEqual(perf_ab.cpu_sets(cpus, 1, 1), ("1", "0"))
        self.assertEqual(perf_ab.cpu_sets(cpus, 1, 2), ("0", "1"))

    def test_two_cpus_per_side(self):
        cpus = ["0", "1", "2", "3"]
        self.assertEqual(perf_ab.cpu_sets(cpus, 2, 0), ("0,1", "2,3"))
        self.assertEqual(perf_ab.cpu_sets(cpus, 2, 1), ("2,3", "0,1"))
        with self.assertRaises(ValueError):
            perf_ab.cpu_sets(["0", "1", "2"], 2, 0)

    def test_command_is_pinned(self):
        cmd = perf_ab.command("/x", "fleet-mix", 7, "2,3")
        self.assertEqual(cmd[:3], ["taskset", "-c", "2,3"])
        self.assertEqual(cmd[-4:], ["--workload", "fleet-mix",
                                    "--seconds", "7"])
        self.assertEqual(perf_ab.command("/x", "zipf-deep", 1)[0],
                         perf_ab.sys.executable)
        self.assertEqual(perf_ab.command("/x", "zipf-deep", 1, None, 5)[-2:],
                         ["--seed", "5"])


class Summarize(unittest.TestCase):
    def test_ratios_median_and_wins(self):
        s = perf_ab.summarize([(100, 50), (200, 80), (100, 110)])
        self.assertEqual(s["pairs"], 3)
        self.assertEqual(s["ratios"], [0.5, 0.4, 1.1])
        self.assertEqual(s["median_ratio"], 0.5)
        self.assertEqual(s["wins"], 2)
        self.assertEqual(s["a_quartiles"], (100, 100, 150))
        self.assertEqual(s["b_quartiles"], (65, 80, 95))

    def test_one_pair_and_none(self):
        s = perf_ab.summarize([(10, 10)])
        self.assertEqual(s["wins"], 0)
        self.assertEqual(s["a_quartiles"], (10, 10, 10))
        self.assertIsNone(perf_ab.summarize([]))
        self.assertIn("no accepted pairs (2 rejected)",
                      perf_ab.format_summary("ring-msi4", None, 2))

    def test_other_metric_medians(self):
        def res(rss):
            return perf_ab.parse_result(result_line(1, rss=rss))
        pairs = [(res(10), res(8)), (res(12), res(9)), (res(11), res(7))]
        self.assertEqual(perf_ab.other_medians(pairs),
                         {"peak_rss_mb": (11, 8)})
        # A metric missing from any run is not summarised.
        pairs.append((res(10), perf_ab.parse_result(result_line(1))))
        self.assertEqual(perf_ab.other_medians(pairs), {})
        line = perf_ab.format_summary(
            "zipf-deep", perf_ab.summarize([(2, 1)]), 0,
            {"peak_rss_mb": (11, 8)})
        self.assertTrue(line.endswith("; peak_rss_mb 11 -> 8"))

    def test_format_names_the_iqr(self):
        line = perf_ab.format_summary(
            "zipf-deep", perf_ab.summarize([(100, 50), (120, 60)]), 0)
        self.assertIn("median B/A 0.500", line)
        self.assertIn("B wins 2/2", line)
        self.assertIn("IQR 105.0-115.0, 10.0", line)


class Main(unittest.TestCase):
    def run_main(self, pairs, argv):
        """main() with the builds stubbed out and run_pair replaced by
        @p pairs, one canned ((A result, err), (B result, err)) per call."""
        calls = []

        def fake_pair(a_dir, b_dir, workload, seconds, cpus, seed):
            calls.append((workload, cpus))
            return pairs[len(calls) - 1]

        out = io.StringIO()
        with mock.patch.object(perf_ab, "build", return_value=True), \
                mock.patch.object(perf_ab.os, "sched_getaffinity",
                                  return_value={3, 2, 1, 0}), \
                mock.patch.object(perf_ab, "run_pair", fake_pair), \
                mock.patch.object(perf_ab.Path, "is_file",
                                  return_value=True), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = perf_ab.main(argv)
        return code, out.getvalue(), calls

    def ok(self, ns):
        return perf_ab.parse_result(result_line(ns)), ""

    def test_all_pairs_accepted(self):
        code, out, calls = self.run_main(
            [(self.ok(100), self.ok(40)), (self.ok(110), self.ok(45))],
            ["a", "b", "--workload", "fleet-mix", "--pairs", "2"])
        self.assertEqual(code, 0)
        self.assertEqual(calls, [("fleet-mix", ("0,1", "2,3")),
                                 ("fleet-mix", ("2,3", "0,1"))])
        self.assertIn("B wins 2/2", out)
        self.assertIn("0 rejected", out)

    def test_incorrect_pair_is_rejected_and_fails(self):
        bad = perf_ab.parse_result(result_line(30, correct=False)), ""
        code, out, _ = self.run_main(
            [(self.ok(100), bad), (self.ok(100), self.ok(90))],
            ["a", "b", "--workload", "zipf-deep", "--pairs", "2"])
        self.assertEqual(code, 1)
        self.assertIn("pair 1: REJECTED (B: correct is not true)", out)
        self.assertIn("B wins 1/1", out)
        self.assertIn("1 rejected", out)

    def test_too_few_cpus_is_a_usage_error(self):
        with mock.patch.object(perf_ab.os, "sched_getaffinity",
                               return_value={4, 5, 6}), \
                contextlib.redirect_stderr(io.StringIO()), \
                self.assertRaises(SystemExit) as ctx:
            perf_ab.main(["a", "b", "--workload", "fleet-mix"])
        self.assertEqual(ctx.exception.code, 2)


if __name__ == "__main__":
    unittest.main()
