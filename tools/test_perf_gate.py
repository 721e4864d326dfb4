#!/usr/bin/env python3
"""Unit tests for tools/perf_gate.py's verdicts:  python3 tools/test_perf_gate.py"""

import unittest

import perf_gate

BENCHMARK = {"workloads": [{"name": "w"}], "end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "slots_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}
STEADY = [1.0, 1.01, 0.99, 1.0]


def results(walls, slots=(100.0, 101.0, 99.0, 100.0), **fields):
    """One clean run per (wall, slots) pair, each updated with [fields]."""
    return [dict({"exit": 0, "correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"wall_s": w, "slots_per_s": s}}, **fields)
            for w, s in zip(walls, slots)]


def judge(base, head):
    rows, failures = perf_gate.judge(BENCHMARK, {"w": {"base": base, "head": head}})
    return {r["name"]: r["verdict"] for r in rows}, failures


class Verdicts(unittest.TestCase):
    def test_lower_better_worse_than_bound_fails(self):
        verdicts, failures = judge(results(STEADY), results([1.3, 1.31, 1.29, 1.3]))
        self.assertEqual(verdicts["wall_s"], "regressed")
        self.assertEqual(len(failures), 1)
        self.assertIn("wall_s regressed", failures[0])

    def test_higher_better_worse_than_bound_fails(self):
        verdicts, failures = judge(results(STEADY), results(STEADY, [70.0, 71.0, 69.0, 70.0]))
        self.assertEqual(verdicts, {"wall_s": "ok", "slots_per_s": "regressed"})
        self.assertEqual(len(failures), 1)
        self.assertIn("slots_per_s regressed", failures[0])

    def test_change_within_bound_passes(self):
        verdicts, failures = judge(results(STEADY),
                                   results([1.2, 1.21, 1.19, 1.2], [80.0, 81.0, 79.0, 80.0]))
        self.assertEqual(verdicts, {"wall_s": "ok", "slots_per_s": "ok"})
        self.assertEqual(failures, [])

    def test_wide_base_spread_is_unresolved_and_does_not_fail(self):
        verdicts, failures = judge(results([1.0, 2.0, 1.0, 2.0]), results([3.0] * 4))
        self.assertEqual(verdicts["wall_s"], "unresolved")
        self.assertEqual(failures, [])
        # ... unless every HEAD run beats every base run.
        self.assertEqual(judge(results([1.0, 2.0, 1.0, 2.0]), results([0.5] * 4))[0]["wall_s"], "ok")

    def test_zero_base_median_does_not_pass_a_worse_head(self):
        rows, failures = perf_gate.judge(
            BENCHMARK, {"w": {"base": results([0.0] * 4), "head": results([1.0] * 4)}})
        self.assertEqual([(r["verdict"], r["ratio"]) for r in rows if r["name"] == "wall_s"],
                         [("regressed", None)])
        self.assertEqual(len(failures), 1)
        self.assertIn("| n/a |", perf_gate.markdown("0" * 40, rows, failures))
        self.assertEqual(judge(results([0.0] * 4), results([0.0] * 4)),
                         ({"wall_s": "ok", "slots_per_s": "ok"}, []))

    def test_incorrect_run_fails_naming_side_and_workload(self):
        head = results(STEADY)
        head[2].update(exit=1, correct=False)
        self.assertEqual(judge(results(STEADY), head)[1],
                         ['head: w: run 3 exited 1 with "correct": false'])
        # A run that printed no result at all fails the same way.
        self.assertEqual(judge([{"exit": 2}] + results(STEADY[1:]), results(STEADY))[1],
                         ['base: w: run 1 exited 2 with "correct": null'])

    def test_higher_failed_share_fails(self):
        _, failures = judge(results(STEADY), results(STEADY, failed=1))
        self.assertEqual(failures, ["head: w: failed share 0.1 is above base's 0"])
        self.assertEqual(judge(results(STEADY, failed=1), results(STEADY, failed=1))[1], [])


if __name__ == "__main__":
    unittest.main()
