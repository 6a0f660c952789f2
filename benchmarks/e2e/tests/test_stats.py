import unittest

import _path  # noqa: F401

from benchmarks.e2e import stats
from benchmarks.e2e.workloads import NOMINAL_SECONDS, WORKLOADS, build


class TailRule(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7]), (6 - 2) / 4)

    def test_each_workload_tail_has_ten_ranked_ops_beyond_it(self):
        # ``harness.summarize`` ranks every timed op of the run for the tail:
        # ``plan["ops"]`` samples.
        for name, workload in WORKLOADS.items():
            ranked = build(name, 0, NOMINAL_SECONDS, False)["plan"]["ops"]
            beyond = ranked * (100 - workload.tail_pct) // 100
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND, name)


if __name__ == "__main__":
    unittest.main()
