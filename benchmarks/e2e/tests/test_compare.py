import json
import os
import tempfile
import unittest

import _path  # noqa: F401

from benchmarks.e2e import compare

BOUNDS = {"op_p50_ms": ("lower", 0.10), "throughput_ops_s": ("higher", 0.10)}


def result_file(directory, name, p50, thr, failed_frac=0.0, digest="d"):
    doc = {"workloads": {"w": {
        "digest": digest, "failed_frac": failed_frac,
        "end_to_end": {"op_p50_ms": {"value": p50, "unit": "ms"},
                       "throughput_ops_s": {"value": thr, "unit": "ops/s"}},
    }}}
    path = os.path.join(directory, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


class Verdicts(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def files(self, tag, rows, **kw):
        return [result_file(self.tmp.name, f"{tag}{i}.json", p50, thr, **kw)
                for i, (p50, thr) in enumerate(rows)]

    def verdicts(self, a, b):
        status, rows = compare.compare(a, b, BOUNDS)
        return status, {r["metric"]: r["verdict"] for r in rows}

    def test_same_numbers_are_ok(self):
        a = self.files("a", [(100, 10), (101, 10.1), (99, 9.9)])
        b = self.files("b", [(102, 10), (100, 10.2), (101, 9.9)])
        status, v = self.verdicts(a, b)
        self.assertEqual(status, 0)
        self.assertEqual(v, {"op_p50_ms": "ok", "throughput_ops_s": "ok", "failed_frac": "ok"})

    def test_worse_median_beyond_bound_regresses_either_direction(self):
        a = self.files("a", [(100, 10), (101, 10.1), (99, 9.9)])
        slow = self.files("b", [(115, 10), (116, 10.1), (114, 9.9)])
        status, v = self.verdicts(a, slow)
        self.assertEqual((status, v["op_p50_ms"], v["throughput_ops_s"]), (1, "regressed", "ok"))
        starved = self.files("c", [(100, 8.5), (101, 8.6), (99, 8.4)])
        status, v = self.verdicts(a, starved)
        self.assertEqual((status, v["throughput_ops_s"]), (1, "regressed"))
        # An improvement is never a regression.
        status, v = self.verdicts(slow, a)
        self.assertEqual((status, v["op_p50_ms"]), (0, "ok"))

    def test_spread_wider_than_bound_is_unresolved_not_ok(self):
        a = self.files("a", [(80, 10), (100, 10), (120, 10), (100, 10)])
        b = self.files("b", [(100, 10), (101, 10), (99, 10), (100, 10)])
        status, v = self.verdicts(a, b)
        self.assertEqual((status, v["op_p50_ms"]), (0, "unresolved"))

    def test_higher_failed_frac_fails_the_comparison(self):
        a = self.files("a", [(100, 10)])
        b = self.files("b", [(100, 10)], failed_frac=0.01)
        status, v = self.verdicts(a, b)
        self.assertEqual((status, v["failed_frac"]), (1, "regressed"))

    def test_different_inputs_are_refused(self):
        a = self.files("a", [(100, 10)])
        b = self.files("b", [(100, 10)], digest="other")
        status, rows = compare.compare(a, b, BOUNDS)
        self.assertEqual(status, 2)
        self.assertEqual(rows[0]["verdict"], "different inputs")


if __name__ == "__main__":
    unittest.main()
