import unittest

import _path  # noqa: F401
import numpy as np

from benchmarks.e2e import gen, workloads


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 5, 12, True)["digest"]
            b = workloads.build(name, 5, 12, True)["digest"]
            c = workloads.build(name, 6, 12, True)["digest"]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_ranges_stay_inside_and_keep_their_class_size(self):
        r = gen.st_ranges(3, 10, gen.NYC_BBOX, gen.NYC_SPAN, (0.2, 0.4), (5, 7), passes=3,
                          whole_hours=True)
        boxes, cls = r["boxes"], r["cls"]
        self.assertEqual(len(boxes), 36)
        self.assertEqual(np.bincount(cls).tolist(), [15, 21])
        # Every pass holds every range once, a hair away from its first copy.
        for p in range(3):
            self.assertEqual(sorted(r["op"][12 * p: 12 * (p + 1)].tolist()), list(range(12)))
        first = boxes[:12][np.argsort(r["op"][:12])]
        third = boxes[24:][np.argsort(r["op"][24:])]
        self.assertFalse(np.array_equal(first, third))
        self.assertLess(np.abs(first - third)[:, :4].max(), 1e-4)  # degrees
        self.assertLess(np.abs(first - third)[:, 4:].max(), 60.0)  # seconds
        x0, y0, x1, y1 = gen.NYC_BBOX
        self.assertTrue(np.all(boxes[:, 0] >= x0) and np.all(boxes[:, 2] <= x1))
        self.assertTrue(np.all(boxes[:, 4] >= gen.T0))
        self.assertTrue(np.all(boxes[:, 5] <= gen.T0 + gen.NYC_SPAN))
        hours = (boxes[:, 5] - boxes[:, 4]) / gen.HOUR
        self.assertTrue(np.array_equal(hours, np.round(hours)))

    def test_every_batch_range_selects_something(self):
        built = workloads.build("hourly_flow_proc", 2, 12, True)
        cols = built["data"]
        for box in built["plan"]["boxes"]:
            inside = (
                (cols["lon"] >= box[0]) & (cols["lon"] <= box[2])
                & (cols["lat"] >= box[1]) & (cols["lat"] <= box[3])
                & (cols["t"] >= box[4]) & (cols["t"] <= box[5])
            )
            self.assertGreater(int(inside.sum()), 0)

    def test_feed_is_complete_and_late_count_is_exact(self):
        feed = gen.stream_feed(9, 0, 12, 200, 0.03)
        self.assertEqual(sum(b["t"].size for b in feed["batches"]), 12 * 200)
        watermark, late = -np.inf, 0
        for batch in feed["batches"]:
            late += int((batch["t"] <= watermark).sum())
            watermark = max(watermark, batch["t"].max())
        self.assertEqual(late, feed["late"])
        self.assertEqual(feed["late"], 11 * 6)

    def test_zipf_stream_repeats_popular_queries(self):
        q = gen.zipf_queries(1, 100, 2000, 2, 0.15, 1.0)
        self.assertEqual(q["draws"].shape, (2, 2000))
        top_share = np.bincount(q["draws"].ravel(), minlength=100).max() / 4000
        self.assertGreater(top_share, 0.1)


if __name__ == "__main__":
    unittest.main()
