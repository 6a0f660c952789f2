import unittest

import _path  # noqa: F401

from benchmarks.e2e.spans import SpanRecorder, layer_self_times, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        clock = FakeClock()
        rec = SpanRecorder(clock)
        with rec.span("op", "bench", 7):
            clock.now = 1.0
            with rec.span("read", "stio", 7):
                clock.now = 4.0
                with rec.span("decode", "stio", 7):
                    clock.now = 6.0
                clock.now = 7.0
            clock.now = 7.5
            with rec.span("convert", "converters", 7):
                clock.now = 9.5
            clock.now = 10.0
        own = self_times(rec.spans)
        self.assertEqual([own[s.id] for s in rec.spans], [2.0, 4.0, 2.0, 2.0])
        self.assertEqual([s.parent for s in rec.spans], [None, 0, 1, 0])
        layers = layer_self_times(rec.spans)[7]
        self.assertEqual(layers, {"bench": 2.0, "stio": 6.0, "converters": 2.0})
        # The identity the staged pass relies on: layers add up to the op.
        self.assertEqual(sum(layers.values()), rec.spans[0].duration)

    def test_spans_from_foreign_timestamps(self):
        rec = SpanRecorder()
        root = rec.add("query", "serve", 0, 10.0, 10.5)
        rec.add("exec", "serve", 0, 10.3, 10.5, root.id)
        self.assertAlmostEqual(self_times(rec.spans)[root.id], 0.3)


if __name__ == "__main__":
    unittest.main()
