import unittest

import _path  # noqa: F401
import numpy as np

from benchmarks.e2e import gen, harness, verify


class InjectedWrongAnswer(unittest.TestCase):
    def setUp(self):
        self.cols = gen.event_arrays(4, 3000)
        self.boxes = gen.st_ranges(4, 10, gen.NYC_BBOX, gen.NYC_SPAN, (0.3, 0.5), (3, 3),
                                   whole_hours=True)["boxes"]

    def answers(self, kind, grid):
        return [verify.flow_oracle(self.cols, kind, box, grid) for box in self.boxes]

    def test_oracle_counts_every_record_in_range_once(self):
        for kind, grid in (("event_flow", (8, 8, 24)), ("hourly_flow", (3600.0,))):
            for box, tensor in zip(self.boxes, self.answers(kind, grid)):
                self.assertEqual(tensor.sum(), verify._in_range(self.cols, box).sum())

    def test_one_wrong_cell_flips_failed_frac(self):
        for kind, grid in (("event_flow", (8, 8, 24)), ("hourly_flow", (3600.0,))):
            answers = self.answers(kind, grid)
            wrong, _ = verify.check_flow(self.cols, kind, self.boxes, grid, answers)
            self.assertEqual(harness.tally(len(answers), 0, wrong), (0, 0.0))
            # Move one record to a neighbouring cell: same total, wrong answer.
            flat = answers[2].reshape(-1)
            cell = int(np.flatnonzero(flat)[0])
            flat[cell] -= 1
            flat[(cell + 1) % flat.size] += 1
            wrong, problems = verify.check_flow(self.cols, kind, self.boxes, grid, answers)
            self.assertEqual(wrong, [2])
            failed, failed_frac = harness.tally(len(answers), 0, wrong)
            self.assertEqual(failed, 1)
            self.assertGreater(failed_frac, 0.0)
            self.assertTrue(problems)

    def test_stream_checks_catch_a_lost_late_record_and_a_lost_record(self):
        vector = np.array([4.0, 6.0])
        reports = [{"late_records": 1}, {"late_records": 2}]
        self.assertEqual(verify.check_stream(vector, reports, 10, 3, vector.copy(), 10)[0], [])
        wrong, _ = verify.check_stream(vector, reports[:1], 10, 3, vector.copy(), 10)
        self.assertEqual(len(wrong), 1)
        self.assertEqual(harness.tally(5, 0, wrong)[0], 1)
        self.assertEqual(len(verify.check_stream(vector, reports, 10, 3, vector.copy(), 9)[0]), 1)
        self.assertEqual(len(verify.check_stream(vector, reports, 10, 3, vector + 1, 10)[0]), 1)

    def test_serve_checks_catch_a_refusal_and_a_changed_document(self):
        def row(q, doc, status="ok", rnd=0):
            return {"q": q, "doc": doc, "status": status, "count_ok": True, "round": rnd}

        rows = [row(0, "a", rnd=-1), row(0, "a"), row(1, "b"), row(1, "b")]
        one_shot = {0: "a", 1: "b"}
        check = lambda: verify.check_serve(rows, lambda box: one_shot[box], [0, 1])[0]  # noqa: E731
        self.assertEqual(check(), [])
        rows[2]["status"] = "SHED"
        self.assertEqual(check(), [2])
        rows[2]["status"] = "ok"
        rows[3]["doc"] = "changed"
        self.assertEqual(check(), [3])
        rows[3]["doc"] = "b"
        one_shot[1] = "what the Selector says"
        self.assertEqual(check(), ["one-shot 1"])


class MediansOverRounds(unittest.TestCase):
    def test_one_slow_round_moves_the_tail_but_not_the_median(self):
        clean = {"positions": [0, 1, 2, 3], "latencies": [0.010, 0.020, 0.030, 0.040],
                 "errors": [], "wall": 0.1}
        slow = {**clean, "latencies": [0.030, 0.060, 0.090, 0.120], "wall": 0.3}
        shuffled = {**clean, "positions": [3, 2, 1, 0], "latencies": [0.040, 0.030, 0.020, 0.010]}
        got = harness.summarize([clean, slow, shuffled], 75, aligned=True)
        self.assertAlmostEqual(got["op_p50_ms"], 25.0)
        self.assertAlmostEqual(got["throughput_ops_s"], 40.0)
        # The tail ranks all twelve timed ops, the slow round's included.
        self.assertAlmostEqual(got["op_tail_ms"], 45.0)
        self.assertAlmostEqual(
            harness.summarize([clean, clean, shuffled], 75, aligned=True)["op_tail_ms"], 32.5
        )

    def test_unaligned_rounds_report_the_median_round(self):
        rounds = [{"latencies": [0.001 * k] * 9 + [0.1 * k], "errors": [], "wall": 1.0 * k}
                  for k in (1, 2, 3)]
        got = harness.summarize(rounds, 90, aligned=False)
        self.assertAlmostEqual(got["op_p50_ms"], 2.0)
        self.assertAlmostEqual(got["throughput_ops_s"], 5.0)
        self.assertAlmostEqual(got["op_tail_ms"], 12.7)


if __name__ == "__main__":
    unittest.main()
