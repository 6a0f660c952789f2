"""``BENCHMARK.json`` against the driver's contract and the registry."""

import json
import re
import unittest

import _path  # noqa: F401
from _path import ROOT

from benchmarks.e2e import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.text = (ROOT / "BENCHMARK.json").read_text()
        cls.spec = json.loads(cls.text)

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertLessEqual(len(self.text), 64 * 1024)
        self.assertEqual(spec["paths"], ["benchmarks/e2e"])
        self.assertTrue(all(len(c) <= 200 for c in spec["command"]) and len(spec["command"]) <= 32)
        self.assertEqual(spec["run_seconds"], workloads.NOMINAL_SECONDS)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        runs = 4 + 22 * len(spec["workloads"])
        self.assertLess(runs * 30, 3420 + 1)

    def test_names_units_and_bounds(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_matches_the_registry(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for section, registry in (("end_to_end", workloads.END_TO_END),
                                  ("per_layer", workloads.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in self.spec[section]}
            self.assertEqual(listed, registry)


if __name__ == "__main__":
    unittest.main()
