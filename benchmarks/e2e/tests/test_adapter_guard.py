"""API-drift guard: ``adapter.py`` is the only module that imports ``repro``,
and it uses only what the documentation shows."""

import ast
import importlib
import re
import unittest

import _path
from _path import ROOT

HERE = ROOT / "benchmarks" / "e2e"
DOCS = ("README.md", "docs/api_guide.md", "docs/streaming.md", "docs/serving.md")
#: Keywords that choose between the system's internal code paths.
FORBIDDEN_KEYWORDS = {"use_columnar", "index"}
FORBIDDEN_MODULES = ("repro._deps", "repro.columnar")
#: Public (in their package's ``__all__``) and named by the benchmark's issue,
#: but not shown in the documents above yet.
EXPORTED_ONLY = {"repro.ml": {"time_series_to_vector"}, "repro.serve": {"records_document", "result_document"}}


def repro_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            yield node.module, [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, []


class AdapterGuard(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tree = ast.parse((HERE / "adapter.py").read_text())
        cls.documented = "\n".join((ROOT / d).read_text() for d in DOCS)

    def test_adapter_is_the_only_module_importing_repro(self):
        for path in HERE.rglob("*.py"):
            if path.name == "adapter.py":
                continue
            imports = list(repro_imports(ast.parse(path.read_text())))
            self.assertEqual(imports, [], f"{path} imports {imports}")

    def test_every_imported_name_is_documented(self):
        for module, names in repro_imports(self.tree):
            self.assertFalse(module.startswith(FORBIDDEN_MODULES), module)
            self.assertFalse(any(part.startswith("_") for part in module.split(".")), module)
            for name in names:
                if name in EXPORTED_ONLY.get(module, ()):
                    self.assertIn(name, importlib.import_module(module).__all__)
                    continue
                self.assertRegex(self.documented, rf"\b{re.escape(name)}\b",
                                 f"{module}.{name} is not in {DOCS}")

    def test_no_internal_switches_or_private_attributes(self):
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                used = {k.arg for k in node.keywords} & FORBIDDEN_KEYWORDS
                self.assertFalse(used, f"line {node.lineno}: keyword {used}")
            if isinstance(node, ast.Attribute):
                self.assertFalse(node.attr.startswith("_"),
                                 f"line {node.lineno}: attribute {node.attr}")
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.assertNotIn(node.value, FORBIDDEN_KEYWORDS, f"line {node.lineno}")

    def test_guard_sees_a_violation(self):
        bad = ast.parse("from repro.columnar.cache import selection_cache\n"
                        "Selector(s, t, use_columnar=False)\nrdd._collect_partitions()\n")
        self.assertTrue(any(m.startswith(FORBIDDEN_MODULES) for m, _ in repro_imports(bad)))
        self.assertTrue(any(isinstance(n, ast.Attribute) and n.attr.startswith("_")
                            for n in ast.walk(bad)))


if __name__ == "__main__":
    unittest.main()
