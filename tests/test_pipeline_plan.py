"""One lowering, one seam: how ``Pipeline`` turns a request into work.

``run``, ``run_incremental(state=)`` and ``run_incremental(since=)`` each
lower their request exactly once — one ``metadata.json`` parse, one pruning
read — and execute that plan; ``explain`` shows the same plan; a traced run
reports it on the root ``pipeline`` span.  ``repro.stream`` holds state and
bookkeeping only: it reaches into nothing private, and the fused/staged
choice is made in ``core/pipeline.py`` alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core import Pipeline, Selector, TimeSeriesStructure
from repro.core.converters import Event2TsConverter
from repro.core.extractors import TsFlowExtractor
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.obs.tracer import Tracer
from repro.partitioners import TSTRPartitioner
from repro.stio import StDataset
from repro.stio.metadata import DatasetMetadata
from repro.temporal import Duration
from tests import reference
from tests.conftest import make_events

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
AREA = Envelope(0.0, 0.0, 10.0, 10.0)
SPAN = Duration(0.0, 86_400.0)


def pipeline(path: str, **selector_kwargs) -> Pipeline:
    """An hourly-flow plan that lowers to ``path`` over a dataset directory."""
    extractor = TsFlowExtractor()
    if path == "staged":
        extractor = reference.folding(extractor)  # no agg_spec: cannot fuse
    return Pipeline(
        Selector(AREA, SPAN, **selector_kwargs),
        Event2TsConverter(TimeSeriesStructure.of_interval(SPAN, 3_600.0)),
        extractor,
    )


@pytest.fixture
def feed(tmp_path):
    """Two ingested micro-batches; returns ``(path, watermark after the first)``."""
    events = sorted(make_events(400, t_extent=SPAN.end), key=lambda e: e.temporal.end)
    ds = StDataset(tmp_path / "feed")
    ds.ingest(events[:200], partitioner=TSTRPartitioner(1, 2), instance_type="event")
    mark = ds.metadata().watermark
    ds.ingest(events[200:], partitioner=TSTRPartitioner(1, 2))
    return str(tmp_path / "feed"), mark


def calls(ctx, pipe, source, mark, state) -> dict:
    """Every entry point that executes a plan, by name (``state``: a
    finished bootstrap run's)."""
    return {
        "run": lambda: pipe.run(ctx, source),
        "run_incremental(state=None)": lambda: pipe.run_incremental(ctx, source),
        "run_incremental(state=)": lambda: pipe.run_incremental(ctx, source, state=state),
        "run_incremental(since=)": lambda: pipe.run_incremental(ctx, source, since=mark),
    }


class TestOneLowering:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("path", ["fused", "staged"])
    def test_one_metadata_parse_and_one_pruning_read_per_call(
        self, feed, monkeypatch, path, traced
    ):
        source, mark = feed
        ctx = EngineContext(default_parallelism=4, tracer=Tracer() if traced else None)
        pipe = pipeline(path)
        assert pipe.explain(ctx, source)["path"] == path
        state = pipe.run_incremental(ctx, source).state
        seen = {"parse": 0, "read": 0}
        load, read = DatasetMetadata.load.__func__, StDataset.read

        def counting_load(cls, directory):
            seen["parse"] += 1
            return load(cls, directory)

        def counting_read(self, *args, **kwargs):
            seen["read"] += 1
            return read(self, *args, **kwargs)

        monkeypatch.setattr(DatasetMetadata, "load", classmethod(counting_load))
        monkeypatch.setattr(StDataset, "read", counting_read)
        for name, call in calls(ctx, pipe, source, mark, state).items():
            seen.update(parse=0, read=0)
            assert call().result is not None if "incremental" in name else call() is not None
            assert seen == {"parse": 1, "read": 1}, name


class TestTracedRunsShowTheirPlan:
    @pytest.mark.parametrize("path", ["fused", "staged"])
    def test_every_entry_point_sits_under_a_root_span_that_explains_it(self, feed, path):
        source, mark = feed
        knobs = dict(partitioner=TSTRPartitioner(2, 2), index=False)
        plain = EngineContext(default_parallelism=4)
        pipe = pipeline(path, **knobs)
        explained = pipe.explain(plain, source)
        assert explained["path"] == path
        state = pipe.run_incremental(plain, source).state
        offset = state.position
        assert offset == explained["blocks_total"] > 0
        for name in calls(plain, pipe, source, mark, state):
            tracer = Tracer()
            traced = EngineContext(default_parallelism=4, tracer=tracer)
            calls(traced, pipe, source, mark, state)[name]()
            (root,) = tracer.find("pipeline")
            assert root.parent_id is None, name
            assert root.args["path"] == path == explained["path"], name
            assert root.args["reason"] == explained["reason"], name
            assert set(explained) | {"offset"} <= set(root.args), name
            phases = {s.name for s in tracer.children(root) if s.category == "phase"}
            if name == "run_incremental(state=)":
                # Nothing new since the bootstrap: the plan is the whole
                # suffix past ``offset`` — no block, no phase.
                assert (root.args["offset"], root.args["blocks_total"]) == (offset, 0), name
                assert not phases, name
                continue
            assert root.args["offset"] == 0, name
            assert phases == (
                {"FusedScan"} if path == "fused" else {"Selection", "Conversion", "Extraction"}
            ), name
            # A fused plan ignores every knob that shapes the staged RDD; a
            # staged state-mode plan only the shuffle ones; a staged run none.
            if path == "fused":
                assert root.args["ignored"] == ["partitioner", "index"], name
            elif "state" in name:
                assert root.args["ignored"] == ["partitioner"], name
            else:
                assert root.args["ignored"] == [], name


class TestOneSeam:
    @staticmethod
    def private_reads(tree: ast.AST) -> list[str]:
        """``x._name`` reads where ``x`` is not ``self`` / ``cls`` / ``super()``."""
        found = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            if node.attr.startswith("__") and node.attr.endswith("__"):
                continue
            owner = node.value
            own = isinstance(owner, ast.Name) and owner.id in ("self", "cls")
            own |= (
                isinstance(owner, ast.Call)
                and isinstance(owner.func, ast.Name)
                and owner.func.id == "super"
            )
            if not own:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        return found

    @staticmethod
    def compares(tree: ast.AST, literal: str) -> bool:
        return any(
            isinstance(operand, ast.Constant) and operand.value == literal
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for operand in [node.left, *node.comparators]
        )

    def test_stream_reads_no_private_attribute_of_another_object(self):
        modules = sorted((SRC / "stream").glob("*.py"))
        assert modules
        for path in modules:
            assert self.private_reads(ast.parse(path.read_text())) == [], path.name

    def test_the_fused_path_is_chosen_in_the_pipeline_module_only(self):
        choosers = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if self.compares(ast.parse(path.read_text()), "fused")
        ]
        assert choosers == ["core/pipeline.py"]
        assert '"fused"' not in "".join(p.read_text() for p in (SRC / "stream").glob("*.py"))

    def test_the_guard_sees_a_violation(self):
        bad = ast.parse(
            "path, _, ds = pipeline._lower(source)\n"
            "if path == 'fused':\n    result = pipeline._shell(result)\n"
            "self._ok = super()._payload() + cls._table\n"
        )
        assert len(self.private_reads(bad)) == 2
        assert self.compares(bad, "fused")
