"""Tests for the hierarchical tracing / profiling subsystem (repro.obs)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.core.converters import Event2TsConverter
from repro.core.extractors import TsFlowExtractor
from repro.core.pipeline import Pipeline
from repro.core.selector import Selector
from repro.core.structures import TimeSeriesStructure
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.obs import (
    Tracer,
    chrome_trace,
    current_tracer,
    installed,
    phase,
    profiled,
    text_tree,
    to_jsonl,
    write_trace_files,
)
from repro.temporal import Duration

from .conftest import make_events

T_EXTENT = 86_400.0
BACKENDS = ["sequential", "thread", "process"]


def _run_pipeline(ctx: EngineContext):
    """A small but real Selection → Conversion → Extraction run."""
    events = make_events(200, t_extent=T_EXTENT)
    pipeline = Pipeline(
        selector=Selector(Envelope(0.0, 0.0, 10.0, 10.0), Duration(0.0, T_EXTENT)),
        converter=Event2TsConverter(
            TimeSeriesStructure.of_interval(Duration(0.0, T_EXTENT), 7_200.0)
        ),
        extractor=TsFlowExtractor(),
    )
    return pipeline.run(ctx, events)


class TestTracerCore:
    def test_span_nesting_and_tree(self):
        tracer = Tracer()
        with tracer.span("outer", "phase") as outer:
            with tracer.span("inner", "stage") as inner:
                assert inner.parent_id == outer.span_id
        assert [s.name for s in tracer.roots()] == ["outer"]
        assert [s.name for s in tracer.children(outer)] == ["inner"]
        assert all(s.end is not None for s in tracer.spans)
        assert inner.duration >= 0.0

    def test_add_span_clamps_and_parents(self):
        tracer = Tracer()
        parent = tracer.add_span("stage", "stage", 10.0, 11.0)
        child = tracer.add_span("task", "task", 10.5, 10.2, parent=parent)
        assert child.end == child.start  # end clamped up to start
        assert child.parent_id == parent.span_id

    def test_counters_and_sources(self):
        tracer = Tracer()
        tracer.counter("x", 2)
        tracer.counter("x", 3)
        assert tracer.counters == {"x": 5}

    def test_counts_land_on_the_booking_threads_span(self):
        tracer = Tracer()

        def book(name):
            thread = threading.Thread(target=tracer.counter, args=(name, 2))
            thread.start()
            thread.join()

        book("bare")  # no span open anywhere: the trace's own counts
        with tracer.span("driver-only") as own:
            book("other-thread")  # an open span is not another thread's scope
            tracer.counter("mine", 1)
            with tracer.span("Selection", "phase") as scope:
                book("pooled")  # nor is an open phase
                tracer.counter("inner", 1)
        assert tracer.counts == {"bare": 2, "other-thread": 2, "pooled": 2}
        assert own.counts == {"mine": 1}
        assert scope.counts == {"inner": 1}
        assert tracer.totals(own) == {"mine": 1, "inner": 1}
        assert tracer.counters == {
            "bare": 2, "other-thread": 2, "pooled": 2, "mine": 1, "inner": 1
        }

    def test_phase_idempotent_reuse(self):
        tracer = Tracer()
        with phase("Selection", tracer) as outer:
            with phase("Selection", tracer) as inner:
                assert inner is outer  # reused, not stacked
            with phase("Conversion", tracer) as other:
                assert other is not outer
        assert len(tracer.find("Selection", "phase")) == 1

    def test_phase_without_tracer_yields_none(self):
        assert current_tracer() is None
        with phase("Selection") as span:
            assert span is None

    def test_other_threads_job_stays_out_of_an_open_phase(self):
        """A second job started on another thread while a phase is open is
        its own root: neither its spans nor its counts nest under the phase."""
        tracer = Tracer()
        seen = {}

        def other_job():
            with tracer.span("other-job") as job:
                tracer.counter("records_out", 7)
                seen["job"] = job

        with phase("Extraction", tracer) as extraction:
            tracer.counter("extract_cells_aggregated", 3)
            t = threading.Thread(target=other_job)
            t.start()
            t.join()
        assert seen["job"].parent_id is None
        assert tracer.children(extraction) == []
        assert tracer.totals(extraction) == {"extract_cells_aggregated": 3}
        assert tracer.totals(seen["job"]) == {"records_out": 7}

    def test_installed_restores_previous(self):
        a, b = Tracer(), Tracer()
        with installed(a):
            assert current_tracer() is a
            with installed(b):
                assert current_tracer() is b
            assert current_tracer() is a
        assert current_tracer() is None


class TestPipelineTracing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_span_tree_on_every_backend(self, backend):
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=2, backend=backend, tracer=tracer)
        flow = _run_pipeline(ctx)
        assert sum(flow.cell_values()) == 200

        roots = tracer.roots()
        assert [r.name for r in roots] == ["pipeline"]
        phases = [s.name for s in tracer.find(category="phase")]
        assert phases == ["Selection", "Conversion", "Extraction"]
        for ph in tracer.find(category="phase"):
            assert ph.parent_id == roots[0].span_id
            stages = [
                c for c in tracer.children(ph) if c.category == "stage"
            ]
            assert stages, f"phase {ph.name} has no stage span on {backend}"
            for stage in stages:
                assert stage.args["backend"] == backend
                tasks = tracer.children(stage)
                assert len(tasks) == stage.args["partitions"]
                for task in tasks:
                    assert task.category == "task"
                    assert task.start >= 0.0 and task.end >= task.start
                    assert "records_out" in task.args

    def test_task_spans_use_worker_tracks_on_thread_backend(self):
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=4, backend="thread", tracer=tracer)
        _run_pipeline(ctx)
        tracks = {t.track for t in tracer.find(category="task")}
        assert tracks  # at least one named worker track
        assert all(track for track in tracks)

    def test_counters_agree_with_job_metrics(self):
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=2, tracer=tracer)
        _run_pipeline(ctx)
        counters = tracer.counters
        metrics = ctx.metrics.snapshot()
        # This pipeline has no shuffle, so every stage is top-level and the
        # traced stage/task/record counts must match the engine's own books.
        assert counters["stages"] == metrics["stages"]
        assert counters["tasks"] == metrics["tasks"]
        assert counters["records_out"] == metrics["records_out"]
        assert counters["broadcasts"] == metrics["broadcasts"]
        assert counters["broadcast_records"] == metrics["broadcast_records"]
        assert counters["broadcast_bytes"] > 0

    def test_shuffle_counters_match_metrics(self):
        from repro.partitioners import TSTRPartitioner

        events = make_events(150, t_extent=T_EXTENT)
        for backend in BACKENDS:
            tracer = Tracer()
            ctx = EngineContext(default_parallelism=2, backend=backend, tracer=tracer)
            selector = Selector(
                Envelope(0.0, 0.0, 10.0, 10.0),
                Duration(0.0, T_EXTENT),
                partitioner=TSTRPartitioner(2, 2),
            )
            try:
                selector.select(ctx, events).count()
            finally:
                ctx.stop()
            counters = tracer.counters
            metrics = ctx.metrics.snapshot()
            assert counters["shuffles"] == metrics["shuffles"] > 0
            assert counters["shuffle_records"] == metrics["shuffle_records"] > 0
            # The thread backend shuffles inside a pool-thread task, which
            # runs under its stage span: the counts still reach the phase.
            (selection,) = tracer.find("Selection", "phase")
            assert tracer.totals(selection)["shuffle_records"] == metrics["shuffle_records"]
            # Nested (shuffle map-side) stages are deliberately untraced, so
            # traced stage/task counts are a subset of the engine totals.
            assert 0 < counters["stages"] <= metrics["stages"]
            assert 0 < counters["tasks"] <= metrics["tasks"]

    def test_selection_phase_counters(self, tmp_path):
        from repro.partitioners import TSTRPartitioner
        from repro.stio import save_dataset

        events = make_events(300, t_extent=T_EXTENT)
        plain_ctx = EngineContext(default_parallelism=4)
        save_dataset(
            tmp_path / "d",
            events,
            "event",
            partitioner=TSTRPartitioner(2, 2),
            ctx=plain_ctx,
        )

        tracer = Tracer()
        ctx = EngineContext(default_parallelism=4, tracer=tracer)
        selector = Selector(Envelope(0.0, 0.0, 4.0, 4.0), Duration(0.0, 30_000.0))
        selector.select(ctx, tmp_path / "d")
        (selection,) = tracer.find("Selection", "phase")
        stats = selector.last_load_stats
        counts = tracer.totals(selection)
        assert counts["partitions_scanned"] == stats.partitions_selected
        assert counts["partitions_pruned"] == stats.partitions_total - stats.partitions_selected
        assert counts["partitions_pruned"] > 0
        assert counts["rtree_probes"] > 0
        assert tracer.counters["partitions_scanned"] == stats.partitions_selected

    def test_untraced_run_emits_nothing(self):
        ctx = EngineContext(default_parallelism=2)
        assert ctx.tracer is None
        _run_pipeline(ctx)  # must not raise, and no tracer state leaks
        assert current_tracer() is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_counters_are_trace_counts_plus_every_roots_totals(backend):
    tracer = Tracer()
    ctx = EngineContext(default_parallelism=2, backend=backend, tracer=tracer)
    try:
        with installed(tracer):
            _run_pipeline(ctx)
            thread = threading.Thread(target=tracer.counter, args=("unscoped", 1))
            thread.start()
            thread.join()
    finally:
        ctx.stop()
    summed = dict(tracer.counts)
    for root in tracer.roots():
        for name, value in tracer.totals(root).items():
            summed[name] = summed.get(name, 0) + value
    # (A lock watcher left installed by strict mode elsewhere in the suite
    # also books here, floats among them: their sum order may differ.)
    assert tracer.counts["unscoped"] == 1
    assert tracer.counters == pytest.approx(summed)
    assert summed["stages"] > 0 and summed["extract_partials_merged"] > 0


class TestExporters:
    def _traced(self):
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=2, tracer=tracer)
        _run_pipeline(ctx)
        return tracer

    def test_chrome_trace_round_trips_json(self):
        tracer = self._traced()
        doc = json.loads(json.dumps(chrome_trace(tracer)))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["args"]["span_id"], int)
        meta = [e for e in events if e["ph"] == "M"]
        assert {"name": "driver"} in [m["args"] for m in meta]
        counter_events = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counter_events} == set(tracer.counters)

    def test_chrome_trace_parent_ids_resolve(self):
        tracer = self._traced()
        doc = chrome_trace(tracer)
        ids = {
            e["args"]["span_id"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e["args"]["parent_id"] is not None:
                assert e["args"]["parent_id"] in ids

    def test_text_tree_mentions_phases_and_counters(self):
        tracer = self._traced()
        tree = text_tree(tracer)
        for needle in ("pipeline", "Selection", "Conversion", "Extraction", "counters:"):
            assert needle in tree
        (line,) = [ln for ln in tree.splitlines() if "Extraction [phase]" in ln]
        assert "extract_partials_merged=" in line  # a span's counts render on its line

    def test_text_tree_reads_the_spans_once(self, monkeypatch):
        """Rendering is linear in spans: one read of the span list, no
        per-span scan for children."""
        tracer = Tracer()
        with tracer.span("root"):
            for i in range(50):
                with tracer.span(f"stage-{i}"):
                    tracer.add_span(f"task-{i}", "task", 0.0, 0.0, parent=tracer.current_span())
        reads = []
        spans = Tracer.spans.fget
        monkeypatch.setattr(Tracer, "spans", property(lambda t: reads.append(1) or spans(t)))
        monkeypatch.setattr(Tracer, "children", lambda *a: pytest.fail("per-span scan"))
        lines = text_tree(tracer).splitlines()
        assert len(reads) == 1
        assert [ln.split()[0] for ln in lines[:4]] == ["root", "stage-0", "task-0", "stage-1"]
        assert len(lines) == 101

    def test_jsonl_lines_all_parse(self):
        tracer = self._traced()
        lines = to_jsonl(tracer).strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        kinds = {p["type"] for p in parsed}
        assert kinds == {"span", "counter"}
        spans = [p for p in parsed if p["type"] == "span"]
        assert [p["counts"] for p in spans] == [s.counts for s in tracer.spans]

    def test_write_trace_files(self, tmp_path):
        tracer = self._traced()
        paths = write_trace_files(tracer, tmp_path / "sub" / "run")
        assert set(paths) == {"chrome", "summary", "jsonl"}
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        json.loads(paths["chrome"].read_text())

    def test_profiled_writes_on_exit(self, tmp_path):
        with profiled(tmp_path / "prof") as tracer:
            ctx = EngineContext(default_parallelism=2)
            assert ctx.tracer is tracer  # installed globally
            ctx.parallelize(range(10), 2).count()
        assert (tmp_path / "prof.trace.json").exists()
        assert current_tracer() is None

    def test_profiled_writes_even_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with profiled(tmp_path / "boom"):
                raise RuntimeError("pipeline exploded")
        assert (tmp_path / "boom.trace.json").exists()


SCRIPT = """\
from repro.core.converters import Event2TsConverter
from repro.core.extractors import TsFlowExtractor
from repro.core.pipeline import Pipeline
from repro.core.selector import Selector
from repro.core.structures import TimeSeriesStructure
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.instances import Event
from repro.temporal import Duration

ctx = EngineContext(default_parallelism=2)
events = [Event.of_point(i % 10, i % 7, i + 0.5, data=i) for i in range(60)]
pipeline = Pipeline(
    selector=Selector(Envelope(0, 0, 10, 10), Duration(0.0, 100.0)),
    converter=Event2TsConverter(
        TimeSeriesStructure.of_interval(Duration(0.0, 100.0), 10.0)
    ),
    extractor=TsFlowExtractor(),
)
flow = pipeline.run(ctx, events)
assert sum(flow.cell_values()) == 60
"""


class TestCli:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_subcommand_exits_zero(self, tmp_path, backend, capsys):
        script = tmp_path / "mini.py"
        script.write_text(SCRIPT)
        out = tmp_path / "traces" / "mini"
        code = main(
            ["--backend", backend, "trace", str(script), "--out", str(out), "--quiet"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "traces" / "mini.trace.json").read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"pipeline", "Selection", "Conversion", "Extraction"} <= names
        backends = {
            e["args"].get("backend")
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "stage"
        }
        assert backends == {backend}

    def test_trace_missing_script_is_an_error(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.py")])
        assert code == 2

    def test_trace_prints_summary_by_default(self, tmp_path, capsys):
        script = tmp_path / "mini.py"
        script.write_text(SCRIPT)
        code = main(["trace", str(script), "--out", str(tmp_path / "t")])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Selection [phase]" in printed
        assert "counters:" in printed

    def test_profile_flag_wraps_other_commands(self, tmp_path, capsys):
        prefix = tmp_path / "profiles" / "gen"
        code = main(
            [
                "--profile",
                str(prefix),
                "generate",
                "nyc",
                "--records",
                "300",
                "--out",
                str(tmp_path / "d"),
            ]
        )
        assert code == 0
        assert (tmp_path / "profiles" / "gen.trace.json").exists()
        assert (tmp_path / "profiles" / "gen.summary.txt").exists()
        assert (tmp_path / "profiles" / "gen.jsonl").exists()

    def test_backend_env_steers_context_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEFAULT_BACKEND", "thread")
        assert EngineContext(default_parallelism=2)._backend.name == "thread"
        monkeypatch.delenv("REPRO_DEFAULT_BACKEND")
        assert EngineContext(default_parallelism=2)._backend.name == "sequential"
