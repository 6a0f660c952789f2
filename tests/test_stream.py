"""Streaming: ingestion, watermarks, incremental parity, windows.

The load-bearing suite here is the **incremental parity gate**: a
dataset fed in K micro-batches and processed by
``Pipeline.run_incremental`` must produce bit-identical extraction
output to a single batch run over the union — on all three backends,
with the float-summing speed extractor (where merge order shows up in
the last bit), and with chaos-injected worker loss mid-batch.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.aggregate import CellTable
from repro.core import Pipeline, Selector, TimeSeriesStructure
from repro.core.converters import Event2TsConverter, Traj2TsConverter
from repro.core.extractors import CellAggExtractor, TsFlowExtractor, TsSpeedExtractor
from repro.engine import EngineContext
from repro.engine.faults import FaultPlan, FaultRule, PipelineCheckpoint
from repro.geometry import Envelope
from repro.instances import Event, TimeSeries
from repro.obs.tracer import Tracer, installed
from repro.partitioners import TSTRPartitioner
from repro.stio import StDataset
from repro.stio.metadata import DatasetMetadata
from repro.stream import (
    StreamState,
    WindowedFlowExtractor,
    WindowedSpeedExtractor,
)
from repro.temporal import Duration
from tests import reference
from tests.conftest import make_events, make_trajectories

ALL_BACKENDS = ["sequential", "thread", "process"]

AREA = Envelope(0.0, 0.0, 10.0, 10.0)
DAY = 86_400.0


def make_ctx(backend: str = "sequential", **kwargs) -> EngineContext:
    options = kwargs.pop("backend_options", {})
    if backend == "process":
        options.setdefault("warmup", False)
    return EngineContext(
        default_parallelism=4,
        backend=backend,
        backend_options=options or None,
        **kwargs,
    )


def event_batches(k: int = 4, per_batch: int = 250) -> list[list[Event]]:
    """K seeded micro-batches, batch i covering day i."""
    batches = []
    for i in range(k):
        day = make_events(per_batch, seed=100 + i, t_extent=DAY)
        batches.append(
            [
                Event.of_point(
                    e.spatial.x,
                    e.spatial.y,
                    e.temporal.start + i * DAY,
                    data=e.data,
                )
                for e in day
            ]
        )
    return batches


def flow_pipeline(days: int = 4, temporal=None, **selector_kwargs) -> Pipeline:
    span = Duration(0.0, days * DAY)
    return Pipeline(
        selector=Selector(AREA, temporal or span, **selector_kwargs),
        converter=Event2TsConverter(
            TimeSeriesStructure.of_interval(span, 6 * 3_600.0)
        ),
        extractor=TsFlowExtractor(),
    )


# ---------------------------------------------------------------------------
# Watermark persistence


class TestWatermark:
    def test_round_trips_through_metadata(self, tmp_path):
        StDataset.write(tmp_path / "ds", [[ ]], "event", watermark=123.5)
        assert DatasetMetadata.load(tmp_path / "ds").watermark == 123.5

    def test_absent_by_default(self, tmp_path):
        StDataset.write(tmp_path / "ds", [make_events(10)], "event")
        meta = DatasetMetadata.load(tmp_path / "ds")
        assert meta.watermark is None
        assert "watermark" not in json.loads(
            (tmp_path / "ds" / "metadata.json").read_text()
        )

    def test_merge_keeps_max(self):
        a = DatasetMetadata("event", [], watermark=100.0)
        b = DatasetMetadata("event", [], watermark=50.0)
        assert a.merged_with(b).watermark == 100.0
        assert b.merged_with(a).watermark == 100.0

    def test_merge_with_absent_side(self):
        a = DatasetMetadata("event", [], watermark=100.0)
        b = DatasetMetadata("event", [])
        assert a.merged_with(b).watermark == 100.0
        assert b.merged_with(a).watermark == 100.0
        assert b.merged_with(b).watermark is None

    def test_in_place_rewrite_preserves_watermark(self, tmp_path):
        events = make_events(50)
        StDataset.write(tmp_path / "ds", [events], "event", watermark=77.0)
        StDataset.write(tmp_path / "ds", [events[:25], events[25:]], "event")
        meta = DatasetMetadata.load(tmp_path / "ds")
        assert meta.watermark == 77.0
        assert meta.generation == 1

    def test_convert_preserves_watermark(self, tmp_path, ctx):
        reference.write_v1_dataset(tmp_path / "ds", [make_events(40)], "event", watermark=9.0)
        out = StDataset(tmp_path / "ds").convert(out=tmp_path / "v2")
        assert out.metadata().watermark == 9.0
        assert StDataset(tmp_path / "ds").convert().metadata().watermark == 9.0


# ---------------------------------------------------------------------------
# Ingestion


class TestIngest:
    def test_first_ingest_creates_dataset(self, tmp_path):
        batch = make_events(100, t_extent=DAY)
        report = StDataset(tmp_path / "feed").ingest(batch, instance_type="event")
        assert report.records == 100
        assert report.blocks_added == 1
        assert report.watermark == max(e.temporal.end for e in batch)
        assert report.previous_watermark is None
        assert report.advanced
        meta = DatasetMetadata.load(tmp_path / "feed")
        assert meta.watermark == report.watermark

    def test_first_ingest_requires_instance_type(self, tmp_path):
        with pytest.raises(ValueError, match="instance_type"):
            StDataset(tmp_path / "feed").ingest(make_events(5))

    def test_batches_continue_numbering_and_bump_generation(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for i, batch in enumerate(event_batches(3)):
            kwargs = {"instance_type": "event"} if i == 0 else {}
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2), **kwargs)
        meta = ds.metadata()
        assert meta.generation == 2  # creation is gen 0, two appends
        names = [p.filename for p in meta.partitions]
        assert names == sorted(names)
        assert len(set(names)) == len(names)

    def test_watermark_advances_per_batch(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        highs = []
        for batch in event_batches(3):
            report = ds.ingest(batch, instance_type="event")
            highs.append(max(e.temporal.end for e in batch))
            assert report.watermark == max(highs)

    def test_late_batch_counted_not_dropped_and_mark_holds(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        ds.ingest(day1, instance_type="event")  # day 1 first
        mark = ds.metadata().watermark
        report = ds.ingest(day0)  # day 0 arrives late
        assert report.late_records == len(day0)
        assert report.watermark == mark  # monotone: no regression
        assert not report.advanced
        assert report.watermark_lag > 0
        assert ds.metadata().total_records == len(day0) + len(day1)

    def test_empty_batch_is_a_noop(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        ds.ingest(make_events(10), instance_type="event")
        before = ds.metadata()
        report = ds.ingest([])
        assert report.records == 0 and report.blocks_added == 0
        after = ds.metadata()
        assert after.generation == before.generation
        assert after.watermark == before.watermark

    def test_ingest_partitioner_fits_batch_alone(self, tmp_path):
        """T-STR maintenance: each batch gets its own cells; resident
        blocks are untouched (byte-identical before and after)."""
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], partitioner=TSTRPartitioner(2, 2),
                  instance_type="event")
        first_blocks = {
            p.filename: (tmp_path / "feed" / p.filename).read_bytes()
            for p in ds.metadata().partitions
        }
        ds.ingest(event_batches(2)[1], partitioner=TSTRPartitioner(2, 2))
        for name, blob in first_blocks.items():
            assert (tmp_path / "feed" / name).read_bytes() == blob

    def test_counters_reach_the_tracer(self, tmp_path):
        tracer = Tracer()
        with installed(tracer):
            ds = StDataset(tmp_path / "feed")
            day0, day1 = event_batches(2)
            ds.ingest(day1, instance_type="event")
            ds.ingest(day0)  # late
        assert tracer.counters["ingest_batches"] == 2
        assert tracer.counters["ingest_records"] == len(day0) + len(day1)
        assert tracer.counters["ingest_late_records"] == len(day0)
        assert tracer.counters["watermark_lag"] > 0


# ---------------------------------------------------------------------------
# Compaction


class TestCompaction:
    def test_threshold_triggers_rebalance(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(4, per_batch=100):
            report = ds.ingest(
                batch,
                partitioner=TSTRPartitioner(1, 2),
                rebalance_threshold=6,
                instance_type="event",
            )
        assert report.compacted
        assert report.blocks_compacted > 6
        meta = ds.metadata()
        assert len(meta.partitions) <= 6
        assert meta.total_records == 400

    def test_compaction_preserves_watermark_and_bumps_generation(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(3, per_batch=80):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        before = ds.metadata()
        replaced = ds.compact(TSTRPartitioner(2, 1))
        assert replaced == len(before.partitions)
        after = ds.metadata()
        assert after.watermark == before.watermark
        assert after.generation == before.generation + 1
        assert after.total_records == before.total_records

    def test_compaction_removes_orphan_blocks(self, tmp_path):
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(4, per_batch=60):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        ds.compact(TSTRPartitioner(1, 1))
        named = {p.filename for p in ds.metadata().partitions}
        on_disk = {p.name for p in (tmp_path / "feed").glob("part-*")}
        assert on_disk == named

    def test_compaction_counter(self, tmp_path):
        tracer = Tracer()
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(2, per_batch=50):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
        with installed(tracer):
            replaced = ds.compact()
        assert tracer.counters["blocks_compacted"] == replaced


# ---------------------------------------------------------------------------
# The incremental parity gate


class TestIncrementalParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_flow_parity_k_batches(self, tmp_path, backend):
        ctx = make_ctx(backend)
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        state = None
        for batch in event_batches(4):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
            run = pipe.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()
        assert state.watermark == ds.metadata().watermark

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_speed_parity_is_bit_identical(self, tmp_path, backend):
        """Float sums expose merge-order differences in the last bit."""
        ctx = make_ctx(backend)
        trajs = make_trajectories(120, seed=5)
        t_lo = min(t.temporal_extent.start for t in trajs)
        t_hi = max(t.temporal_extent.end for t in trajs)
        span = Duration(t_lo, t_hi)

        def pipe():
            return Pipeline(
                selector=Selector(AREA, span),
                converter=Traj2TsConverter(
                    TimeSeriesStructure.of_interval(span, (t_hi - t_lo) / 8)
                ),
                extractor=TsSpeedExtractor(),
            )

        ds = StDataset(tmp_path / "feed")
        runner = pipe()
        state = None
        for i in range(4):
            ds.ingest(trajs[i * 30:(i + 1) * 30],
                      partitioner=TSTRPartitioner(2, 1),
                      instance_type="trajectory")
            run = runner.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_vals = pipe().run(make_ctx(), tmp_path / "feed").cell_values()
        inc_vals = run.result.cell_values()
        assert all(
            (a is None and b is None) or a == b  # bit-equal, not approx
            for a, b in zip(inc_vals, batch_vals)
        )
        assert len(inc_vals) == len(batch_vals)

    def test_parity_survives_worker_loss_mid_batch(self, tmp_path):
        plan = FaultPlan(
            [FaultRule("worker_kill", probability=0.3)], seed=11
        )
        ctx = make_ctx("process", fault_plan=plan)
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        state = None
        for batch in event_batches(4):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2),
                      instance_type="event")
            run = pipe.run_incremental(ctx, tmp_path / "feed", state=state)
            state = run.state
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_agrees_with_fold_oracle(self, tmp_path, backend):
        ctx = make_ctx(backend)
        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(3):
            ds.ingest(batch, instance_type="event")
        oracle = flow_pipeline(days=3)
        oracle.extractor = reference.folding(oracle.extractor)
        results = [
            p.run_incremental(ctx, tmp_path / "feed").result.cell_values()
            for p in (flow_pipeline(days=3), oracle)
        ]
        assert results[0] == results[1]

    def test_pruned_batch_contributes_nothing_but_advances(self, tmp_path):
        """A batch entirely outside the query range adds no partials —
        exactly like the batch run, where its blocks are pruned."""
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        pipe = flow_pipeline(days=1)  # query window: day 0 only
        ds.ingest(day0, instance_type="event")
        run = pipe.run_incremental(ctx, tmp_path / "feed")
        ds.ingest(day1)  # entirely outside the window
        run = pipe.run_incremental(ctx, tmp_path / "feed", state=run.state)
        assert run.blocks_new == 1
        assert run.blocks_selected == 0
        batch_result = flow_pipeline(days=1).run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()

    def test_no_new_blocks_returns_same_result(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        pipe = flow_pipeline(days=1)
        first = pipe.run_incremental(ctx, tmp_path / "feed")
        second = pipe.run_incremental(ctx, tmp_path / "feed", state=first.state)
        assert second.blocks_new == 0
        assert second.result.cell_values() == first.result.cell_values()

    def test_state_survives_compaction(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        pipe = flow_pipeline()
        ds.ingest(event_batches(1)[0], partitioner=TSTRPartitioner(1, 2),
                  instance_type="event")
        run = pipe.run_incremental(ctx, tmp_path / "feed")
        ds.compact(TSTRPartitioner(1, 1))
        # The compaction's block is a new name: scanned; the two it
        # superseded left the manifest: their partials are dropped.
        run = pipe.run_incremental(ctx, tmp_path / "feed", state=run.state)
        assert run.blocks_new == 1
        assert list(run.state.partials) == ["part-00002.stb"]
        batch_result = flow_pipeline().run(make_ctx(), tmp_path / "feed")
        assert run.result.cell_values() == batch_result.cell_values()

    def test_incremental_counters(self, tmp_path):
        tracer = Tracer()
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        with installed(tracer):
            flow_pipeline().run_incremental(ctx, tmp_path / "feed")
        assert tracer.counters["incremental_runs"] == 1
        assert tracer.counters["incremental_blocks_new"] == 1


class MeanTripLength(CellAggExtractor):
    """A user-defined extractor — ``local``/``merge`` only, no ``agg_spec`` —
    whose float sums expose any change of merge order in the last bit."""

    def local(self, values, spatial, temporal):
        return (sum(t.length_meters() for t in values), len(values))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, partial):
        return partial[0] / partial[1] if partial[1] else None


TRAJS = make_trajectories(120, seed=5)
TRAJ_SPAN = Duration(
    min(t.temporal_extent.start for t in TRAJS), max(t.temporal_extent.end for t in TRAJS)
)


def _traj_pipeline(extractor_type, temporal=TRAJ_SPAN, **selector_kwargs) -> Pipeline:
    return Pipeline(
        Selector(AREA, temporal, **selector_kwargs),
        Traj2TsConverter(TimeSeriesStructure.of_interval(TRAJ_SPAN, TRAJ_SPAN.length / 8)),
        extractor_type(),
    )


#: name → (pipeline factory, K micro-batches, instance type, ingest
#: partitioner, physical path, banked partial type)
PLANS = {
    "fused-count": (flow_pipeline, event_batches(4), "event", (1, 2), "fused", CellTable),
    "fused-float": (
        lambda **kw: _traj_pipeline(TsSpeedExtractor, **kw),
        [TRAJS[i::4] for i in range(4)], "trajectory", (2, 1), "fused", CellTable,
    ),
    "staged-user-defined": (
        lambda **kw: _traj_pipeline(MeanTripLength, **kw),
        [TRAJS[i::4] for i in range(4)], "trajectory", (2, 1), "staged", TimeSeries,
    ),
}


class TestIncrementalIsTheBatchPlan:
    """``run_incremental`` executes the plan ``run`` executes — over a block
    suffix (state mode) or a narrowed window (since mode) — so its answers
    are ``run``'s, bit for bit, whichever physical path the plan takes."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_k_incremental_runs_equal_one_run(self, tmp_path, plan, backend):
        make, batches, instance_type, grid, path, partial_type = PLANS[plan]
        ctx = make_ctx(backend)
        feed = tmp_path / "feed"
        # A partitioner on the selector is a shuffle knob: state mode ignores it.
        pipe = make(partitioner=TSTRPartitioner(2, 2))
        state = None
        try:
            for batch in batches:
                StDataset(feed).ingest(
                    batch, partitioner=TSTRPartitioner(*grid), instance_type=instance_type
                )
                run = pipe.run_incremental(ctx, feed, state=state)
                state = run.state
            assert make().explain(ctx, feed)["path"] == path
            assert run.result.cell_values() == make().run(ctx, feed).cell_values()
            assert run.result.cell_values() == make().run(make_ctx(), feed).cell_values()
        finally:
            ctx.stop()
        assert any(v for v in run.result.cell_values())
        assert list(state.partials) == [p.filename for p in StDataset(feed).metadata().partitions]
        assert len(state.banked()) > len(batches)
        assert all(type(p) is partial_type for p in state.banked())

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_since_mode_is_run_under_the_narrowed_window(self, tmp_path, plan, backend):
        make, batches, instance_type, grid, _, _ = PLANS[plan]
        ctx = make_ctx(backend)
        feed = tmp_path / "feed"
        ds = StDataset(feed)
        try:
            for batch in batches[:2]:
                ds.ingest(batch, partitioner=TSTRPartitioner(*grid), instance_type=instance_type)
            # Any instant works as the mark; this one splits the data.
            mark = sorted(i.temporal_extent.end for b in batches for i in b)[len(batches[0])]
            for batch in batches[2:]:
                ds.ingest(batch, partitioner=TSTRPartitioner(*grid))
            pipe = make()
            run = pipe.run_incremental(ctx, feed, since=mark)
            window = pipe.selector.temporal.intersection(
                Duration(math.nextafter(mark, math.inf), math.inf)
            )
            expected = make(temporal=window).run(ctx, feed)
            assert run.result.cell_values() == expected.cell_values()
            assert any(v for v in run.result.cell_values())
            assert run.state is None and run.blocks_selected > 0
            # Nothing past the newest record: no block selected, no result.
            newest = max(i.temporal_extent.end for b in batches for i in b)
            empty = pipe.run_incremental(ctx, feed, since=newest)
            assert (empty.result, empty.blocks_selected, empty.records_loaded) == (None, 0, 0)
        finally:
            ctx.stop()


_contexts: dict[str, EngineContext] = {}


def shared_ctx(backend: str) -> EngineContext:
    """One context per backend for the module (hypothesis examples must
    not each pay a process-pool start)."""
    if backend not in _contexts:
        _contexts[backend] = make_ctx(backend)
    return _contexts[backend]


@pytest.fixture(scope="module", autouse=True)
def _stop_contexts():
    yield
    for ctx in _contexts.values():
        ctx.stop()
    _contexts.clear()


def late_feed(records, sizes, late):
    """``records`` in time order cut into ``sizes`` batches, the last
    ``late`` fraction of each batch delivered with the next one."""
    records = sorted(records, key=lambda r: r.temporal_extent.start)
    cuts = [0]
    for n in sizes:
        cuts.append(min(len(records), cuts[-1] + n))
    batches = [records[a:b] for a, b in zip(cuts, cuts[1:])]
    held = []
    for i, batch in enumerate(batches):
        keep = len(batch) - int(late * len(batch)) if i + 1 < len(batches) else len(batch)
        batches[i], held = held + batch[:keep], batch[keep:]
    return [b for b in batches if b]


class TestStateAcrossCommits:
    """Block names are never reused, so a name-keyed state follows every
    commit — appends, tiered compactions, full rewrites — without going stale."""

    def test_a_compaction_never_reuses_a_name(self, tmp_path):
        """Block ``i`` used to be named ``part-{i:05d}.stb`` by every write,
        so a compaction could leave a consumed block's name and count in
        place over different rows."""
        ctx = make_ctx()
        feed = tmp_path / "feed"
        ds = StDataset(feed)
        first, second = event_batches(2, per_batch=1_000)
        pipe = flow_pipeline(days=2)
        ds.ingest(first, partitioner=TSTRPartitioner(1, 2), instance_type="event")
        run = pipe.run_incremental(ctx, feed)
        ds.ingest(second, partitioner=TSTRPartitioner(1, 2))
        ds.compact(TSTRPartitioner(1, 4))
        names = [p.filename for p in ds.metadata().partitions]
        assert names == [f"part-{i:05d}.stb" for i in range(4, 8)]
        assert sorted(p.name for p in feed.glob("part-*")) == names
        run = pipe.run_incremental(ctx, feed, state=run.state)
        assert (run.blocks_new, list(run.state.partials)) == (4, names)
        assert run.result.cell_values() == flow_pipeline(days=2).run(ctx, feed).cell_values()
        assert sum(run.result.cell_values()) == 2_000

    def test_legacy_metadata_continues_names_past_its_highest_index(self, tmp_path):
        ctx = make_ctx()
        feed = tmp_path / "feed"
        ds = StDataset(feed)
        for batch in event_batches(2):
            ds.ingest(batch, partitioner=TSTRPartitioner(1, 2), instance_type="event")
        run = flow_pipeline().run_incremental(ctx, feed)
        # A metadata file as written before the block counter existed ...
        payload = json.loads((feed / "metadata.json").read_text())
        for key in ("next_block", "compacted"):
            del payload[key]
        (feed / "metadata.json").write_text(json.dumps(payload))
        assert (ds.metadata().next_block, ds.metadata().compacted) == (4, 0)
        again = flow_pipeline().run_incremental(ctx, feed, state=run.state)
        assert again.blocks_new == 0
        # ... names its next blocks past the highest index it names.
        ds.compact(TSTRPartitioner(1, 1))
        assert [p.filename for p in ds.metadata().partitions] == ["part-00004.stb"]
        again = flow_pipeline().run_incremental(ctx, feed, state=again.state)
        assert again.result.cell_values() == flow_pipeline().run(ctx, feed).cell_values()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @given(
        sizes=st.lists(st.integers(1, 25), min_size=1, max_size=6),
        threshold=st.integers(1, 6),
        late=st.sampled_from([0.0, 0.1, 0.3]),
        grid=st.tuples(st.integers(1, 2), st.integers(1, 3)),
        full_rewrite=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_state_follows_every_commit(self, backend, sizes, threshold, late, grid, full_rewrite):
        """Ingests with late records, tiered compactions and (optionally) an
        explicit full rewrite midway: the last incremental result is a cold
        run's, bit for bit, for a count and a float speed aggregate."""
        ctx = shared_ctx(backend)
        feeds = {
            "count": (flow_pipeline, "event", make_events(sum(sizes), t_extent=4 * DAY)),
            "speed": (lambda: _traj_pipeline(TsSpeedExtractor), "trajectory", TRAJS),
        }
        written = []
        write_bytes = Path.write_bytes

        def recording(path, data):
            written.append(str(path))
            return write_bytes(path, data)

        recorded = mock.patch.object(Path, "write_bytes", recording)
        with tempfile.TemporaryDirectory() as tmp, recorded:
            for name, (make, kind, records) in feeds.items():
                feed = Path(tmp) / name
                ds, pipe, state = StDataset(feed), make(), None
                batches = late_feed(records, sizes, late)
                for i, batch in enumerate(batches):
                    ds.ingest(batch, TSTRPartitioner(*grid), threshold, instance_type=kind)
                    if full_rewrite and i == len(batches) // 2:
                        ds.compact(TSTRPartitioner(*grid))
                    run = pipe.run_incremental(ctx, feed, state=state)
                    state = run.state
                assert run.result.cell_values() == make().run(ctx, feed).cell_values(), name
                assert list(state.partials) == [p.filename for p in ds.metadata().partitions]
                assert sorted(p.name for p in feed.glob("part-*")) == sorted(state.partials)
        blocks = [w for w in written if w.endswith(".stb")]
        assert len(blocks) == len(set(blocks))


# ---------------------------------------------------------------------------
# Since-mode (stateless watermark queries)


class TestSinceMode:
    def test_since_selects_only_new_slice(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        day0, day1 = event_batches(2)
        ds.ingest(day0, instance_type="event")
        mark = ds.metadata().watermark
        ds.ingest(day1)
        pipe = flow_pipeline(days=2)
        run = pipe.run_incremental(ctx, tmp_path / "feed", since=mark)
        assert sum(run.result.cell_values()) == len(day1)

    def test_since_excludes_exact_boundary(self, tmp_path):
        """A record whose end time equals the watermark was already
        processed; strict-inequality semantics exclude it."""
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest([Event.of_point(5.0, 5.0, 1_000.0, data="old")],
                  instance_type="event")
        mark = ds.metadata().watermark
        assert mark == 1_000.0
        ds.ingest([
            Event.of_point(5.0, 5.0, 1_000.0, data="boundary-dup"),
            Event.of_point(5.0, 5.0, 2_000.0, data="new"),
        ])
        span = Duration(0.0, DAY)
        pipe = Pipeline(
            selector=Selector(AREA, span),
            converter=Event2TsConverter(
                TimeSeriesStructure.of_interval(span, DAY)
            ),
            extractor=TsFlowExtractor(),
        )
        run = pipe.run_incremental(ctx, tmp_path / "feed", since=mark)
        assert sum(run.result.cell_values()) == 1  # only the 2000.0 event

    def test_since_past_everything_is_empty(self, tmp_path):
        ctx = make_ctx()
        ds = StDataset(tmp_path / "feed")
        ds.ingest(event_batches(1)[0], instance_type="event")
        run = flow_pipeline().run_incremental(
            ctx, tmp_path / "feed", since=ds.metadata().watermark
        )
        assert run.result is None
        assert run.blocks_selected == 0

    def test_state_and_since_are_mutually_exclusive(self, tmp_path):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            flow_pipeline().run_incremental(
                ctx, tmp_path / "feed", state=StreamState(), since=0.0
            )


# ---------------------------------------------------------------------------
# Windowed extractors


class TestWindows:
    def test_tumbling_flow_counts_each_record_once(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        batches = event_batches(3, per_batch=100)
        for batch in batches:
            ds.ingest(batch, instance_type="event")
        win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        sel = Selector(AREA, Duration(0.0, 3 * DAY))
        win.update(sel.select(ctx, tmp_path / "feed"))
        assert sum(v for _, v in win.features()) == 300
        assert win.records_seen == 300

    def test_sliding_windows_overlap(self, ctx):
        events = [Event.of_point(1.0, 1.0, float(t), data=t) for t in (10, 20)]
        win = WindowedFlowExtractor(origin=0.0, size=20.0, step=10.0)
        win.update(ctx.parallelize(events, 1))
        counts = {w.start: v for w, v in win.features()}
        # t=20 is excluded from [0, 20) — half-open windows.
        assert counts == {0.0: 1, 10.0: 2, 20.0: 1}

    def test_incremental_updates_match_one_shot(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "feed")
        batches = event_batches(3)
        sel = Selector(AREA, Duration(0.0, 3 * DAY))
        inc = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        for batch in batches:
            ds.ingest(batch, instance_type="event")
            inc.update(sel.select(ctx, batch))
        ref = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        ref.update(sel.select(ctx, tmp_path / "feed"))
        assert inc.features() == ref.features()

    def test_speed_windows_span_assignment(self, ctx):
        trajs = make_trajectories(30, seed=9)
        t_lo = min(t.temporal_extent.start for t in trajs)
        win = WindowedSpeedExtractor(origin=t_lo, size=1_800.0, step=900.0)
        win.update(ctx.parallelize(trajs, 3))
        feats = win.features()
        assert feats
        assert all(isinstance(v, float) for _, v in feats)

    def test_checkpoint_restore_round_trip(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        win = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        win.update(ctx.parallelize(event_batches(1)[0], 4))
        win.checkpoint(ckpt)
        resumed = WindowedFlowExtractor(origin=0.0, size=3_600.0)
        assert resumed.restore(ckpt)
        assert resumed.features() == win.features()
        assert resumed.records_seen == win.records_seen

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    def test_checkpoint_restore_on_every_backend(self, tmp_path, backend):
        ctx = make_ctx(backend)
        try:
            ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
            trajs = make_trajectories(30, seed=9)
            t_lo = min(t.temporal_extent.start for t in trajs)
            windows = [
                WindowedFlowExtractor(origin=0.0, size=3_600.0),
                WindowedSpeedExtractor(origin=t_lo, size=1_800.0, step=900.0),
            ]
            windows[0].update(ctx.parallelize(event_batches(1)[0], 4))
            windows[1].update(ctx.parallelize(trajs, 3))
            for i, win in enumerate(windows):
                win.checkpoint(ckpt, phase=f"win{i}")
                resumed = type(win)(origin=win.origin, size=win.size, step=win.step)
                assert resumed.restore(ckpt, phase=f"win{i}")
                assert resumed.windows == win.windows
                assert resumed.features() == win.features()
                assert (resumed.records_seen, resumed.updates) == (win.records_seen, win.updates)
                (block,) = ckpt.phase_dir(f"win{i}").glob("part-*")
                assert block.suffix == ".stb"
        finally:
            ctx.stop()

    def test_restore_rejects_grid_mismatch(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        WindowedFlowExtractor(origin=0.0, size=3_600.0).checkpoint(ckpt)
        other = WindowedFlowExtractor(origin=0.0, size=7_200.0)
        with pytest.raises(ValueError, match="grid"):
            other.restore(ckpt)

    def test_restore_absent_returns_false(self, tmp_path, ctx):
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        assert not WindowedFlowExtractor(0.0, 1.0).restore(ckpt)

    def test_window_state_survives_chaos_worker_loss(self, tmp_path):
        """Update under worker kills + checkpoint + restore: identical to
        a clean one-shot run."""
        plan = FaultPlan([FaultRule("worker_kill", probability=0.3)], seed=3)
        ctx = make_ctx("process", fault_plan=plan)
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        ds = StDataset(tmp_path / "feed")
        sel = Selector(AREA, Duration(0.0, 4 * DAY))
        win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        for i, batch in enumerate(event_batches(4)):
            ds.ingest(batch, instance_type="event")
            win.update(sel.select(ctx, batch))
            win.checkpoint(ckpt)
            if i == 2:  # crash-and-restart between batches
                win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
                assert win.restore(ckpt)
        clean = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        clean.update(sel.select(make_ctx(), tmp_path / "feed"))
        assert win.features() == clean.features()

    def test_grid_index_arithmetic(self):
        win = WindowedFlowExtractor(origin=100.0, size=50.0, step=25.0)
        # center 130 → windows starting at 100 and 125 contain it
        assert list(win._indices(130.0, 130.0)) == [0, 1]
        # exact window-start boundary belongs to the starting window only
        assert list(win._indices(125.0, 125.0)) == [0, 1]
        # exact window-end boundary is excluded (half-open)
        assert 0 not in win._indices(150.0, 150.0)


# ---------------------------------------------------------------------------
# CLI: repro info table


class TestInfoTable:
    def test_info_prints_watermark_generation_and_formats(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        ds = StDataset(tmp_path / "feed")
        for batch in event_batches(2, per_batch=30):
            ds.ingest(batch, instance_type="event")
        assert cli_main(["info", str(tmp_path / "feed")]) == 0
        out = capsys.readouterr().out
        meta = ds.metadata()
        assert "generation" in out and str(meta.generation) in out
        assert "watermark" in out and f"{meta.watermark:.3f}" in out
        lines = out.splitlines()
        header = next(l for l in lines if "file" in l and "records" in l)
        assert "format" in header
        for p in meta.partitions:
            row = next(l for l in lines if p.filename in l)
            assert meta.block_format in row

    def test_info_without_watermark(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        StDataset.write(tmp_path / "ds", [make_events(10)], "event")
        assert cli_main(["info", str(tmp_path / "ds")]) == 0
        assert "(none)" in capsys.readouterr().out
