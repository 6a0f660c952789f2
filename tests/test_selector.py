"""Selector tests (Section 3.1)."""

import pytest

from repro.core import Pipeline, Selector, TimeSeriesStructure
from repro.core.converters import Event2TsConverter
from repro.core.extractors import TsFlowExtractor
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.partitioners import TSTRPartitioner
from repro.stio import save_dataset
from repro.temporal import Duration
from tests.conftest import make_events, make_trajectories


@pytest.fixture
def ctx():
    return EngineContext(default_parallelism=4)


SPATIAL = Envelope(2, 2, 7, 7)
TEMPORAL = Duration(10_000, 50_000)
#: A spatial range no generated event falls in (events live in [0, 10]^2).
NOWHERE = Envelope(500, 500, 501, 501)


def expected_ids(instances):
    return sorted(
        repr(inst.data) for inst in instances if inst.intersects(SPATIAL, TEMPORAL)
    )


def selected_ids(rdd):
    return sorted(repr(inst.data) for inst in rdd.collect())


class TestValidation:
    def test_needs_some_range(self):
        with pytest.raises(ValueError):
            Selector()

    def test_spatial_only_ok(self):
        Selector(spatial=SPATIAL)

    def test_temporal_only_ok(self):
        Selector(temporal=TEMPORAL)


class TestSelectionCorrectness:
    def test_from_list(self, ctx):
        events = make_events(400, seed=21)
        out = Selector(SPATIAL, TEMPORAL).select(ctx, events)
        assert selected_ids(out) == expected_ids(events)

    def test_from_rdd(self, ctx):
        events = make_events(400, seed=22)
        rdd = ctx.parallelize(events, 4)
        out = Selector(SPATIAL, TEMPORAL).select(ctx, rdd)
        assert selected_ids(out) == expected_ids(events)

    def test_from_disk(self, ctx, tmp_path):
        events = make_events(400, seed=23)
        save_dataset(tmp_path / "d", events, "event", partitioner=TSTRPartitioner(2, 2), ctx=ctx)
        out = Selector(SPATIAL, TEMPORAL).select(ctx, tmp_path / "d")
        assert selected_ids(out) == expected_ids(events)

    def test_index_and_linear_agree(self, ctx):
        events = make_events(300, seed=24)
        indexed = Selector(SPATIAL, TEMPORAL, index=True).select(ctx, events)
        linear = Selector(SPATIAL, TEMPORAL, index=False).select(ctx, events)
        assert selected_ids(indexed) == selected_ids(linear)

    def test_trajectories_entry_level_predicate(self, ctx):
        trajs = make_trajectories(80, seed=25)
        out = Selector(SPATIAL, TEMPORAL).select(ctx, trajs)
        assert selected_ids(out) == expected_ids(trajs)

    def test_spatial_only_selection(self, ctx):
        events = make_events(200, seed=26)
        out = Selector(spatial=SPATIAL).select(ctx, events)
        expected = sorted(
            repr(ev.data)
            for ev in events
            if SPATIAL.contains_point(ev.spatial.x, ev.spatial.y)
        )
        assert selected_ids(out) == expected

    def test_temporal_only_selection(self, ctx):
        events = make_events(200, seed=27)
        out = Selector(temporal=TEMPORAL).select(ctx, events)
        expected = sorted(
            repr(ev.data) for ev in events if TEMPORAL.contains(ev.temporal.start)
        )
        assert selected_ids(out) == expected


class TestPartitioningStage:
    def test_partitioner_applied_after_filter(self, ctx):
        events = make_events(500, seed=28)
        selector = Selector(SPATIAL, TEMPORAL, partitioner=TSTRPartitioner(2, 3))
        out = selector.select(ctx, events)
        assert out.num_partitions == selector.partitioner.num_partitions
        assert selected_ids(out) == expected_ids(events)

    def test_num_partitions_repartitions(self, ctx):
        events = make_events(200, seed=29)
        out = Selector(SPATIAL, TEMPORAL, num_partitions=7).select(ctx, events)
        assert out.num_partitions == 7

    @pytest.mark.parametrize("on_disk", [False, True], ids=["list", "disk"])
    def test_empty_selection_with_partitioner(self, ctx, tmp_path, on_disk):
        # Nothing survives the filter: there is no sample to fit on, so the
        # partitioner must pass the empty RDD through instead of raising.
        source = make_events(200, seed=31)
        if on_disk:
            save_dataset(tmp_path / "d", source, "event", ctx=ctx)
            source = tmp_path / "d"
        selector = Selector(NOWHERE, TEMPORAL, partitioner=TSTRPartitioner(2, 2))
        assert selector.select(ctx, source).collect() == []

    def test_empty_selection_pipeline_yields_zero_features(self, ctx):
        structure = TimeSeriesStructure.regular(TEMPORAL, 4)
        pipeline = Pipeline(
            selector=Selector(NOWHERE, TEMPORAL, partitioner=TSTRPartitioner(2, 2)),
            converter=Event2TsConverter(structure),
            extractor=TsFlowExtractor(),
        )
        result = pipeline.run(ctx, make_events(200, seed=32))
        assert result.cell_values() == [0, 0, 0, 0]


class TestMetadataPruning:
    def test_load_stats_populated(self, ctx, tmp_path):
        events = make_events(600, seed=30)
        save_dataset(
            tmp_path / "d", events, "event", partitioner=TSTRPartitioner(3, 3), ctx=ctx
        )
        selector = Selector(Envelope(0, 0, 2, 2), Duration(0, 20_000))
        out = selector.select(ctx, tmp_path / "d")
        out.count()  # force load
        stats = selector.last_load_stats
        assert stats is not None
        assert stats.partitions_read < stats.partitions_total
        assert stats.records_loaded < 600

    def test_use_metadata_false_loads_everything(self, ctx, tmp_path):
        events = make_events(300, seed=31)
        save_dataset(
            tmp_path / "d", events, "event", partitioner=TSTRPartitioner(2, 2), ctx=ctx
        )
        selector = Selector(Envelope(0, 0, 1, 1), Duration(0, 10_000))
        out = selector.select(ctx, tmp_path / "d", use_metadata=False)
        out.count()
        stats = selector.last_load_stats
        assert stats.partitions_read == stats.partitions_total
        assert stats.records_loaded == 300

    def test_pruned_equals_unpruned_result(self, ctx, tmp_path):
        events = make_events(400, seed=32)
        save_dataset(
            tmp_path / "d", events, "event", partitioner=TSTRPartitioner(3, 2), ctx=ctx
        )
        pruned = Selector(SPATIAL, TEMPORAL).select(ctx, tmp_path / "d")
        full = Selector(SPATIAL, TEMPORAL).select(
            ctx, tmp_path / "d", use_metadata=False
        )
        assert selected_ids(pruned) == selected_ids(full)
