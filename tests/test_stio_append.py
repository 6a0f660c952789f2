"""The periodic-append workflow (Section 4.1 discussion point 2)."""

import pytest

from repro.core import Selector
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.partitioners import TSTRPartitioner
from repro.stio import save_dataset
from repro.temporal import Duration
from tests.conftest import make_events


@pytest.fixture
def ctx():
    return EngineContext(default_parallelism=4)


class TestAppend:
    def test_append_grows_metadata(self, ctx, tmp_path):
        batch1 = make_events(200, seed=81)
        ds = save_dataset(tmp_path / "d", batch1, "event", ctx=ctx)
        n_before = len(ds.metadata().partitions)

        batch2 = make_events(150, seed=82)
        ds.append_rdd(ctx.parallelize(batch2, 3))
        meta = ds.metadata()
        assert meta.total_records == 350
        assert len(meta.partitions) == n_before + 3

    def test_selection_spans_both_batches(self, ctx, tmp_path):
        batch1 = make_events(300, seed=83)
        batch2 = make_events(300, seed=84)
        ds = save_dataset(
            tmp_path / "d", batch1, "event", partitioner=TSTRPartitioner(2, 2), ctx=ctx
        )
        ds.append_rdd(ctx.parallelize(batch2, 4), partitioner=TSTRPartitioner(2, 2))

        spatial = Envelope(2, 2, 8, 8)
        temporal = Duration(5_000, 60_000)
        out = Selector(spatial, temporal).select(ctx, tmp_path / "d")
        expected = sorted(
            repr(ev.data)
            for ev in batch1 + batch2
            if ev.intersects(spatial, temporal)
        )
        assert sorted(repr(ev.data) for ev in out.collect()) == expected

    def test_appended_partitions_prunable(self, ctx, tmp_path):
        """Metadata of the appended batch participates in pruning."""
        # Batch 1 in one spatial corner, batch 2 far away.
        from repro.instances import Event

        batch1 = [Event.of_point(1.0, 1.0, float(i), data=f"a{i}") for i in range(50)]
        batch2 = [Event.of_point(100.0, 100.0, float(i), data=f"b{i}") for i in range(50)]
        ds = save_dataset(tmp_path / "d", batch1, "event", num_partitions=2, ctx=ctx)
        ds.append_rdd(ctx.parallelize(batch2, 2))

        selector = Selector(Envelope(99, 99, 101, 101), Duration(0, 1e6))
        out = selector.select(ctx, tmp_path / "d")
        assert out.count() == 50
        stats = selector.last_load_stats
        # Only the appended partitions should have been read.
        assert set(stats.files) == {"part-00002.stb", "part-00003.stb"}
        assert stats.records_loaded == 50

    def test_append_block_numbering_continues(self, ctx, tmp_path):
        ds = save_dataset(tmp_path / "d", make_events(40, seed=85), "event", num_partitions=2, ctx=ctx)
        ds.append(
            [[ev for ev in make_events(10, seed=86)]]
        )
        files = sorted(p.name for p in (tmp_path / "d").glob("part-*.stb"))
        assert files == ["part-00000.stb", "part-00001.stb", "part-00002.stb"]

    def test_append_empty_partition(self, ctx, tmp_path):
        ds = save_dataset(tmp_path / "d", make_events(20, seed=87), "event", num_partitions=1, ctx=ctx)
        ds.append([[]])
        meta = ds.metadata()
        assert meta.total_records == 20
        assert len(meta.partitions) == 2
