"""Converter tests: allocation correctness, strategies, preMap/agg."""

import pytest

from repro.core.converters import (
    CollectiveToSingularConverter,
    Event2SmConverter,
    Event2TrajConverter,
    Event2TsConverter,
    Raster2SmConverter,
    Raster2TsConverter,
    Sm2RasterConverter,
    Traj2EventConverter,
    Traj2RasterConverter,
    Traj2SmConverter,
    Ts2RasterConverter,
)
from repro.core.converters.base import allocate
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.engine import EngineContext
from repro.geometry import Envelope, Polygon
from repro.instances import Event, Raster, SpatialMap, TimeSeries, Trajectory
from repro.temporal import Duration
from tests.conftest import make_events, make_trajectories


@pytest.fixture
def ctx():
    return EngineContext(default_parallelism=4)


class TestAllocate:
    def test_every_event_lands_in_exactly_one_interior_cell(self):
        events = make_events(200, seed=1)
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 5, 5)
        cells = allocate(events, structure)
        total = sum(len(c) for c in cells)
        # Points on shared cell boundaries legitimately land in 2+ cells.
        assert total >= 200

    def test_conservation_across_methods(self):
        events = make_events(150, seed=2)
        structure = RasterStructure.regular(
            Envelope(0, 0, 10, 10), Duration(0, 86_400), 4, 4, 6
        )
        results = {}
        for method in ("naive", "rtree", "regular"):
            cells = allocate(events, structure, method)
            results[method] = [sorted(ev.data for ev in c) for c in cells]
        assert results["naive"] == results["rtree"] == results["regular"]

    def test_trajectory_segment_crossing_allocated(self):
        # Two samples on either side of a cell; the segment crosses it.
        traj = Trajectory.of_points([(0.5, 0.5, 0), (2.5, 0.5, 10)], data="x")
        structure = SpatialMapStructure.regular(Envelope(0, 0, 3, 1), 3, 1)
        cells = allocate([traj], structure)
        assert all(len(c) == 1 for c in cells)  # middle cell included

    def test_trajectory_temporal_restriction(self):
        traj = Trajectory.of_points([(0.5, 0.5, 0), (0.6, 0.6, 10)], data="x")
        structure = TimeSeriesStructure.regular(Duration(0, 100), 10)
        cells = allocate([traj], structure)
        assert len(cells[0]) == 1  # t in [0, 10]
        assert all(len(c) == 0 for c in cells[2:])

    def test_irregular_polygon_exactness(self):
        tri = Polygon([(0, 0), (10, 0), (0, 10)])
        structure = SpatialMapStructure([tri])
        inside = Event.of_point(1, 1, 0, data="in")
        outside_mbr = Event.of_point(9, 9, 0, data="out")  # in MBR, not in tri
        cells = allocate([inside, outside_mbr], structure, "rtree")
        assert [ev.data for ev in cells[0]] == ["in"]

    def test_stats_accounting(self):
        from repro.core.converters.base import AllocationStats

        events = make_events(50, seed=3)
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 4)
        stats = AllocationStats()
        allocate(events, structure, "naive", stats)
        assert stats.instances == 50
        assert stats.candidate_tests == 50 * 16
        stats2 = AllocationStats()
        allocate(events, structure, "regular", stats2)
        assert stats2.candidate_tests < stats.candidate_tests


class TestSingularToCollective:
    def test_event2ts_counts(self, ctx):
        events = make_events(300, seed=4)
        rdd = ctx.parallelize(events, 4)
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 24)
        partials = Event2TsConverter(structure).convert(rdd)
        assert partials.count() == 4  # one partial per partition
        merged = partials.reduce(lambda a, b: a.merge_with(b, lambda x, y: x + y))
        assert sum(len(v) for v in merged.cell_values()) == 300

    def test_pre_map_applied(self, ctx):
        events = make_events(50, seed=5)
        rdd = ctx.parallelize(events, 2)
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 4)
        converter = Event2TsConverter(structure)
        partials = converter.convert(rdd, pre_map=lambda ev: ev.map_data(lambda d: d * 10))
        merged = partials.reduce(lambda a, b: a.merge_with(b, lambda x, y: x + y))
        all_data = [ev.data for cell in merged.cell_values() for ev in cell]
        assert all(d % 10 == 0 for d in all_data)

    def test_agg_applied_per_cell(self, ctx):
        events = make_events(100, seed=6)
        rdd = ctx.parallelize(events, 2)
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 6)
        partials = Event2TsConverter(structure).convert(rdd, agg=len)
        merged = partials.reduce(lambda a, b: a.merge_with(b, lambda x, y: x + y))
        assert sum(merged.cell_values()) == 100

    def test_convert_merged(self, ctx):
        events = make_events(80, seed=7)
        rdd = ctx.parallelize(events, 3)
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 3, 3)
        merged = Event2SmConverter(structure).convert_merged(rdd)
        assert isinstance(merged, SpatialMap)
        assert sum(len(v) for v in merged.cell_values()) >= 80

    def test_traj_converters_produce_correct_types(self, ctx):
        trajs = make_trajectories(20, seed=8)
        rdd = ctx.parallelize(trajs, 2)
        sm = Traj2SmConverter(
            SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 3, 3)
        ).convert(rdd)
        assert isinstance(sm.first(), SpatialMap)
        raster = Traj2RasterConverter(
            RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 86_400), 2, 2, 4)
        ).convert(rdd)
        assert isinstance(raster.first(), Raster)

    def test_broadcast_metered(self, ctx):
        events = make_events(30, seed=9)
        rdd = ctx.parallelize(events, 2)
        ctx.metrics.reset()
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 8)
        Event2TsConverter(structure).convert(rdd).collect()
        assert ctx.metrics.broadcast_count == 1
        assert ctx.metrics.broadcast_records == 8
        assert ctx.metrics.shuffle_records == 0  # no data shuffle

    def test_structure_from_raw_cells(self, ctx):
        # Converters accept raw slot/geometry lists too.
        events = make_events(20, seed=10)
        rdd = ctx.parallelize(events, 2)
        converter = Event2TsConverter(Duration(0, 86_400).split(4))
        assert converter.convert(rdd).count() == 2


class TestSingularToSingular:
    def test_traj2event_explodes_points(self, ctx):
        trajs = make_trajectories(10, seed=11, points=8)
        rdd = ctx.parallelize(trajs, 2)
        events = Traj2EventConverter().convert(rdd)
        assert events.count() == 80
        first = events.first()
        assert isinstance(first, Event)
        assert first.data == "traj-0"

    def test_traj2event_keep_index(self, ctx):
        trajs = make_trajectories(2, seed=12, points=3)
        rdd = ctx.parallelize(trajs, 1)
        events = Traj2EventConverter(keep_index=True).convert(rdd).collect()
        assert events[0].value[0] == 0
        assert events[2].value[0] == 2

    def test_event2traj_roundtrip(self, ctx):
        trajs = make_trajectories(15, seed=13)
        rdd = ctx.parallelize(trajs, 3)
        events = Traj2EventConverter().convert(rdd)
        rebuilt = Event2TrajConverter().convert(events)
        original = {t.data: t for t in trajs}
        for traj in rebuilt.collect():
            assert len(traj.entries) == len(original[traj.data].entries)
            assert traj.temporal_extent == original[traj.data].temporal_extent

    def test_event2traj_min_points(self, ctx):
        events = [Event.of_point(0, 0, float(i), data="only") for i in range(2)]
        rdd = ctx.parallelize(events, 1)
        assert Event2TrajConverter(min_points=3).convert(rdd).count() == 0
        assert Event2TrajConverter(min_points=2).convert(rdd).count() == 1

    def test_event2traj_uses_mapside_combine(self, ctx):
        trajs = make_trajectories(10, seed=14, points=20)
        events = Traj2EventConverter().convert(ctx.parallelize(trajs, 4)).persist()
        events.count()
        ctx.metrics.reset()
        Event2TrajConverter().convert(events).collect()
        # Map-side combine: shuffled records bounded by keys * partitions,
        # far fewer than the 200 raw events.
        assert ctx.metrics.shuffle_records <= 10 * 4


class TestCollectiveConversions:
    def _raster(self):
        return Raster.regular(
            Envelope(0, 0, 2, 2), Duration(0, 4), 2, 1, 2
        ).with_cell_values([1, 2, 3, 4])

    def test_raster2sm_groups_spatial(self, ctx):
        rdd = ctx.parallelize([self._raster()], 1)
        sm = Raster2SmConverter(lambda a, b: a + b).convert(rdd).first()
        assert isinstance(sm, SpatialMap)
        assert sm.cell_values() == [3, 7]  # 1+2 and 3+4

    def test_raster2ts_groups_temporal(self, ctx):
        rdd = ctx.parallelize([self._raster()], 1)
        ts = Raster2TsConverter(lambda a, b: a + b).convert(rdd).first()
        assert isinstance(ts, TimeSeries)
        assert ts.cell_values() == [4, 6]  # 1+3 and 2+4

    def test_sm2raster_lifts_duration(self, ctx):
        sm = SpatialMap.of_geometries(
            Envelope(0, 0, 2, 1).split(2, 1),
            temporal=Duration(0, 10),
        ).with_cell_values(["a", "b"])
        raster = Sm2RasterConverter().convert(ctx.parallelize([sm], 1)).first()
        assert isinstance(raster, Raster)
        assert raster.cell_values() == ["a", "b"]
        assert all(e.temporal == Duration(0, 10) for e in raster.entries)

    def test_ts2raster(self, ctx):
        ts = TimeSeries.regular(Duration(0, 4), 2.0).with_cell_values([1, 2])
        geom = Envelope(0, 0, 5, 5)
        raster = Ts2RasterConverter(geom).convert(ctx.parallelize([ts], 1)).first()
        assert raster.n_cells == 2
        assert all(e.spatial == geom for e in raster.entries)

    def test_collective_to_singular_flattens(self, ctx):
        events = make_events(60, seed=15)
        rdd = ctx.parallelize(events, 2)
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 4)
        partials = Event2TsConverter(structure).convert(rdd)
        back = CollectiveToSingularConverter().convert(partials)
        assert sorted(ev.data for ev in back.collect()) == sorted(
            ev.data for ev in events
        )

    def test_collective_to_singular_distinct_key(self, ctx):
        ev = Event.of_point(0.5, 0.5, 0.0, data="dup")
        sm = SpatialMap.regular(Envelope(0, 0, 1, 1), 1, 1).with_cell_values([[ev, ev]])
        rdd = ctx.parallelize([sm], 1)
        out = CollectiveToSingularConverter(distinct_key=lambda e: e.data).convert(rdd)
        assert out.count() == 1

    def test_collective_to_singular_type_check(self, ctx):
        sm = SpatialMap.regular(Envelope(0, 0, 1, 1), 1, 1).with_cell_values([42])
        rdd = ctx.parallelize([sm], 1)
        with pytest.raises(Exception):  # surfaces as TaskFailure wrapping TypeError
            CollectiveToSingularConverter().convert(rdd).collect()


class TestStrictModeConversion:
    """Every allocation method must keep its broadcast structure unchanged
    under ``EngineContext(strict=True)`` (REPRO109): R-tree probe counters
    stay out of the broadcast value and every lazily cached cell array is
    built before the broadcast."""

    @pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
    @pytest.mark.parametrize("method", ["regular", "rtree", "naive"])
    def test_counts_match_the_oracle(self, backend, method):
        from repro.core.converters import Event2RasterConverter
        from repro.core.extractors import RasterFlowExtractor
        from tests import reference

        events = make_events(200, seed=4, extent=1.0, t_extent=100.0)
        structure = RasterStructure.regular(Envelope(0, 0, 1, 1), Duration(0, 100), 4, 4, 4)
        options = {"warmup": False, "max_workers": 2} if backend == "process" else None
        with EngineContext(
            default_parallelism=4, backend=backend, backend_options=options, strict=True
        ) as strict_ctx:
            converted = Event2RasterConverter(structure, method=method).convert(
                strict_ctx.parallelize(events, 4)
            )
            counts = RasterFlowExtractor().extract(converted).cell_values()
        assert counts == [len(c) for c in reference.allocate(events, structure, method)]

    def test_a_queried_tree_pickles_like_a_fresh_one(self):
        import pickle

        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 4)
        tree = structure.packed_rtree()
        before = pickle.dumps(tree)
        tree.query_coords([1.0, 1.0], [2.0, 2.0])
        assert tree.stats.queries == 1
        assert pickle.dumps(tree) == before
        assert pickle.loads(before).stats.queries == 0
