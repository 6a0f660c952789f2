"""Partitioner unit tests."""

import pytest

from repro.engine import EngineContext
from repro.instances import Event
from repro.partitioners import (
    HashPartitioner,
    KDBPartitioner,
    QuadTreePartitioner,
    STRPartitioner,
    TBalancePartitioner,
    TSTRPartitioner,
)
from tests.conftest import make_events, make_trajectories

ALL_PARTITIONERS = [
    lambda: HashPartitioner(16),
    lambda: STRPartitioner(16),
    lambda: TSTRPartitioner(4, 4),
    lambda: QuadTreePartitioner(16),
    lambda: TBalancePartitioner(16),
    lambda: KDBPartitioner(16),
]


@pytest.fixture
def events():
    return make_events(400, seed=3)


@pytest.fixture
def trajectories():
    return make_trajectories(60, seed=3)


class TestLifecycle:
    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_assign_before_fit_raises(self, factory, events):
        p = factory()
        with pytest.raises(RuntimeError):
            p.assign(events[0])

    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_fit_empty_sample(self, factory):
        p = factory()
        if isinstance(p, HashPartitioner):
            p.fit([])  # hash needs no sample
            assert p.is_fitted
        else:
            with pytest.raises(ValueError):
                p.fit([])

    def test_invalid_counts_rejected(self):
        for cls in (HashPartitioner, STRPartitioner, QuadTreePartitioner,
                    TBalancePartitioner, KDBPartitioner):
            with pytest.raises(ValueError):
                cls(0)
        with pytest.raises(ValueError):
            TSTRPartitioner(0, 4)


class TestAssignmentTotality:
    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_every_instance_assigned_in_range(self, factory, events):
        p = factory()
        p.fit(events[:100])  # fit on a subset, assign everything
        n = p.num_partitions
        for ev in events:
            pid = p.assign(ev)
            assert 0 <= pid < n

    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_out_of_sample_extremes_still_assigned(self, factory, events):
        p = factory()
        p.fit(events)
        outlier = Event.of_point(999.0, -999.0, 1e9, data="far")
        assert 0 <= p.assign(outlier) < p.num_partitions

    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_assign_all_contains_primary(self, factory, trajectories):
        p = factory()
        p.fit(trajectories)
        for traj in trajectories:
            assert p.assign(traj) in p.assign_all(traj)

    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_boundaries_count_matches(self, factory, events):
        p = factory()
        p.fit(events)
        assert len(p.boundaries()) == p.num_partitions

    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_boundaries_cover_instances(self, factory, events):
        p = factory()
        p.fit(events)
        bounds = p.boundaries()
        for ev in events:
            box = ev.st_box()
            assert any(b.intersects(box) for b in bounds)


class TestPartitionExecution:
    @pytest.mark.parametrize("factory", ALL_PARTITIONERS)
    def test_partition_preserves_records(self, factory, events):
        ctx = EngineContext(default_parallelism=4)
        rdd = ctx.parallelize(events, 4)
        out = factory().partition(rdd)
        assert sorted(ev.data for ev in out.collect()) == sorted(
            ev.data for ev in events
        )

    def test_partition_with_info_returns_boundaries(self, events):
        ctx = EngineContext(default_parallelism=4)
        rdd = ctx.parallelize(events, 4)
        p = TSTRPartitioner(2, 4)
        out, bounds = p.partition_with_info(rdd)
        assert len(bounds) == p.num_partitions
        assert out.count() == len(events)

    def test_duplicate_grows_record_count(self, trajectories):
        ctx = EngineContext(default_parallelism=4)
        rdd = ctx.parallelize(trajectories, 4)
        plain = TSTRPartitioner(3, 3).partition(rdd, duplicate=False)
        dup = TSTRPartitioner(3, 3).partition(rdd, duplicate=True)
        assert plain.count() == len(trajectories)
        assert dup.count() >= plain.count()


class TestPartitionEvaluatesInputOnce:
    """``partition()`` fits on a sample and then shuffles: one evaluation of
    the input lineage must serve both (it used to load+filter twice)."""

    @staticmethod
    def _counting_source(ctx, events, computed):
        def load(split, part):
            computed.append(split)  # threads share the list; append is atomic
            return part

        return ctx.parallelize(events, 4).map_partitions_with_index(load)

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_each_input_partition_computed_once(self, backend, duplicate, events):
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            computed: list[int] = []
            source = self._counting_source(ctx, events, computed)
            out = TSTRPartitioner(2, 4).partition(source, duplicate=duplicate)
            primaries = [ev.data for ev in out.collect() if ev.dup_primary]
        finally:
            ctx.backend.stop()
        assert sorted(computed) == [0, 1, 2, 3]
        assert sorted(primaries) == sorted(ev.data for ev in events)
        assert not source.is_cached  # the caller's RDD comes back as it went in

    def test_persisted_input_is_used_as_is(self, events):
        ctx = EngineContext(default_parallelism=4)
        computed: list[int] = []
        source = self._counting_source(ctx, events, computed).persist()
        out = TSTRPartitioner(2, 4).partition(source)
        assert out.count() == len(events)
        assert sorted(computed) == [0, 1, 2, 3]
        assert source.is_cached

    def test_boundaries_and_layout_do_not_depend_on_staging(self, events):
        # Same (seed, split) sample RNG either way: a persisted input and a
        # lazy one fit the same boundaries and shuffle to the same layout.
        ctx = EngineContext(default_parallelism=4)
        lazy, kept = TSTRPartitioner(2, 4), TSTRPartitioner(2, 4)
        a = lazy.partition(ctx.parallelize(events, 4).map(lambda ev: ev))
        b = kept.partition(ctx.parallelize(events, 4).persist())
        assert lazy.boundaries() == kept.boundaries()
        layout = lambda rdd: [[ev.data for ev in p] for p in rdd._collect_partitions()]
        assert layout(a) == layout(b)

    def test_empty_input_returned_as_is(self):
        ctx = EngineContext(default_parallelism=2)
        source = ctx.parallelize([], 2)
        p = TSTRPartitioner(2, 2)
        assert p.partition(source) is source
        assert not p.is_fitted and not source.is_cached


class TestHashPartitioner:
    def test_deterministic(self, events):
        p = HashPartitioner(8)
        p.fit([])
        assignments_a = [p.assign(ev) for ev in events]
        assignments_b = [p.assign(ev) for ev in events]
        assert assignments_a == assignments_b

    def test_balance(self, events):
        from collections import Counter

        p = HashPartitioner(8)
        p.fit([])
        counts = Counter(p.assign(ev) for ev in events)
        assert max(counts.values()) < 2.0 * min(counts.values())

    def test_assign_all_is_single(self, events):
        p = HashPartitioner(8)
        p.fit([])
        assert len(p.assign_all(events[0])) == 1


class TestTSTR:
    def test_partition_count_near_target(self, events):
        p = TSTRPartitioner(4, 4)
        p.fit(events)
        assert p.num_partitions == 16

    def test_temporal_slices_disjoint_in_time(self, events):
        p = TSTRPartitioner(4, 4)
        p.fit(events)
        bounds = p.boundaries()
        # Partitions within the same temporal slice share t-range; across
        # slices t-ranges only touch at cuts.
        t_ranges = sorted({(b.mins[2], b.maxs[2]) for b in bounds})
        for (lo1, hi1), (lo2, hi2) in zip(t_ranges, t_ranges[1:]):
            assert hi1 <= lo2

    def test_st_locality_beats_str_on_time(self, events):
        """T-STR partitions have bounded temporal extent; 2-d STR's do not."""
        tstr = TSTRPartitioner(4, 4)
        tstr.fit(events)
        str2d = STRPartitioner(16)
        str2d.fit(events)
        tstr_t_span = max(b.maxs[2] - b.mins[2] for b in tstr.boundaries())
        str_t_span = max(b.maxs[2] - b.mins[2] for b in str2d.boundaries())
        assert tstr_t_span < str_t_span

    def test_degenerate_all_same_timestamp(self):
        events = [Event.of_point(float(i), float(i), 5.0, data=i) for i in range(50)]
        p = TSTRPartitioner(4, 4)
        p.fit(events)
        for ev in events:
            assert 0 <= p.assign(ev) < p.num_partitions


class TestQuadTreePartitioner:
    def test_leaf_count_near_target(self, events):
        p = QuadTreePartitioner(16)
        p.fit(events)
        assert 4 <= p.num_partitions <= 64

    def test_assign_all_fallback_outside_bounds(self, events):
        p = QuadTreePartitioner(8)
        p.fit(events)
        outlier = Event.of_point(1e6, 1e6, 0.0)
        assert p.assign_all(outlier) == [p.assign(outlier)]


class TestKDB:
    def test_spatial_split_counts(self, events):
        p = KDBPartitioner(16)
        p.fit(events)
        assert p.num_partitions == 16

    def test_degenerate_identical_points(self):
        events = [Event.of_point(1.0, 1.0, float(i)) for i in range(20)]
        p = KDBPartitioner(8)
        p.fit(events)
        assert p.num_partitions == 1
