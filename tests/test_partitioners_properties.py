"""Property-based tests on partitioners and their quality metrics."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BoxTable
from repro.instances import Event
from repro.partitioners import (
    HashPartitioner,
    KDBPartitioner,
    KeyedSTRPartitioner,
    QuadTreePartitioner,
    STRPartitioner,
    TBalancePartitioner,
    TSTRPartitioner,
    evaluate_partitioning,
    load_cv,
    load_ov,
)
from . import reference

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
timestamp = st.floats(min_value=0, max_value=1e5, allow_nan=False)


@st.composite
def event_sets(draw):
    n = draw(st.integers(10, 80))
    return [
        Event.of_point(draw(coord), draw(coord), draw(timestamp), data=i)
        for i in range(n)
    ]


class TestPartitionerProperties:
    @given(event_sets(), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_tstr_total_assignment(self, events, gt, gs):
        p = TSTRPartitioner(gt, gs)
        p.fit(events)
        counts = Counter(p.assign(ev) for ev in events)
        assert sum(counts.values()) == len(events)
        assert all(0 <= pid < p.num_partitions for pid in counts)

    @given(event_sets(), st.integers(2, 16))
    @settings(max_examples=40, deadline=None)
    def test_str_total_assignment(self, events, n):
        p = STRPartitioner(n)
        p.fit(events)
        for ev in events:
            assert 0 <= p.assign(ev) < p.num_partitions

    @given(event_sets(), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_tstr_assign_all_superset_of_assign(self, events, gt, gs):
        p = TSTRPartitioner(gt, gs)
        p.fit(events)
        for ev in events:
            all_pids = p.assign_all(ev)
            assert p.assign(ev) in all_pids
            # Point events overlap exactly the partitions containing them;
            # at least one, and boundary points at most a handful.
            assert 1 <= len(all_pids) <= 8

    @given(event_sets(), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_tstr_boundary_consistency(self, events, gt, gs):
        """assign(x) always lands in a partition whose boundary contains x."""
        p = TSTRPartitioner(gt, gs)
        p.fit(events)
        bounds = p.boundaries()
        for ev in events:
            pid = p.assign(ev)
            assert bounds[pid].intersects(ev.st_box())


class TestMetricsProperties:
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20))
    def test_cv_nonnegative(self, sizes):
        assert load_cv(sizes) >= 0.0

    @given(st.integers(1, 50), st.integers(1, 10))
    def test_cv_zero_for_uniform(self, size, n):
        assert load_cv([size] * n) == 0.0

    @given(event_sets())
    @settings(max_examples=30, deadline=None)
    def test_ov_single_partition_is_at_most_one(self, events):
        assert load_ov([events]) <= 1.0 + 1e-9

    @given(event_sets())
    @settings(max_examples=30, deadline=None)
    def test_ov_hash_layout_at_least_disjoint_layout(self, events):
        """Random scattering can never beat ST-disjoint placement on OV."""
        if len(events) < 20:
            return
        hasher = HashPartitioner(4)
        hasher.fit([])
        hash_parts = [[] for _ in range(4)]
        for ev in events:
            hash_parts[hasher.assign(ev)].append(ev)

        tstr = TSTRPartitioner(2, 2)
        tstr.fit(events)
        tstr_parts = [[] for _ in range(tstr.num_partitions)]
        for ev in events:
            tstr_parts[tstr.assign(ev)].append(ev)

        assert load_ov(hash_parts) >= load_ov(tstr_parts) - 1e-9

    def test_evaluate_partitioning_shape(self):
        events = [Event.of_point(float(i), 0.0, float(i), data=i) for i in range(10)]
        result = evaluate_partitioning([events[:5], events[5:]])
        assert result["partitions"] == 2
        assert result["records"] == 10
        assert result["cv"] == 0.0

    def test_empty_layout(self):
        assert load_ov([]) == 0.0
        assert load_ov([[], []]) == 0.0


# -- fit / assign_batch consume extents ---------------------------------------------
#
# A lattice of few distinct values: centres sit exactly on cuts and cuts repeat.

lattice_events = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 8)), min_size=1, max_size=60
).map(
    lambda cells: [
        Event.of_point(x / 2.0, y / 2.0, t * 10.0, data=i) for i, (x, y, t) in enumerate(cells)
    ]
)


def _ordinal(inst) -> float:
    return float(inst.data % 4)


EXTENT_PARTITIONERS = [
    lambda: HashPartitioner(3),
    lambda: STRPartitioner(5),
    lambda: TSTRPartitioner(3, 3),
    lambda: QuadTreePartitioner(4),
    lambda: TBalancePartitioner(4),
    lambda: KDBPartitioner(4),
    lambda: KeyedSTRPartitioner(_ordinal, 2, 3),
]


class TestExtentContract:
    @given(lattice_events, lattice_events, st.sampled_from(EXTENT_PARTITIONERS))
    @settings(max_examples=120, deadline=None)
    def test_table_form_equals_instance_form_equals_scalar_assign(self, sample, events, make):
        by_instances, by_table = make(), make()
        by_instances.fit(sample)
        by_table.fit(BoxTable.from_instances(sample))
        assert by_table.boundaries() == by_instances.boundaries()
        routed = reference.assign(by_instances, events)
        assert by_instances.assign_batch(events) == routed
        assert by_table.assign_batch(BoxTable.from_instances(events)) == routed

    @given(lattice_events, st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_tstr_cuts_equal_the_centroid_and_sorted_oracle(self, sample, gt, gs):
        p = TSTRPartitioner(gt, gs)
        p.fit(sample)
        t_cuts, tilings = reference.tstr_cuts(sample, gt, gs)
        assert p._cuts == t_cuts
        assert [(t.x_cuts, t.y_cuts_per_slab) for t in p._tilings] == tilings
