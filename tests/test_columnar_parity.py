"""Property-based parity: the columnar kernels vs the brute-force oracle.

The kernels are the pipeline's only execution path; their contract is
*bit-for-bit agreement* with the obvious per-instance loops in
``tests/reference.py``: identical selected instances in identical order,
identical partition ids, identical allocation cells and
``AllocationStats`` — on randomized boxes, on queries that sit exactly on
cell boundaries (closed-interval semantics), and under ``duplicate=True``
replica fan-out.  These tests exercise each kernel against the oracle,
then the full selection pipeline on all three execution backends.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Selector
from repro.core.converters.base import (
    AllocationStats,
    _cell_bounds,
    _matches_cell,
    allocate,
)
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.columnar import BoxTable, PointsTable, packed_tree_from_boxes, pointstable
from repro.engine import EngineContext
from repro.geometry import Envelope, LineString, Point, Polygon
from repro.index.boxes import STBox
from repro.index.grid import GridIndex
from repro.instances import Event, Trajectory
from repro.instances.base import Entry, Instance
from repro.partitioners import (
    HashPartitioner,
    STRPartitioner,
    TBalancePartitioner,
    TSTRPartitioner,
)
from repro.temporal import Duration

from . import reference
from .conftest import make_events, make_trajectories

ALL_BACKENDS = ["sequential", "thread", "process"]

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
timestamp = st.floats(min_value=0, max_value=1000, allow_nan=False)


@st.composite
def event_sets(draw, min_size=5, max_size=60):
    n = draw(st.integers(min_size, max_size))
    return [
        Event.of_point(draw(coord), draw(coord), draw(timestamp), data=i)
        for i in range(n)
    ]


@st.composite
def st_boxes(draw, ndim=3):
    lows = [draw(coord) for _ in range(ndim)]
    spans = [draw(st.floats(min_value=0, max_value=40, allow_nan=False)) for _ in range(ndim)]
    return STBox(tuple(lows), tuple(lo + s for lo, s in zip(lows, spans)))


def _identities(instances) -> Counter:
    return Counter(inst.identity() for inst in instances)


class TestBoxTableParity:
    @given(event_sets(), st_boxes())
    @settings(max_examples=50, deadline=None)
    def test_candidates_match_linear_scan(self, events, box):
        table = BoxTable.from_instances(events)
        expected = [i for i, e in enumerate(events) if e.st_box().intersects(box)]
        assert table.candidate_rows(box).tolist() == expected

    def test_boundary_touching_query_matches(self):
        events = [Event.of_point(1.0, 2.0, 3.0, data=0)]
        table = BoxTable.from_instances(events)
        # Query faces exactly on the event's coordinates: closed intervals
        # on every side, so each touching face still matches.
        for box in (
            STBox((1.0, 2.0, 3.0), (5.0, 5.0, 5.0)),
            STBox((-5.0, -5.0, -5.0), (1.0, 2.0, 3.0)),
        ):
            assert table.candidate_rows(box).tolist() == [0]
            assert events[0].st_box().intersects(box)

    def test_empty_table(self):
        table = BoxTable.from_instances([])
        assert len(table) == 0
        assert table.candidate_rows(STBox((0, 0, 0), (1, 1, 1))).tolist() == []

    def test_box_exact_marks_point_events(self):
        events = make_events(5) + make_trajectories(3)
        table = BoxTable.from_instances(events)
        assert table.box_exact[:5].all()
        assert not table.box_exact[5:].any()


class TestPackedRTreeParity:
    @given(event_sets(min_size=1), st.lists(st_boxes(), min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_query_sets_and_candidate_counts_match(self, events, queries):
        boxes = [e.st_box() for e in events]
        packed = packed_tree_from_boxes(boxes, capacity=4)
        candidates = 0
        for box in queries:
            expected = reference.box_query(boxes, box)
            candidates += len(expected)
            assert packed.query_rows(box).tolist() == expected
        # candidates is a function of the data and the queries alone;
        # node/entry test counts depend on tree shape.
        assert packed.stats.candidates == candidates
        assert packed.stats.queries == len(queries)

    def test_tiny_trees_match_linear_scan(self):
        for n in (0, 1, 2, 5, 100):
            events = make_events(n)
            boxes = [e.st_box() for e in events]
            packed = packed_tree_from_boxes(boxes, capacity=4)
            for box in (STBox((0, 0, 0), (5, 5, 50_000)), STBox((90, 90, 0), (91, 91, 1))):
                assert packed.query_rows(box).tolist() == reference.box_query(boxes, box)

    def test_packed_tree_pickles(self):
        import pickle

        packed = packed_tree_from_boxes([e.st_box() for e in make_events(40)])
        clone = pickle.loads(pickle.dumps(packed))
        box = STBox((0, 0, 0), (5, 5, 50_000))
        assert clone.query_rows(box).tolist() == packed.query_rows(box).tolist()


class TestGridRangeKernelParity:
    @given(
        st.integers(1, 3),
        st.lists(st.floats(min_value=-15, max_value=15, allow_nan=False), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranges_match_candidate_cells(self, ndim, raw):
        import numpy as np

        grid = GridIndex(STBox((0.0,) * ndim, (10.0,) * ndim), (4,) * ndim)
        step = 10.0 / 4
        # Mix arbitrary coordinates with exact cell-boundary multiples so
        # the boundary-touch decrement path is exercised every run.
        values = raw + [0.0, step, 2 * step, 10.0]
        boxes = []
        for lo in values:
            for hi in values:
                if hi >= lo:
                    boxes.append((tuple([lo] * ndim), tuple([hi] * ndim)))
        mins = np.array([b[0] for b in boxes])
        maxs = np.array([b[1] for b in boxes])
        firsts, lasts = grid.candidate_ranges_batch(mins, maxs)
        for i, (lo, hi) in enumerate(boxes):
            expected = grid.candidate_cells(STBox(lo, hi))
            f, l = firsts[i].tolist(), lasts[i].tolist()
            if any(a > b for a, b in zip(f, l)):
                got = []
            else:
                got = [
                    grid.flatten(idx)
                    for idx in product(*(range(a, b + 1) for a, b in zip(f, l)))
                ]
            assert got == expected

    def test_unbounded_sentinels_do_not_overflow(self):
        import numpy as np

        grid = GridIndex(STBox((0.0,), (10.0,)), (5,))
        mins = np.array([[-1.0e18]])
        maxs = np.array([[1.0e18]])
        firsts, lasts = grid.candidate_ranges_batch(mins, maxs)
        assert firsts[0, 0] == 0
        assert lasts[0, 0] == 4


def _cell_data(cells):
    return [[inst.identity() for inst in cell] for cell in cells]


class TestAllocateParity:
    @pytest.mark.parametrize(
        "structure",
        [
            TimeSeriesStructure.regular(Duration(0, 86_400), 24),
            TimeSeriesStructure([Duration(0, 10_000), Duration(10_000, 86_400)]),
            SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 3),
            SpatialMapStructure(Envelope(0, 0, 10, 10).split(3, 2)),
            RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 86_400), 3, 3, 4),
            RasterStructure.of_product(
                Envelope(0, 0, 10, 10).split(2, 2), Duration(0, 86_400).split(3)
            ),
        ],
        ids=["ts-regular", "ts-irregular", "sm-regular", "sm-irregular", "raster-regular", "raster-irregular"],
    )
    @pytest.mark.parametrize("method", ["auto", "rtree", "naive"])
    def test_cells_and_stats_match(self, structure, method):
        instances = make_events(60) + make_trajectories(10)
        expected_stats = AllocationStats()
        stats = AllocationStats()
        expected = reference.allocate(instances, structure, method, expected_stats)
        cells = allocate(instances, structure, method, stats)
        assert _cell_data(cells) == _cell_data(expected)
        assert stats.snapshot() == expected_stats.snapshot()

    def test_regular_method_on_regular_structure(self):
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 24)
        instances = make_events(40)
        s1, s2 = AllocationStats(), AllocationStats()
        expected = reference.allocate(instances, structure, "regular", s1)
        cells = allocate(instances, structure, "regular", s2)
        assert _cell_data(cells) == _cell_data(expected)
        assert s1.snapshot() == s2.snapshot()

    def test_regular_method_rejected_on_irregular(self):
        structure = SpatialMapStructure(Envelope(0, 0, 10, 10).split(3, 2))
        with pytest.raises(ValueError, match="regular method"):
            allocate(make_events(5), structure, "regular")

    def test_unknown_method_rejected(self):
        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 4)
        with pytest.raises(ValueError, match="unknown allocation method"):
            allocate(make_events(5), structure, "bogus")

    def test_boundary_sitting_events(self):
        # Events exactly on cell edges must land in both neighbors
        # (closed-interval grids).
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 4)
        events = [Event.of_point(2.5, 5.0, 100.0, data=0), Event.of_point(0.0, 0.0, 0.0, data=1)]
        cells = allocate(events, structure, "auto")
        assert _cell_data(cells) == _cell_data(reference.allocate(events, structure, "auto"))
        assert sum(len(c) for c in cells) == 5  # edge event in 4 cells, corner in 1

    def test_empty_partition_allocates_nothing(self):
        structure = SpatialMapStructure.regular(Envelope(0, 0, 10, 10), 4, 4)
        stats = AllocationStats()
        assert allocate([], structure, "auto", stats) == [[] for _ in range(16)]
        assert stats.snapshot() == AllocationStats().snapshot()


class TestAssignBatchParity:
    @given(event_sets(min_size=10), st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_tstr(self, events, gt, gs):
        p = TSTRPartitioner(gt, gs)
        p.fit(events)
        assert p.assign_batch(events) == reference.assign(p, events)

    @given(event_sets(min_size=10), st.integers(2, 9))
    @settings(max_examples=30, deadline=None)
    def test_str(self, events, n):
        p = STRPartitioner(n)
        p.fit(events)
        assert p.assign_batch(events) == reference.assign(p, events)

    @given(event_sets(min_size=10), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_tbalance(self, events, n):
        p = TBalancePartitioner(n)
        p.fit(events)
        assert p.assign_batch(events) == reference.assign(p, events)

    def test_hash(self):
        events = make_events(50)
        p = HashPartitioner(7)
        p.fit(events)
        assert p.assign_batch(events) == reference.assign(p, events)

    def test_cut_sitting_centers(self):
        # Fit, then craft events whose centers sit exactly on fitted cuts;
        # searchsorted(side="right") must agree with bisect_right there.
        events = make_events(80)
        p = TSTRPartitioner(3, 4)
        p.fit(events)
        extras = [
            Event.of_point(5.0, 5.0, cut, data=1000 + i)
            for i, cut in enumerate(p._cuts)
        ]
        for tiling in p._tilings:
            for cut in tiling.x_cuts:
                extras.append(Event.of_point(cut, 5.0, 40_000.0, data=len(extras)))
        assert p.assign_batch(extras) == reference.assign(p, extras)


class TestSelectionParityAcrossBackends:
    SPATIAL = Envelope(2.0, 2.0, 6.0, 6.0)
    TEMPORAL = Duration(10_000.0, 60_000.0)

    def _dataset(self):
        events = make_events(300)
        # Boundary-sitting extras: exactly on the query-box faces above.
        events.append(Event.of_point(6.0, 6.0, 60_000.0, data=9001))
        events.append(Event.of_point(2.0, 2.0, 10_000.0, data=9002))
        return events

    def _select(self, backend: str, index: bool, partitioner=None, duplicate=False):
        """Selected partitions as lists of ``(identity, is_primary)``."""
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            sel = Selector(
                spatial=self.SPATIAL,
                temporal=self.TEMPORAL,
                partitioner=partitioner,
                index=index,
                duplicate=duplicate,
            )
            rdd = sel.select(ctx, ctx.parallelize(self._dataset(), 4))
            return [
                [(inst.identity(), getattr(inst, "dup_primary", True)) for inst in part]
                for part in rdd._collect_partitions()
            ]
        finally:
            ctx.backend.stop()

    def _expected(self):
        return reference.select(self._dataset(), self.SPATIAL, self.TEMPORAL)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("index", [True, False])
    def test_plain_selection_matches_linear_scan_in_order(self, backend, index):
        selected = [pair for part in self._select(backend, index) for pair in part]
        expected = [(inst.identity(), True) for inst in self._expected()]
        assert selected == expected
        assert len(expected) > 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_partition_ids_match_per_instance_assign(self, backend):
        partitioner = TSTRPartitioner(2, 4)
        parts = self._select(backend, index=True, partitioner=partitioner)
        expected = self._expected()
        by_pid: dict[int, list] = {}
        for pid, inst in zip(reference.assign(partitioner, expected), expected):
            by_pid.setdefault(pid, []).append((inst.identity(), True))
        assert len(parts) == partitioner.num_partitions
        assert {pid: part for pid, part in enumerate(parts) if part} == by_pid

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_duplicate_mode_matches_per_instance_fan_out(self, backend):
        partitioner = TSTRPartitioner(2, 4)
        parts = self._select(
            backend, index=True, partitioner=partitioner, duplicate=True
        )
        by_pid: dict[int, list] = {}
        for pid, inst, primary in reference.fan_out(partitioner, self._expected()):
            by_pid.setdefault(pid, []).append((inst.identity(), primary))
        assert {pid: part for pid, part in enumerate(parts) if part} == by_pid
        # Replica fan-out must actually occur for the comparison to bite.
        assert any(not primary for part in parts for _, primary in part)

    def test_probe_counter_reports_work(self):
        ctx = EngineContext(default_parallelism=2)
        sel = Selector(spatial=Envelope(0, 0, 5, 5), temporal=Duration(0, 50_000))
        sel.select(ctx, ctx.parallelize(make_events(200), 2)).collect()
        assert sel.rtree_probes.value > 0

    def test_probe_counter_is_per_call(self):
        # Each call builds its trees afresh (§3.1), so a repeat of the same
        # selection reports the same probe work, not a running total.
        ctx = EngineContext(default_parallelism=2)
        rdd = ctx.parallelize(make_events(200), 2)
        sel = Selector(spatial=Envelope(0, 0, 5, 5), temporal=Duration(0, 50_000))
        first = sel.select(ctx, rdd).collect()
        probes = sel.rtree_probes.value
        assert sel.select(ctx, rdd).collect() == first
        assert sel.rtree_probes.value == probes > 0


class TestConversionParityAcrossBackends:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_event_to_ts_parity(self, backend):
        from repro.core.converters import Event2TsConverter

        structure = TimeSeriesStructure.regular(Duration(0, 86_400), 24)
        events = make_events(200)
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            conv = Event2TsConverter(structure)
            merged = conv.convert_merged(
                ctx.parallelize(events, 4), combine=lambda a, b: a + b
            )
            cells = [[inst.identity() for inst in cell] for cell in merged.cell_values()]
        finally:
            ctx.backend.stop()
        assert cells == _cell_data(reference.allocate(events, structure))


# -- exact-refinement kernel --------------------------------------------------------
#
# Coordinates and times come off a coarse lattice whose every other line is
# a cell edge of the structures below, so vertices land on edges and
# corners, segments run collinear with edges and stationary segments occur
# all the time — the cases where a float predicate can disagree with itself.

KERNEL_EXTENT = Envelope(0.0, 0.0, 8.0, 8.0)
KERNEL_WINDOW = Duration(0.0, 80.0)

lattice_xy = st.integers(-1, 17).map(lambda k: k * 0.5)
lattice_t = st.integers(-1, 17).map(lambda k: k * 5.0)


@st.composite
def lattice_trajectories(draw, max_points=6):
    """1..max_points entries, time-ordered; some with interval durations."""
    n = draw(st.integers(1, max_points))
    starts = sorted(draw(st.lists(lattice_t, min_size=n, max_size=n)))
    entries = [
        Entry(
            Point(draw(lattice_xy), draw(lattice_xy)),
            Duration(t, t + draw(st.sampled_from([0.0, 0.0, 5.0, 30.0]))),
        )
        for t in starts
    ]
    return Trajectory(entries, data=draw(st.integers(0, 10**6)))


def _kernel_structures():
    triangle = Polygon([(1.0, 1.0), (5.0, 1.0), (3.0, 6.0)])
    road = LineString([(0.0, 7.0), (4.0, 4.0), (8.0, 4.0)])
    return {
        "raster-regular": RasterStructure.regular(KERNEL_EXTENT, KERNEL_WINDOW, 4, 4, 4),
        "raster-irregular": RasterStructure.of_product(
            KERNEL_EXTENT.split(2, 4), [Duration(0, 20), Duration(20, 25), Duration(40, 80)]
        ),
        "sm-regular": SpatialMapStructure.regular(KERNEL_EXTENT, 4, 4),
        "sm-irregular": SpatialMapStructure(KERNEL_EXTENT.split(4, 2)),
        "ts-regular": TimeSeriesStructure.regular(KERNEL_WINDOW, 4),
        "ts-irregular": TimeSeriesStructure([Duration(0, 20), Duration(20, 25), Duration(60, 80)]),
        # Cells that are not envelopes take the scalar per-pair predicate.
        "sm-shapes": SpatialMapStructure([triangle, road, Envelope(4.0, 4.0, 8.0, 8.0)]),
        "raster-shapes": RasterStructure.of_product(
            [triangle, Envelope(0.0, 0.0, 4.0, 4.0), road], KERNEL_WINDOW.split(2)
        ),
        # Envelopes without area: a point, a vertical and a horizontal line.
        "sm-degenerate": SpatialMapStructure(
            [Envelope(2.0, 2.0, 2.0, 2.0), Envelope(4.0, 1.0, 4.0, 6.0), Envelope(1.0, 3.0, 7.0, 3.0)]
        ),
    }


def _methods(structure):
    return ("regular", "auto", "rtree", "naive") if structure.is_regular else ("auto", "rtree", "naive")


def _assert_allocation_parity(instances, structure):
    """Every method == the oracle (cells, in-cell order, stats) and, the
    scan-everything charge of ``naive`` aside, == every other method."""
    results = {}
    for method in _methods(structure):
        expected_stats, stats = AllocationStats(), AllocationStats()
        expected = reference.allocate(instances, structure, method, expected_stats)
        cells = allocate(instances, structure, method, stats)
        assert [[id(i) for i in c] for c in cells] == [[id(i) for i in c] for c in expected]
        assert stats.snapshot() == expected_stats.snapshot()
        results[method] = (cells, stats.snapshot())
    first_cells, first_stats = results["auto"]
    for method, (cells, snapshot) in results.items():
        assert cells == first_cells
        if method != "naive":
            assert snapshot == first_stats
        else:
            assert {**snapshot, "candidate_tests": 0} == {**first_stats, "candidate_tests": 0}
    return first_cells


class TestExactRefinementKernel:
    @pytest.mark.parametrize("name", sorted(_kernel_structures()))
    @given(trajs=st.lists(lattice_trajectories(), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_allocate_matches_oracle(self, name, trajs):
        _assert_allocation_parity(trajs, _kernel_structures()[name])

    @given(
        trajs=st.lists(lattice_trajectories(), min_size=1, max_size=6),
        events=event_sets(min_size=1, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_event_and_trajectory_partitions(self, trajs, events):
        # Envelope-shaped events and multi-entry generic instances need
        # exactness but own no points: the scalar per-pair fallback.
        boxy = [
            Event(Envelope(1.0, 1.0, 3.0, 2.5), Duration(10.0, 30.0), data="box"),
            Event(LineString([(0.5, 0.5), (7.5, 3.0)]), Duration(0.0, 50.0), data="line"),
            Instance([Entry(Point(1.0, 7.0), Duration(0.0)), Entry(Point(7.0, 1.0), Duration(70.0))]),
        ]
        mixed = [x for group in zip(trajs, events) for x in group] + boxy + trajs[len(events):]
        for name in ("raster-regular", "raster-shapes", "sm-irregular", "ts-regular"):
            _assert_allocation_parity(mixed, _kernel_structures()[name])

    @given(trajs=st.lists(lattice_trajectories(max_points=8), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_kernel_verdict_per_pair(self, trajs):
        """Every (trajectory, cell) pair, straight through the kernel."""
        for name in ("raster-irregular", "sm-regular", "ts-irregular"):
            structure = _kernel_structures()[name]
            boxes, is_box = structure._cell_st_boxes()
            assert is_box.all()
            table = PointsTable.from_instances(trajs)
            rows, cells = np.divmod(np.arange(len(trajs) * structure.n_cells), structure.n_cells)
            verdict = table.intersects_boxes(
                rows, boxes[:, cells], spatial=not isinstance(structure, TimeSeriesStructure)
            )
            expected = [
                _matches_cell(trajs[r], *_cell_bounds(structure, c))
                for r, c in zip(rows.tolist(), cells.tolist())
            ]
            assert verdict.tolist() == expected

    @given(
        ends=st.tuples(lattice_xy, lattice_xy, lattice_xy, lattice_xy),
        corner=st.tuples(lattice_xy, lattice_xy),
        size=st.tuples(st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 0.5, 2.0])),
    )
    @settings(max_examples=300, deadline=None)
    # Strictly inside one edge and collinear with it: no corner lies on the
    # segment and no edge is straddled — only the on-edge cases see it.
    @example(ends=(2.5, 2.0, 3.5, 2.0), corner=(2.0, 2.0), size=(2.0, 2.0))
    @example(ends=(4.0, 3.5, 4.0, 2.5), corner=(2.0, 2.0), size=(2.0, 2.0))
    def test_edge_crossing_is_segments_intersect(self, ends, corner, size):
        """The four-edge test on its own, without the filters that run
        before it in the kernel (which make some of its cases unreachable)."""
        from repro.geometry.distance import segments_intersect

        (ax, ay, bx, by), (x0, y0) = ends, corner
        box = Envelope(x0, y0, x0 + size[0], y0 + size[1])
        corners = list(box.corners())
        expected = any(
            segments_intersect((ax, ay), (bx, by), corners[k], corners[(k + 1) % 4])
            for k in range(4)
        )
        column = lambda v: np.array([v], dtype=np.float64)
        got = pointstable._segments_cross_boxes(
            column(ax), column(ay), column(bx), column(by),
            np.array([[box.min_x], [box.min_y], [box.max_x], [box.max_y]]),
        )
        assert got.tolist() == [expected]

    def test_chunked_expansion_equals_one_pass(self, monkeypatch):
        trajs = make_trajectories(30, points=12)
        structure = RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 86_400), 5, 5, 6)
        whole = allocate(trajs, structure, "naive")
        monkeypatch.setattr(pointstable, "REFINE_CHUNK_POINTS", 7)  # < one trajectory
        assert allocate(trajs, structure, "naive") == whole

    # -- hand cases: one cell (2,2)-(4,4) open during [4, 6] ------------------------

    CELL = Envelope(2.0, 2.0, 4.0, 4.0)
    SLOT = Duration(4.0, 6.0)

    @pytest.mark.parametrize(
        "points, in_raster, in_map, in_series",
        [
            # a vertex exactly on a corner / on an edge, while the slot is open
            ([(2.0, 2.0, 5.0)], True, True, True),
            ([(4.0, 3.0, 6.0)], True, True, True),
            # ... and just after it closed
            ([(4.0, 3.0, 6.5)], False, True, False),
            # collinear with the bottom edge, both ends outside, overlapping it
            ([(0.0, 2.0, 4.0), (6.0, 2.0, 5.0)], True, True, True),
            # collinear with it but short of the cell
            ([(0.0, 2.0, 4.0), (1.5, 2.0, 5.0)], False, False, True),
            # grazing the corner (2,2) only
            ([(1.0, 3.0, 4.0), (3.0, 1.0, 5.0)], True, True, True),
            # a fast vehicle: crosses the cell with no sample inside it
            ([(1.0, 1.0, 4.5), (5.0, 5.0, 5.5)], True, True, True),
            # the MBR overlaps the cell, the segment passes it by
            ([(0.0, 3.5, 4.5), (2.5, 6.0, 5.5)], False, False, True),
            # stationary inside the cell around the slot: no sample during it
            ([(3.0, 3.0, 0.0), (3.0, 3.0, 10.0)], False, True, True),
            # own timestamp misses the slot, the segment's span covers it
            ([(3.0, 3.0, 0.0), (7.0, 7.0, 10.0)], True, True, True),
            # span ends before the slot opens
            ([(3.0, 3.0, 0.0), (7.0, 7.0, 3.0)], False, True, False),
            # single sample elsewhere
            ([(7.0, 7.0, 5.0)], False, False, True),
        ],
    )
    def test_hand_cases(self, points, in_raster, in_map, in_series):
        traj = Trajectory.of_points(points)
        filler = Envelope(6.0, 0.0, 8.0, 1.0)  # a second cell, so rtree/naive have a tree
        for structure, expected in (
            (RasterStructure([(self.CELL, self.SLOT), (filler, self.SLOT)]), in_raster),
            (SpatialMapStructure([self.CELL, filler]), in_map),
            (TimeSeriesStructure([self.SLOT, Duration(100.0, 101.0)]), in_series),
        ):
            cells = _assert_allocation_parity([traj], structure)
            assert (cells[0] == [traj]) is expected

    def test_interval_entry_reaches_a_later_slot(self):
        # t_end, not t_start, decides: the entry at t=0 lasts until 5.
        traj = Trajectory([Entry(Point(3.0, 3.0), Duration(0.0, 5.0))])
        structure = RasterStructure([(self.CELL, self.SLOT), (self.CELL, Duration(5.5, 6.0))])
        assert _assert_allocation_parity([traj], structure) == [[traj], []]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_conversion_and_features_on_every_backend(self, backend):
        from repro.core.converters import Event2RasterConverter, Traj2RasterConverter
        from repro.core.extractors import RasterFlowExtractor, RasterSpeedExtractor

        structure = RasterStructure.regular(Envelope(0, 0, 10, 10), Duration(0, 86_400), 4, 4, 6)
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            for instances, converter, extractor in (
                (make_trajectories(40), Traj2RasterConverter(structure), RasterSpeedExtractor()),
                (make_events(200), Event2RasterConverter(structure), RasterFlowExtractor()),
            ):
                rdd = ctx.parallelize(instances, 4)
                converted = converter.convert(rdd)._collect_partitions()
                oracle_stats = AllocationStats()
                oracle = [
                    [structure.instance_of(reference.allocate(part, structure, "auto", oracle_stats))]
                    for part in rdd._collect_partitions()
                ]
                assert [_cell_data(p[0].cell_values()) for p in converted] == [
                    _cell_data(p[0].cell_values()) for p in oracle
                ]
                if backend != "process":  # workers keep their own counters
                    assert converter.stats.snapshot() == oracle_stats.snapshot()
                features = extractor.extract(ctx.from_partitions(converted)).cell_values()
                assert features == extractor.extract(ctx.from_partitions(oracle)).cell_values()
        finally:
            ctx.backend.stop()


class TestTrajectorySelectionParity:
    """The point half of the table is the selector's exact pass for
    trajectories: same survivors, same order, with or without the index."""

    @given(
        trajs=st.lists(lattice_trajectories(), min_size=1, max_size=12),
        events=event_sets(min_size=0, max_size=4),
        box=st.tuples(lattice_xy, lattice_xy, lattice_t).flatmap(
            lambda lo: st.tuples(
                st.just(lo), st.tuples(*(st.sampled_from([0.0, 0.5, 3.0]) for _ in range(3)))
            )
        ),
        bounded=st.sampled_from(["both", "spatial", "temporal"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_linear_scan(self, trajs, events, box, bounded):
        (x, y, t), (dx, dy, dt) = box
        spatial = Envelope(x, y, x + dx, y + dy) if bounded != "temporal" else None
        temporal = Duration(t, t + dt) if bounded != "spatial" else None
        # A two-entry generic instance: inexact, but no trajectory.
        odd = Instance([Entry(Point(x, y), Duration(t)), Entry(Point(x + 9.0, y), Duration(t + 90.0))])
        data = trajs + events + [odd]
        expected = [id(i) for i in reference.select(data, spatial, temporal)]
        ctx = EngineContext(default_parallelism=2)
        for index in (True, False):
            selector = Selector(spatial, temporal, index=index)
            got = selector.select(ctx, ctx.parallelize(data, 2)).collect()
            assert [id(i) for i in got] == expected

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("index", [True, False])
    def test_every_backend(self, backend, index):
        trajs = make_trajectories(120)
        spatial, temporal = Envelope(2.0, 2.0, 6.0, 6.0), Duration(10_000.0, 60_000.0)
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            selector = Selector(spatial, temporal, index=index)
            got = selector.select(ctx, ctx.parallelize(trajs, 4)).collect()
        finally:
            ctx.backend.stop()
        expected = reference.select(trajs, spatial, temporal)
        assert [t.data for t in got] == [t.data for t in expected]
        assert 0 < len(expected) < len(trajs)


class TestAllocateMemoryIsBounded:
    def test_long_trip_over_a_fine_raster(self):
        """One 5 000-point trip whose MBR is the whole 32×32×24 raster: the
        pairs×points expansion (24 576 × 5 000) must run in chunks."""
        import math
        import random
        import tracemalloc

        structure = RasterStructure.regular(
            Envelope(0, 0, 32, 32), Duration(0, 86_400), 32, 32, 24
        )
        long_trip = Trajectory.of_points(
            [
                (
                    16 + 15.9 * math.sin(i / 300.0) * math.cos(i / 37.0),
                    16 + 15.9 * math.cos(i / 211.0),
                    i * 86_400 / 4_999,
                )
                for i in range(5_000)
            ],
            data="long",
        )
        rng = random.Random(3)
        shorts = []
        for k in range(200):
            x, y, t = rng.uniform(1, 31), rng.uniform(1, 31), rng.uniform(0, 80_000)
            points = []
            for _ in range(8):
                points.append((x, y, t))
                x, y, t = x + rng.uniform(-0.6, 0.6), y + rng.uniform(-0.6, 0.6), t + 60
            shorts.append(Trajectory.of_points(points, data=k))
        instances = shorts[:100] + [long_trip] + shorts[100:]

        stats = AllocationStats()
        tracemalloc.start()
        try:
            cells = allocate(instances, structure, "auto", stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

        # The short trips against the full oracle (the long one sits
        # between them: order inside a cell is partition order).
        oracle_stats = AllocationStats()
        oracle = reference.allocate(shorts, structure, "auto", oracle_stats)
        assert [[i for i in c if i is not long_trip] for c in cells] == oracle
        snapshot, short_snapshot = stats.snapshot(), oracle_stats.snapshot()
        assert snapshot["candidate_tests"] == short_snapshot["candidate_tests"] + structure.n_cells
        assert snapshot["exact_tests"] == short_snapshot["exact_tests"] + structure.n_cells
        # The long one against the scalar predicate: every cell it was
        # given, and a fixed sample of those it was refused (the whole
        # oracle is 24 576 walks over 5 000 entries — minutes).
        given_cells = [c for c, members in enumerate(cells) if any(i is long_trip for i in members)]
        assert snapshot["allocations"] == short_snapshot["allocations"] + len(given_cells)
        assert len(given_cells) > 500
        refused = sorted(set(range(structure.n_cells)) - set(given_cells))
        for cell in given_cells[::7] + refused[::211]:
            assert _matches_cell(long_trip, *_cell_bounds(structure, cell)) is (
                cell in given_cells
            ), cell
