"""Extraction parity against the fold oracle, and the worker-side tree reduce.

The extraction contract mirrors the selection/conversion one: an
extractor's ``AggSpec`` kernels agree *bit for bit* with the same
extractor folding its own ``local``/``merge``/``finalize``
(``reference.folding`` withholds the spec).  Both representations ride one
deterministic reduce topology (per-partition left fold, then balanced
adjacent pairing), so the comparisons below use plain ``==`` — no
tolerances — over randomized inputs, empty cells, single partitions,
duplicate-mode boundary replicas, the pairs a kernel computes one by one
(interval entry times, non-envelope cells), and all three execution
backends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.aggregate import CellTable, CountSpec, scatter_sum
from repro.core import Selector
from repro.core.converters.singular_to_collective import (
    Event2RasterConverter,
    Event2SmConverter,
    Event2TsConverter,
    Traj2RasterConverter,
    Traj2SmConverter,
    Traj2TsConverter,
)
from repro.core.extractors.raster import (
    RasterFlowExtractor,
    RasterSpeedExtractor,
    RasterTransitExtractor,
)
from repro.core.extractors.spatialmap import SmFlowExtractor, SmSpeedExtractor
from repro.core.extractors.timeseries import TsFlowExtractor, TsSpeedExtractor
from repro.engine import EngineContext
from repro.geometry import Envelope, Point
from repro.instances import Event, Trajectory
from repro.instances.base import Entry
from repro.obs.tracer import Tracer, installed
from repro.partitioners import TSTRPartitioner
from repro.temporal import Duration

from . import reference
from .conftest import make_events, make_trajectories

ALL_BACKENDS = ["sequential", "thread", "process"]

EXTENT = Envelope(0.0, 0.0, 10.0, 10.0)
WINDOW = Duration(0.0, 86_400.0)


def _structures():
    from repro.core.structures import (
        RasterStructure,
        SpatialMapStructure,
        TimeSeriesStructure,
    )

    sm = SpatialMapStructure.regular(EXTENT, 5, 5)
    ts = TimeSeriesStructure.regular(WINDOW, 24)
    raster = RasterStructure.regular(EXTENT, WINDOW, 4, 4, 12)
    return sm, ts, raster


def _both_paths(ctx, converted, extractor):
    """(oracle-fold features, extractor features) off the same converted RDD."""
    materialized = ctx.from_partitions(converted._collect_partitions())
    scalar = reference.folding(extractor).extract(materialized).cell_values()
    columnar = extractor.extract(materialized).cell_values()
    return scalar, columnar


def _event_cases(events):
    sm, ts, raster = _structures()
    return [
        (Event2SmConverter(sm), SmFlowExtractor()),
        (Event2TsConverter(ts), TsFlowExtractor()),
        (Event2RasterConverter(raster), RasterFlowExtractor()),
    ]


def _trajectory_cases():
    sm, ts, raster = _structures()
    return [
        (Traj2SmConverter(sm), SmFlowExtractor()),
        (Traj2SmConverter(sm), SmSpeedExtractor()),
        (Traj2SmConverter(sm), SmSpeedExtractor(unit="ms")),
        (Traj2TsConverter(ts), TsFlowExtractor()),
        (Traj2TsConverter(ts), TsSpeedExtractor()),
        (Traj2RasterConverter(raster), RasterSpeedExtractor()),
        (Traj2RasterConverter(raster), RasterTransitExtractor()),
    ]


class TestExtractionParity:
    """Property-based kernel/fold agreement per extractor family."""

    @given(
        n=st.integers(0, 80),
        seed=st.integers(0, 2**20),
        parts=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_event_families(self, n, seed, parts):
        events = make_events(n, seed=seed)
        ctx = EngineContext(default_parallelism=parts, backend="sequential")
        for converter, extractor in _event_cases(events):
            converted = converter.convert(ctx.parallelize(events, parts))
            scalar, columnar = _both_paths(ctx, converted, extractor)
            assert columnar == scalar

    @given(
        n=st.integers(1, 25),
        seed=st.integers(0, 2**20),
        parts=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_trajectory_families(self, n, seed, parts):
        trajectories = make_trajectories(n, seed=seed)
        ctx = EngineContext(default_parallelism=parts, backend="sequential")
        for converter, extractor in _trajectory_cases():
            converted = converter.convert(ctx.parallelize(trajectories, parts))
            scalar, columnar = _both_paths(ctx, converted, extractor)
            assert columnar == scalar

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_all_backends(self, backend):
        events = make_events(240)
        trajectories = make_trajectories(30)
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            for converter, extractor in _event_cases(events):
                converted = converter.convert(ctx.parallelize(events, 4))
                scalar, columnar = _both_paths(ctx, converted, extractor)
                assert columnar == scalar
            for converter, extractor in _trajectory_cases():
                converted = converter.convert(ctx.parallelize(trajectories, 4))
                scalar, columnar = _both_paths(ctx, converted, extractor)
                assert columnar == scalar
        finally:
            ctx.backend.stop()

    def test_empty_cells_and_single_partition(self):
        # Events clustered in one corner: most cells stay empty.
        events = make_events(40, extent=1.5, t_extent=3_600.0)
        ctx = EngineContext(default_parallelism=1, backend="sequential")
        for converter, extractor in _event_cases(events):
            converted = converter.convert(ctx.parallelize(events, 1))
            scalar, columnar = _both_paths(ctx, converted, extractor)
            assert columnar == scalar
        sm, _, _ = _structures()
        converted = Traj2SmConverter(sm).convert(ctx.parallelize([], 1))
        extractor = SmSpeedExtractor()
        scalar, columnar = _both_paths(ctx, converted, extractor)
        assert columnar == scalar
        assert all(v is None for v in columnar)  # no trajectories anywhere

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_duplicate_mode_boundary_replicas(self, backend):
        """select(duplicate=True) → convert → extract, against the fold."""
        events = make_events(300)
        events.append(Event.of_point(6.0, 6.0, 60_000.0, data=9001))
        sm, _, _ = _structures()
        ctx = EngineContext(default_parallelism=4, backend=backend)
        try:
            selector = Selector(
                spatial=Envelope(2.0, 2.0, 6.0, 6.0),
                temporal=Duration(10_000.0, 60_000.0),
                partitioner=TSTRPartitioner(2, 4),
                duplicate=True,
            )
            selected = selector.select(ctx, ctx.parallelize(events, 4))
            converted = Event2SmConverter(sm).convert(selected)
            scalar, columnar = _both_paths(ctx, converted, SmFlowExtractor())
            assert columnar == scalar
            assert sum(scalar) > 0
        finally:
            ctx.backend.stop()

    def test_air_quality_field_means(self):
        from repro.apps.air_road import AirQualityExtractor
        from repro.core.structures import RasterStructure

        rng_events = []
        fields = ("pm25", "pm10", "no2")
        for i, ev in enumerate(make_events(120)):
            # Rebuild each event with a per-field reading dict; every event
            # carries a different subset so merge paths with missing
            # fields are exercised.
            readings = {f: (i % 7) + k * 0.125 for k, f in enumerate(fields) if (i + k) % 4}
            entry = ev.entries[0]
            rng_events.append(Event(entry.spatial, entry.temporal, readings, data=i))
        raster = RasterStructure.regular(EXTENT, WINDOW, 3, 3, 4)
        ctx = EngineContext(default_parallelism=3, backend="sequential")
        converted = Event2RasterConverter(raster).convert(ctx.parallelize(rng_events, 3))
        scalar, columnar = _both_paths(ctx, converted, AirQualityExtractor())
        assert columnar == scalar
        assert any(v for v in scalar)


class TestScalarFallbackAndDemotion:
    """Inputs the array kernels cannot decide stay inside the kernel: those
    ``(cell, trajectory)`` pairs are computed one by one and scattered with
    the rest, so the partial is a ``CellTable`` whatever the input holds.
    (No spec declines and nothing demotes any more; the class keeps its
    name for the test ids.)"""

    @staticmethod
    def _extraction_span_kind(converted_partitions, extractor) -> bool:
        """``columnar`` arg of the Extraction span over these partitions."""
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=2, backend="sequential", tracer=tracer)
        extractor.extract(ctx.from_partitions(converted_partitions))
        span = next(s for s in tracer.spans if s.name == "Extraction")
        return span.args["columnar"]

    @staticmethod
    def _interval_trajectory(offset: float, t0: float = 0.0, step: float = 1_000.0):
        # Interval-valued entry durations: window membership is not a
        # contiguous timestamp slice, so the kernels go pair by pair.
        entries = [
            Entry(Point(1.0 + offset, 1.0 + 0.3 * k), Duration(t0 + step * k, t0 + step * k + 50.0), None)
            for k in range(1, 6)
        ]
        return Trajectory(entries, data=f"interval-{offset}")

    def _check(self, backend, converter, partitions, extractor):
        """Extractor == fold oracle over these partitions, as CellTables."""
        ctx = EngineContext(default_parallelism=len(partitions), backend=backend)
        try:
            converted = converter.convert(ctx.from_partitions(partitions))
            scalar, columnar = _both_paths(ctx, converted, extractor)
            assert columnar == scalar
            assert any(v not in (None, (0, 0), (0, None)) for v in scalar)
            kinds = extractor.premerged(
                ctx.from_partitions(converted._collect_partitions())
            ).collect()
            assert kinds and all(isinstance(p, CellTable) for p in kinds)
        finally:
            ctx.backend.stop()

    @pytest.mark.parametrize("parts", [1, 3])
    def test_interval_trajectories_fall_back(self, parts):
        _, ts, _ = _structures()
        trajectories = [self._interval_trajectory(0.1 * i) for i in range(4)]
        ctx = EngineContext(default_parallelism=parts, backend="sequential")
        converted = Traj2TsConverter(ts).convert(ctx.parallelize(trajectories, parts))
        scalar, columnar = _both_paths(ctx, converted, TsSpeedExtractor())
        assert columnar == scalar
        # The kernel handled every pair itself: the span reports columnar,
        # exactly as over instant-only input.
        partitions = converted._collect_partitions()
        assert self._extraction_span_kind(partitions, TsSpeedExtractor()) is True
        vectorizable = Traj2TsConverter(ts).convert(
            ctx.parallelize(make_trajectories(8, seed=3), parts)
        )
        assert (
            self._extraction_span_kind(
                vectorizable._collect_partitions(), TsSpeedExtractor()
            )
            is True
        )

    def test_mixed_partitions_demote(self):
        # Partition 0 holds instant trajectories, partition 1 interval
        # ones: both build tables, which merge as tables.
        _, ts, _ = _structures()
        vectorizable = make_trajectories(8, seed=3)
        fallback = [self._interval_trajectory(0.2 * i) for i in range(3)]
        ctx = EngineContext(default_parallelism=2, backend="sequential")
        converted = Traj2TsConverter(ts).convert(
            ctx.from_partitions([vectorizable, fallback])
        )
        scalar, columnar = _both_paths(ctx, converted, TsSpeedExtractor())
        assert columnar == scalar
        assert self._extraction_span_kind(
            converted._collect_partitions(), TsSpeedExtractor()
        ) is True

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_interval_and_instant_trajectories_on_every_backend(self, backend):
        """All-interval partitions, and partitions mixing both kinds, for the
        time-series and the raster speed kernels (the latter's
        ``count_vehicles`` column counts interval trajectories too)."""
        _, ts, raster = _structures()
        instant = make_trajectories(9, seed=4)
        # Spread over the raster's time slots so several cells see a
        # multi-point portion.
        interval = [
            self._interval_trajectory(0.4 * i, t0=7_000.0 * i, step=2_500.0) for i in range(6)
        ]
        mixed = [instant[:5] + interval[:2], interval[2:4] + instant[5:], interval[4:]]
        for partitions in ([interval[:3], interval[3:]], mixed):
            self._check(backend, Traj2TsConverter(ts), partitions, TsSpeedExtractor())
            self._check(
                backend, Traj2RasterConverter(raster), partitions, RasterSpeedExtractor()
            )
            self._check(
                backend, Traj2RasterConverter(raster), partitions, RasterTransitExtractor()
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_non_envelope_transit_cells(self, backend):
        """Irregular (polygon) raster cells: ``TransitSpec`` tests those
        cells' pairs with ``intersects``, the envelope cells' with arrays."""
        from repro.core.structures import RasterStructure
        from repro.geometry import Polygon

        triangle = Polygon([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        slots = [Duration(0.0, 43_200.0), Duration(43_200.0, 86_400.0)]
        cells = [(g, d) for g in (triangle, Envelope(5.0, 5.0, 10.0, 10.0)) for d in slots]
        raster = RasterStructure(cells)
        assert not raster.is_regular
        # Walks along the diagonal cross the triangle's hypotenuse inside
        # its MBR — where a box test and the polygon disagree.
        outward = [(1.0 + k, 1.0 + k, 1_000.0 + 600.0 * k) for k in range(8)]
        inward = [(x, y, 50_000.0 - t) for x, y, t in reversed(outward)]
        crossing = [Trajectory.of_points(outward, data="out"), Trajectory.of_points(inward, data="in")]
        crossing.append(
            Trajectory(
                [Entry(Point(x, y), Duration(t, t + 90.0), None) for x, y, t in outward],
                data="interval-out",
            )
        )
        trajectories = make_trajectories(20, seed=11)
        interval = [
            self._interval_trajectory(0.5 * i, t0=9_000.0 * i, step=6_000.0) for i in range(5)
        ]
        partitions = [
            trajectories[:10] + interval[:2] + crossing[:1],
            trajectories[10:] + interval[2:] + crossing[1:],
        ]
        self._check(
            backend, Traj2RasterConverter(raster), partitions, RasterTransitExtractor()
        )


class TestTreeReduce:
    def test_matches_reduce_and_is_depth_invariant(self):
        ctx = EngineContext(default_parallelism=7, backend="sequential")
        rdd = ctx.parallelize(list(range(100)), 7)
        expected = rdd.reduce(lambda a, b: a + b)
        for depth in (0, 1, 2, 5):
            assert rdd.tree_reduce(lambda a, b: a + b, depth=depth) == expected

    def test_depth_invariant_for_non_associative_f(self):
        # The pairing is fixed; only *where* pairs merge moves with depth.
        ctx = EngineContext(default_parallelism=8, backend="sequential")
        rdd = ctx.parallelize([float(i + 1) for i in range(64)], 8)
        f = lambda a, b: a / 2.0 + b  # noqa: E731 - deliberately non-associative
        results = {rdd.tree_reduce(f, depth=d) for d in range(5)}
        assert len(results) == 1

    def test_skips_empty_partitions_and_raises_on_empty(self):
        ctx = EngineContext(default_parallelism=4, backend="sequential")
        rdd = ctx.from_partitions([[], [1, 2], [], [3]])
        assert rdd.tree_reduce(lambda a, b: a + b) == 6
        empty = ctx.from_partitions([[], [], []])
        with pytest.raises(ValueError, match="empty"):
            empty.tree_reduce(lambda a, b: a + b)

    def test_stats_report_topology(self):
        ctx = EngineContext(default_parallelism=5, backend="sequential")
        rdd = ctx.parallelize(list(range(50)), 5)
        stats: dict = {}
        rdd.tree_reduce(lambda a, b: a + b, depth=2, stats=stats)
        assert stats["partials"] == 5
        assert stats["rounds"] == 3  # 5 -> 3 -> 2 -> 1
        assert 0 < stats["stage_rounds"] <= 2
        driver_only: dict = {}
        rdd.tree_reduce(lambda a, b: a + b, depth=0, stats=driver_only)
        assert driver_only["stage_rounds"] == 0
        assert driver_only["rounds"] == 3

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backends_agree(self, backend):
        ctx = EngineContext(default_parallelism=6, backend=backend)
        try:
            rdd = ctx.parallelize(list(range(1, 200)), 6)
            assert rdd.tree_reduce(lambda a, b: a + b) == sum(range(1, 200))
        finally:
            ctx.backend.stop()

    def test_tree_aggregate_matches_aggregate(self):
        ctx = EngineContext(default_parallelism=5, backend="sequential")
        rdd = ctx.parallelize(list(range(40)), 5)
        expected = rdd.aggregate(
            (0, 0), lambda acc, x: (acc[0] + x, acc[1] + 1), lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        for depth in (0, 2):
            got = rdd.tree_aggregate(
                (0, 0),
                lambda acc, x: (acc[0] + x, acc[1] + 1),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
                depth=depth,
            )
            assert got == expected

    def test_tree_aggregate_empty_returns_zero_copy(self):
        ctx = EngineContext(default_parallelism=3, backend="sequential")
        zero = [0]
        rdd = ctx.from_partitions([[], []])
        result = rdd.tree_aggregate(zero, lambda acc, x: acc, lambda a, b: a)
        assert result == [0] and result is not zero

    def test_rejects_negative_depth(self):
        ctx = EngineContext(default_parallelism=2, backend="sequential")
        rdd = ctx.parallelize([1, 2], 2)
        with pytest.raises(ValueError, match="depth"):
            rdd.tree_reduce(lambda a, b: a + b, depth=-1)


class TestObsCounters:
    def test_extraction_span_carries_reduce_counters(self):
        events = make_events(200)
        sm, _, _ = _structures()
        tracer = Tracer()
        ctx = EngineContext(
            default_parallelism=4, backend="sequential", tracer=tracer
        )
        converted = Event2SmConverter(sm).convert(ctx.parallelize(events, 4))
        SmFlowExtractor().extract(ctx.from_partitions(converted._collect_partitions()))
        counters = tracer.counters
        assert counters["extract_partials_merged"] == 4
        assert counters["extract_cells_aggregated"] == 4 * sm.n_cells
        assert counters["extract_tree_depth"] == 2  # 4 -> 2 -> 1
        span = next(s for s in tracer.spans if s.name == "Extraction")
        assert span.args["partials_merged"] == 4

    def test_process_backend_reports_oob_bytes(self):
        # ``stage_oob_bytes`` is metered against the *installed* tracer
        # (the stage serializer has no context handle), so install one.
        events = make_events(200)
        sm, _, _ = _structures()
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=4, backend="process")
        try:
            with installed(tracer):
                converted = Event2SmConverter(sm).convert(ctx.parallelize(events, 4))
                SmFlowExtractor().extract(
                    ctx.from_partitions(converted._collect_partitions())
                )
            span = next(s for s in tracer.spans if s.name == "Extraction")
            assert span.args["reduce_oob_bytes"] > 0
        finally:
            ctx.backend.stop()


class TestCellTable:
    def test_merge_validates_shape_and_kind(self):
        import numpy as np

        a = CellTable(2, {"c": np.zeros(2)}, {"c": "sum"}, "TimeSeries")
        with pytest.raises(ValueError, match="cell counts"):
            a.merge(CellTable(3, {"c": np.zeros(3)}, {"c": "sum"}, "TimeSeries"))
        with pytest.raises(TypeError, match="same instance type"):
            a.merge(CellTable(2, {"c": np.zeros(2)}, {"c": "sum"}, "Raster"))
        with pytest.raises(ValueError, match="combine op"):
            CellTable(2, {"c": np.zeros(2)}, {"c": "median"}, "TimeSeries")

    def test_merge_ops_and_disjoint_columns(self):
        import numpy as np

        a = CellTable(
            2,
            {"s": np.array([1.0, 2.0]), "lo": np.array([5.0, 1.0])},
            {"s": "sum", "lo": "min"},
            "T",
            rows=2,
        )
        b = CellTable(
            2,
            {"s": np.array([10.0, 20.0]), "hi": np.array([7.0, 2.0])},
            {"s": "sum", "hi": "max"},
            "T",
            rows=3,
        )
        merged = a.merge(b)
        assert merged.columns["s"].tolist() == [11.0, 22.0]
        assert merged.columns["lo"].tolist() == [5.0, 1.0]
        assert merged.columns["hi"].tolist() == [7.0, 2.0]
        assert merged.rows == 5 and merged.partials == 2
        assert merged.nbytes == 3 * 2 * 8

    def test_scatter_sum_is_sequential_in_input_order(self):
        import numpy as np

        ids = np.array([0, 1, 0, 0, 1])
        weights = [0.1, 2.5, 0.2, 0.3, 1e-17]
        out = scatter_sum(ids, weights, 3)
        assert out[0] == 0.0 + 0.1 + 0.2 + 0.3  # exact left-fold semantics
        assert out[1] == 0.0 + 2.5 + 1e-17
        assert out[2] == 0.0

    def test_count_spec_round_trip(self):
        from repro.core.structures import TimeSeriesStructure

        ts = TimeSeriesStructure.regular(Duration(0.0, 100.0), 4)
        instance = ts.empty_instance().with_cell_values([[1], [], [2, 3], []])
        spec = CountSpec()
        table = spec.build(instance)
        assert spec.finalize(table) == [1, 0, 2, 0]
        assert table.rows == 3
