"""Supplementary microbenchmarks of the substrates.

Not a paper table — these time the primitives everything else is built
on, so substrate regressions are visible independently of the end-to-end
numbers: R-tree build/query vs brute force, the regular-grid shortcut,
engine map/shuffle throughput, and per-partition selection indexing.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import fresh_ctx
from repro.core import Selector
from repro.datasets.common import EPOCH_2013
from repro.geometry import Envelope
from repro.index import GridIndex, STBox
from repro.temporal import Duration

N_BOXES = 5_000
N_QUERIES = 200


@pytest.fixture(scope="module")
def boxes():
    rng = random.Random(7)
    out = []
    for i in range(N_BOXES):
        min_x = rng.uniform(0, 95)
        min_y = rng.uniform(0, 95)
        out.append(
            (
                STBox(
                    (min_x, min_y),
                    (min_x + rng.uniform(0.5, 5), min_y + rng.uniform(0.5, 5)),
                ),
                i,
            )
        )
    return out


@pytest.fixture(scope="module")
def queries():
    rng = random.Random(8)
    out = []
    for _ in range(N_QUERIES):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        out.append(STBox((x, y), (x + 10, y + 10)))
    return out


def test_micro_bruteforce_query(benchmark, boxes, queries):
    def run():
        return sum(
            sum(1 for box, _ in boxes if box.intersects(q)) for q in queries
        )

    total = benchmark(run)
    assert total > 0


def test_micro_packed_rtree_build(benchmark, boxes):
    pytest.importorskip("numpy")
    from repro.columnar import packed_tree_from_boxes

    benchmark(lambda: packed_tree_from_boxes([b for b, _ in boxes], capacity=16))


def test_micro_packed_rtree_query(benchmark, boxes, queries):
    """Array-at-a-time descent vs the brute-force scan above."""
    pytest.importorskip("numpy")
    from repro.columnar import packed_tree_from_boxes

    tree = packed_tree_from_boxes([b for b, _ in boxes], capacity=16)

    def run():
        return sum(len(tree.query_rows(q)) for q in queries)

    total = benchmark(run)
    assert total > 0


def test_micro_boxtable_mask(benchmark, boxes, queries):
    """Vectorized intersects over the same boxes, no index at all."""
    np = pytest.importorskip("numpy")
    from repro.columnar import PackedRTree

    mins = np.array([b.mins for b, _ in boxes], dtype=np.float64)
    maxs = np.array([b.maxs for b, _ in boxes], dtype=np.float64)

    def run():
        total = 0
        for q in queries:
            qmin = np.asarray(q.mins)
            qmax = np.asarray(q.maxs)
            mask = np.all((mins <= qmax) & (maxs >= qmin), axis=1)
            total += int(np.count_nonzero(mask))
        return total

    total = benchmark(run)
    # Sanity: the mask agrees with the packed tree on the same inputs.
    tree = PackedRTree(mins, maxs, capacity=16)
    assert total == sum(len(tree.query_rows(q)) for q in queries)


def test_micro_grid_candidates(benchmark, queries):
    grid = GridIndex(STBox((0, 0), (100, 100)), (32, 32))

    def run():
        return sum(len(grid.candidate_cells(q)) for q in queries)

    assert benchmark(run) > 0


def test_micro_engine_map_filter(benchmark):
    ctx = fresh_ctx()
    rdd = ctx.parallelize(range(100_000), 8).persist()
    rdd.count()
    benchmark(lambda: rdd.map(lambda x: x * 2).filter(lambda x: x % 3 == 0).count())


def test_micro_engine_reduce_by_key(benchmark):
    ctx = fresh_ctx()
    rdd = ctx.parallelize([(i % 100, 1) for i in range(100_000)], 8).persist()
    rdd.count()
    benchmark(lambda: rdd.reduce_by_key(lambda a, b: a + b).count())


def test_micro_selection_indexing(benchmark, bench_events):
    """Per-partition R-tree selection over in-memory events (every call
    builds its indexes, as §3.1 does)."""
    ctx = fresh_ctx()
    rdd = ctx.parallelize(bench_events, 8).persist()
    rdd.count()
    spatial = Envelope(-74.0, 40.7, -73.95, 40.75)
    temporal = Duration(EPOCH_2013, EPOCH_2013 + 5 * 86_400.0)
    selector = Selector(spatial, temporal)
    benchmark(lambda: selector.select(ctx, rdd).count())


def test_micro_serve_resident_selection(benchmark, bench_dirs, monkeypatch):
    """The serve daemon's selection over warm resident blocks of the T-STR
    event dataset — its counted work, no timing gate.

    Fails unless the resident blocks answer with zero rows decoded and no
    block loaded again, and the answer equals the oracle's
    (``tests/reference.select`` over every record in block order).
    """
    from repro.serve import DatasetState
    from repro.stio import StDataset, blockv2
    from tests import reference

    path = bench_dirs / "events_st4ml"
    spatial = Envelope(-74.0, 40.7, -73.95, 40.75)
    temporal = Duration(EPOCH_2013, EPOCH_2013 + 5 * 86_400.0)
    ctx = fresh_ctx()
    everything, _ = StDataset(path).read(ctx)
    expected = reference.select(everything.collect(), spatial, temporal)
    state = DatasetState(path)
    state.select(spatial, temporal)  # cold: the selected blocks become resident
    loaded = state.blocks_loaded
    decoded = [0]
    decode = blockv2.decode_record

    def counting(value):
        decoded[0] += 1
        return decode(value)

    monkeypatch.setattr(blockv2, "decode_record", counting)
    records, scanned, total = benchmark(state.select, spatial, temporal)
    print(
        f"\nserve resident selection: {len(records):,} records from {scanned}/{total} "
        f"blocks, {decoded[0]} rows decoded"
    )
    assert decoded[0] == 0
    assert state.blocks_loaded == loaded == scanned
    assert records == expected


def test_micro_traj_raster_allocate(benchmark):
    """Exact trajectory→raster allocation: 300 trips into 8×8×24 cells.

    Fails when the cells or the counters differ from one scalar
    ``_matches_cell`` call per (trip, candidate cell) pair.
    """
    from repro.core.converters.base import (
        AllocationStats,
        _cell_bounds,
        _matches_cell,
        allocate,
    )
    from repro.core.structures import RasterStructure
    from repro.instances import Trajectory

    rng = random.Random(11)
    structure = RasterStructure.regular(
        Envelope(0.0, 0.0, 8.0, 8.0), Duration(0.0, 86_400.0), 8, 8, 24
    )
    trips = []
    for i in range(300):
        x, y, t = rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 80_000)
        points = []
        for _ in range(rng.randint(12, 30)):
            points.append((x, y, t))
            x = min(max(x + rng.uniform(-0.4, 0.4), 0.0), 8.0)
            y = min(max(y + rng.uniform(-0.4, 0.4), 0.0), 8.0)
            t += rng.uniform(20.0, 200.0)
        trips.append(Trajectory.of_points(points, data=i))

    stats = AllocationStats()

    def run():
        stats.reset()
        return allocate(trips, structure, "auto", stats)

    cells = benchmark(run)

    expected = [[] for _ in range(structure.n_cells)]
    pairs = 0
    for trip in trips:
        for cell in structure.candidate_cells(trip.spatial_extent, trip.temporal_extent):
            pairs += 1
            if _matches_cell(trip, *_cell_bounds(structure, cell)):
                expected[cell].append(trip)
    assert cells == expected
    assert stats.snapshot() == {
        "instances": len(trips),
        "candidate_tests": pairs,
        "exact_tests": pairs,
        "allocations": sum(len(c) for c in expected),
    }


def test_micro_event_raster_fused(benchmark, tmp_path):
    """Event→raster flow over 30 v2 blocks × 8×8×24 cells, through
    ``Pipeline.run`` on the bench backend (``REPRO_BENCH_BACKEND``).

    Fails on any cell difference from the staged operator chain, or when
    the fused scan decoded a single row.
    """
    from repro.core import Pipeline, RasterStructure
    from repro.core.converters import Event2RasterConverter
    from repro.core.extractors import RasterFlowExtractor
    from repro.instances import Event
    from repro.stio import StDataset

    rng = random.Random(19)
    spatial = Envelope(1.0, 1.0, 7.0, 7.0)
    temporal = Duration(10_000.0, 70_000.0)
    blocks = [
        [
            Event.of_point(rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0, 86_400), data=i)
            for i in range(1_000)
        ]
        for _ in range(30)
    ]
    path = str(tmp_path / "events")
    StDataset.write(path, blocks, "event")

    def pipeline():
        return Pipeline(
            Selector(spatial, temporal),
            Event2RasterConverter(RasterStructure.regular(spatial, temporal, 8, 8, 24)),
            RasterFlowExtractor(),
        )

    ctx = fresh_ctx()
    fused = pipeline()
    assert fused.explain(ctx, path)["path"] == "fused"
    counts = benchmark(lambda: fused.run(ctx, path).cell_values())

    staged = pipeline()
    chain = staged.extractor.extract(
        staged.converter.convert(staged.selector.select(ctx, path))
    ).cell_values()
    assert counts == chain
    assert sum(counts) > 0
    assert fused.selector.last_load_stats.rows_decoded == 0


def test_micro_stream_write_path(benchmark, tmp_path, monkeypatch):
    """20 micro-batches × 500 events through ``StDataset.ingest`` with a
    compaction every 8 blocks — the write path's counted work, no timing gate.

    Fails unless every ingested record was asked for its extent exactly
    once, no compaction decoded a row, and the long-lived handle parsed its
    metadata at most once per ingest.
    """
    from repro.instances import Event
    from repro.instances.base import Instance
    from repro.partitioners import TSTRPartitioner
    from repro.stio import DatasetMetadata, StDataset, blockv2

    rng = random.Random(23)
    batches = [
        [
            Event.of_point(
                rng.uniform(0, 8), rng.uniform(0, 8), 3_600.0 * (b + rng.random()), data=i
            )
            for i in range(500)
        ]
        for b in range(20)
    ]
    work = dict.fromkeys(
        ("st_bounds", "rows_decoded", "metadata_parses", "ingests", "compactions"), 0
    )

    def counting(name, original):
        def wrapper(*args, **kwargs):
            work[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Instance, "st_bounds", counting("st_bounds", Instance.st_bounds))
    monkeypatch.setattr(
        blockv2, "decode_record", counting("rows_decoded", blockv2.decode_record)
    )
    monkeypatch.setattr(
        DatasetMetadata,
        "load",
        classmethod(counting("metadata_parses", DatasetMetadata.load.__func__)),
    )
    feeds = iter(range(1_000))

    def run():
        dataset = StDataset(tmp_path / f"feed-{next(feeds)}")
        for batch in batches:
            report = dataset.ingest(
                batch, TSTRPartitioner(1, 2), rebalance_threshold=8, instance_type="event"
            )
            work["ingests"] += 1
            work["compactions"] += report.compacted

    benchmark.pedantic(run, rounds=3, iterations=1)
    ingests = work["ingests"]
    print(
        f"\nwrite path: {work['st_bounds'] / (ingests * 500):.2f} st_bounds/record, "
        f"{work['rows_decoded']} rows decoded by {work['compactions']} compactions, "
        f"{work['metadata_parses'] / ingests:.2f} metadata parses/ingest"
    )
    assert work["compactions"] > 0
    assert work["st_bounds"] == ingests * 500
    assert work["rows_decoded"] == 0
    assert work["metadata_parses"] <= ingests


def test_micro_report(benchmark, boxes, queries):
    """Pruning factor summary: counted intersection tests per query."""

    def measure():
        from repro.columnar import packed_tree_from_boxes

        tree = packed_tree_from_boxes([b for b, _ in boxes], capacity=16)
        for q in queries:
            tree.query_rows(q)
        indexed_tests = tree.stats.entry_tests + tree.stats.node_tests
        brute_tests = len(boxes) * len(queries)
        return indexed_tests, brute_tests

    indexed, brute = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(
        f"\nR-tree pruning: {indexed:,} tests vs brute-force {brute:,} "
        f"({brute / indexed:.1f}x fewer)"
    )
    assert indexed < brute
