"""The fused column scan: parity, fallbacks, faults, state, "no decode".

``Pipeline.run`` lowers a count plan, and a trajectory speed plan on box
cells, over a v2 dataset to one column scan per block.  Its answer must be
*bit-identical* — ``==`` on ``cell_values()``, never a tolerance — to the
staged operator chain (``Selector.select`` → ``convert`` → ``extract``
called one by one, which never lowers) with no partitioner and to the
brute-force oracle / scalar fold in ``tests/reference.py``, on every
backend, for every knob the selector has.
"""

from __future__ import annotations

import pickle
import tempfile
import types
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.aggregate import CellTable
from repro.core import (
    Pipeline,
    RasterStructure,
    Selector,
    SpatialMapStructure,
    TimeSeriesStructure,
)
from repro.core.converters import (
    Event2RasterConverter,
    Event2SmConverter,
    Event2TsConverter,
    Traj2RasterConverter,
    Traj2SmConverter,
    Traj2TsConverter,
)
from repro.core.extractors import (
    RasterFlowExtractor,
    RasterSpeedExtractor,
    RasterTransitExtractor,
    SmFlowExtractor,
    SmSpeedExtractor,
    TsFlowExtractor,
    TsSpeedExtractor,
)
from repro.engine import EngineContext
from repro.engine.errors import TaskFailure
from repro.engine.faults import FaultPlan, FaultRule, PipelineCheckpoint
from repro.geometry import Envelope, Point, Polygon
from repro.instances import Event, Trajectory
from repro.instances.base import Entry
from repro.obs.tracer import Tracer
from repro.partitioners import TSTRPartitioner
from repro.stio import StDataset
from repro.temporal import Duration
from tests import reference

ALL_BACKENDS = ["sequential", "thread", "process"]

# Everything sits on a half-unit lattice and the structures' cell edges on
# whole units, so events land on cell edges, cell corners and the query
# box's closed boundary — in binary-exact coordinates.
QUERY_S = Envelope(2.0, 2.0, 6.0, 6.0)
QUERY_T = Duration(16.0, 48.0)

KINDS = {
    "raster": (
        Event2RasterConverter,
        lambda: RasterStructure.regular(QUERY_S, QUERY_T, 4, 4, 4),
        RasterFlowExtractor,
    ),
    "sm": (
        Event2SmConverter,
        lambda: SpatialMapStructure.regular(QUERY_S, 4, 4),
        SmFlowExtractor,
    ),
    "ts": (
        Event2TsConverter,
        lambda: TimeSeriesStructure.regular(QUERY_T, 8),
        TsFlowExtractor,
    ),
}

_contexts: dict[str, EngineContext] = {}


def make_ctx(backend: str = "sequential", **kwargs) -> EngineContext:
    options = {"warmup": False, "max_workers": 2} if backend == "process" else None
    return EngineContext(
        default_parallelism=4, backend=backend, backend_options=options, **kwargs
    )


def shared_ctx(backend: str) -> EngineContext:
    """One context per backend for the whole module (hypothesis examples
    must not each pay a process-pool start)."""
    if backend not in _contexts:
        _contexts[backend] = make_ctx(backend)
    return _contexts[backend]


@pytest.fixture(scope="module", autouse=True)
def _stop_contexts():
    yield
    for ctx in _contexts.values():
        ctx.stop()
    _contexts.clear()


def lattice_event(ix: int, iy: int, it: int, i: int = 0) -> Event:
    return Event.of_point(ix * 0.5, iy * 0.5, it * 4.0, data=i)


def write_blocks(path, blocks, codec="tuple") -> str:
    StDataset.write(path, blocks, "event", codec=codec)
    return str(path)


def pipeline(kind: str, method: str = "auto", extractor=None, **selector_kwargs) -> Pipeline:
    converter, structure, flow = KINDS[kind]
    return Pipeline(
        Selector(QUERY_S, QUERY_T, **selector_kwargs),
        converter(structure(), method=method),
        extractor if extractor is not None else flow(),
    )


def staged_chain(pipe: Pipeline, ctx, source, **select_kwargs) -> list:
    """The three operators called one by one — never lowered."""
    selected = pipe.selector.select(ctx, source, **select_kwargs)
    return pipe.extractor.extract(pipe.converter.convert(selected)).cell_values()


def oracle(pipe: Pipeline, instances) -> list:
    selected = reference.select(instances, QUERY_S, QUERY_T)
    cells = reference.allocate(selected, pipe.converter.structure, pipe.converter.method)
    return [len(members) for members in cells]


def counters(stats) -> dict:
    """Every public field of a ``LoadStats``."""
    return {f.name: getattr(stats, f.name) for f in fields(stats) if not f.name.startswith("_")}


def counted(ctx, path: str, fused: bool) -> tuple:
    """(allocation counters, R-tree probes, every LoadStats field) of one
    raster run: ``Pipeline.run``, or the staged operators one public call
    per layer, each boundary forced with ``persist().count()`` and each
    layer's counters read right after it (how the benchmark's per-layer
    pass runs them: a process worker's persist cache stays in the worker,
    so a later layer may recompute an earlier one, and really probe again)."""
    pipe = pipeline("raster")
    if fused:
        pipe.run(ctx, path)
        load, probes = counters(pipe.selector.last_load_stats), pipe.selector.rtree_probes.value
    else:
        rdd, stats = StDataset(path).read(ctx, QUERY_S, QUERY_T)
        rdd.persist().count()
        load = counters(stats)
        selected = pipe.selector.select(ctx, rdd).persist()
        selected.count()
        probes = pipe.selector.rtree_probes.value
        parted = TSTRPartitioner(2, 2).partition(selected).persist()
        parted.count()
        pipe.converter.convert(parted).persist().count()
    return pipe.converter.stats.snapshot(), probes, load


lattice_points = st.tuples(
    st.integers(0, 16), st.integers(0, 16), st.integers(0, 16)
)


# ---------------------------------------------------------------------------
# (a) parity: fused == staged chain == oracle


class TestParity:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=25, deadline=None)
    @given(
        points=st.lists(lattice_points, min_size=0, max_size=60),
        n_blocks=st.integers(1, 4),
        partitioned=st.booleans(),
        duplicate=st.booleans(),
        index=st.booleans(),
        use_metadata=st.booleans(),
    )
    def test_fused_equals_staged_equals_oracle(
        self, backend, kind, points, n_blocks, partitioned, duplicate, index, use_metadata,
    ):
        ctx = shared_ctx(backend)
        events = [lattice_event(*p, i) for i, p in enumerate(points)]
        blocks = [events[b::n_blocks] for b in range(n_blocks)]
        knobs = dict(index=index, duplicate=duplicate and partitioned)
        if partitioned:
            knobs["partitioner"] = TSTRPartitioner(2, 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_blocks(Path(tmp) / "ds", blocks)
            pipe = pipeline(kind, **knobs)
            select_kwargs = dict(use_metadata=use_metadata)
            assert pipe.explain(ctx, path, **select_kwargs)["path"] == "fused"
            fused = pipe.run(ctx, path, **select_kwargs).cell_values()
            assert pipe.selector.last_load_stats.rows_decoded == 0
            staged = staged_chain(pipeline(kind, **knobs), ctx, path, **select_kwargs)
        assert fused == staged == oracle(pipe, events)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("method", ["auto", "regular", "rtree", "naive"])
    def test_every_allocation_method(self, tmp_path, ctx, kind, method):
        events = [lattice_event(x, y, t) for x in range(2, 14, 3) for y in range(17)
                  for t in range(3, 14, 2)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        pipe = pipeline(kind, method=method)
        fused = pipe.run(ctx, path).cell_values()
        assert fused == staged_chain(pipeline(kind, method=method), ctx, path)
        assert fused == oracle(pipe, events)
        assert pipe.selector.last_load_stats.rows_decoded == 0

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_empty_and_all_pruned_selections_give_zeros(self, tmp_path, ctx, kind):
        far = [Event.of_point(100.0, 100.0, 1_000.0)]  # every block pruned
        inside_block_outside_box = [lattice_event(0, 0, 0), lattice_event(16, 16, 16)]
        for name, blocks in (("far", [far]), ("miss", [inside_block_outside_box]), ("none", [[]])):
            path = write_blocks(tmp_path / name, blocks)
            pipe = pipeline(kind, partitioner=TSTRPartitioner(2, 2))
            result = pipe.run(ctx, path).cell_values()
            assert result == [0] * pipe.converter.structure.n_cells
            assert result == staged_chain(pipeline(kind), ctx, path)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fused_stage_passes_strict_mode(self, tmp_path, backend):
        events = [lattice_event(x, y, t) for x in range(17) for y in range(17) for t in (5, 9)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        ctx = make_ctx(backend, strict=True)
        try:
            for method in ("auto", "rtree", "naive"):
                pipe = pipeline("raster", method=method)
                assert pipe.run(ctx, path).cell_values() == oracle(pipe, events)
            # The staged selector / partitioner / converter / extractor
            # stage closures pass the same checks.
            staged = pipeline("raster", partitioner=TSTRPartitioner(2, 2))
            assert staged_chain(staged, ctx, path) == oracle(staged, events)
        finally:
            ctx.stop()

    def test_stats_match_the_staged_chain(self, tmp_path, ctx):
        events = [lattice_event(x, y, t) for x in range(17) for y in range(17) for t in (3, 8, 13)]
        path = write_blocks(tmp_path / "ds", [events[0::3], events[1::3], events[2::3]])
        fused, staged = pipeline("raster"), pipeline("raster")
        fused.run(ctx, path)
        staged_chain(staged, ctx, path)
        assert fused.converter.stats.snapshot() == staged.converter.stats.snapshot()
        a, b = fused.selector.last_load_stats, staged.selector.last_load_stats
        assert (a.partitions_read, a.records_loaded) == (b.partitions_read, b.records_loaded)
        assert a.rows_decoded == 0 and b.rows_decoded == b.records_loaded
        assert a.bytes_read < b.bytes_read


# ---------------------------------------------------------------------------
# (b) blocks the columns cannot decide fall back, per block, and still match


def mixed_instances() -> list:
    return [
        lattice_event(8, 8, 8),
        Event(Envelope(2.5, 2.5, 4.5, 3.5), Duration(20.0), data="envelope"),
        Event(Polygon([(3.0, 3.0), (5.0, 3.0), (4.0, 5.5)]), Duration(24.0), data="polygon"),
        Event(Point(4.0, 4.0), Duration(16.0, 40.0), data="interval"),
        Trajectory.of_points([(4.0, 5.0, 30.0)], data="one-point"),
        Event(Polygon([(6.5, 6.5), (7.5, 6.5), (7.0, 7.5)]), Duration(24.0), data="mbr-only"),
    ]


class TestPerBlockFallback:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_mixed_block_decodes_and_matches(self, tmp_path, backend, kind):
        ctx = shared_ctx(backend)
        points = [lattice_event(x, y, 8, x * 17 + y) for x in range(17) for y in range(17)]
        mixed = mixed_instances()
        path = write_blocks(tmp_path / "ds", [points, mixed])
        pipe = pipeline(kind)
        assert pipe.explain(ctx, path)["path"] == "fused"
        fused = pipe.run(ctx, path).cell_values()
        assert fused == staged_chain(pipeline(kind), ctx, path)
        assert fused == oracle(pipe, points + mixed)
        # Only the mixed block was decoded, and only its candidate rows.
        stats = pipe.selector.last_load_stats
        assert 0 < stats.rows_decoded <= len(mixed)
        assert stats.records_loaded > stats.rows_decoded

    def test_trajectory_flow_takes_the_fallback_in_every_block(self, tmp_path, ctx):
        from tests.conftest import make_trajectories

        trajs = make_trajectories(40, extent=8.0)
        span = Duration(0.0, 90_000.0)
        StDataset.write(tmp_path / "ds", [trajs[:20], trajs[20:]], "trajectory")

        def pipe():
            return Pipeline(
                Selector(QUERY_S, span),
                Traj2RasterConverter(RasterStructure.regular(QUERY_S, span, 4, 4, 4)),
                RasterFlowExtractor(),
            )

        fused = pipe()
        result = fused.run(ctx, str(tmp_path / "ds")).cell_values()
        assert result == staged_chain(pipe(), ctx, str(tmp_path / "ds"))
        stats = fused.selector.last_load_stats
        assert stats.rows_decoded == stats.records_loaded > 0


# ---------------------------------------------------------------------------
# (c) one test per staged-fallback reason: the answer and the reason


class TestStagedFallbackReasons:
    @pytest.fixture
    def events(self):
        return [lattice_event(x, y, 8) for x in range(17) for y in range(17)]

    def check(self, ctx, pipe, source, fragment, **run_kwargs):
        info = pipe.explain(ctx, source, **run_kwargs)
        assert info["path"] == "staged" and fragment in info["reason"]
        tracer = Tracer()
        traced = EngineContext(default_parallelism=4, tracer=tracer)
        result = pipe.run(traced, source, **run_kwargs)
        (root,) = tracer.find("pipeline")
        assert root.args["path"] == "staged" and fragment in root.args["reason"]
        assert info["ignored"] == root.args["ignored"] == []
        assert not tracer.find("FusedScan")
        return result

    def test_list_source(self, ctx, events):
        pipe = pipeline("raster")
        result = self.check(ctx, pipe, events, "not a dataset directory")
        assert result.cell_values() == oracle(pipe, events)
        assert pipe.explain(ctx, events)["blocks_total"] is None

    def test_rdd_source(self, ctx, events):
        pipe = pipeline("raster")
        info = pipe.explain(ctx, ctx.parallelize(events, 3))
        assert (info["path"], info["blocks_selected"]) == ("staged", None)
        assert "not a dataset directory" in info["reason"]
        assert pipe.run(ctx, ctx.parallelize(events, 3)).cell_values() == oracle(pipe, events)

    def test_v1_blocks(self, tmp_path, ctx, events):
        """Not a fallback any more: a v1 directory is refused, then converts."""
        from repro.stio.dataset import LegacyBlockFormatError

        path = str(reference.write_v1_dataset(tmp_path / "v1", [events], "event"))
        pipe = pipeline("raster")
        for call in (pipe.explain, pipe.run):
            with pytest.raises(LegacyBlockFormatError, match="convert-format"):
                call(ctx, path)
        StDataset(path).convert()
        assert pipe.explain(ctx, path)["path"] == "fused"
        assert pipe.run(ctx, path).cell_values() == oracle(pipe, events)

    def test_pickle_codec(self, tmp_path, ctx, events):
        path = write_blocks(tmp_path / "pk", [events], codec="pickle")
        pipe = pipeline("raster")
        result = self.check(ctx, pipe, path, "codec")
        assert result.cell_values() == oracle(pipe, events)

    def test_float_trajectory_spec(self, tmp_path, ctx):
        """Not a fallback any more: a speed spec over trajectories lowers,
        and answers as the staged chain and the scalar fold do, bit for bit."""
        from tests.conftest import make_trajectories

        trajs = make_trajectories(20, extent=8.0)
        StDataset.write(tmp_path / "tr", [trajs], "trajectory")
        path = str(tmp_path / "tr")
        span = Duration(0.0, 90_000.0)

        def pipe(extractor):
            return Pipeline(
                Selector(QUERY_S, span),
                Traj2RasterConverter(RasterStructure.regular(QUERY_S, span, 4, 4, 4)),
                extractor,
            )

        fused = pipe(RasterSpeedExtractor())
        info = fused.explain(ctx, path)
        assert info["path"] == "fused" and "trajectory speed" in info["reason"]
        result = fused.run(ctx, path).cell_values()
        assert result == staged_chain(pipe(RasterSpeedExtractor()), ctx, path)
        assert result == staged_chain(pipe(reference.folding(RasterSpeedExtractor())), ctx, path)
        assert any(speed is not None for _, speed in result)
        stats = fused.selector.last_load_stats
        assert stats.rows_decoded == stats.records_loaded > 0

    def test_custom_extractor(self, tmp_path, ctx, events):
        path = write_blocks(tmp_path / "ds", [events])
        pipe = pipeline("raster", extractor=reference.folding(RasterFlowExtractor()))
        result = self.check(ctx, pipe, path, "no agg_spec")
        assert result.cell_values() == pipeline("raster").run(ctx, path).cell_values()

    def test_no_extractor(self, tmp_path, ctx, events):
        path = write_blocks(tmp_path / "ds", [events])
        pipe = Pipeline(Selector(QUERY_S, QUERY_T), KINDS["raster"][0](KINDS["raster"][1]()))
        assert pipe.explain(ctx, path)["path"] == "staged"
        assert pipe.run(ctx, path).count() == 1  # the converted RDD, as ever

    def test_converter_with_pre_map_or_agg(self, tmp_path, ctx, events):
        class Doubling(Event2RasterConverter):
            def convert(self, rdd, pre_map=None, agg=None):
                return super().convert(rdd, pre_map=lambda ev: ev, agg=lambda arr: arr + arr)

        path = write_blocks(tmp_path / "ds", [events])
        pipe = Pipeline(
            Selector(QUERY_S, QUERY_T), Doubling(KINDS["raster"][1]()), RasterFlowExtractor()
        )
        result = self.check(ctx, pipe, path, "converter")
        assert result.cell_values() == [2 * c for c in oracle(pipe, events)]

    def test_checkpoint_dir(self, tmp_path, ctx, events):
        path = write_blocks(tmp_path / "ds", [events])
        pipe = pipeline("raster")
        result = self.check(ctx, pipe, path, "checkpoint_dir", checkpoint_dir=tmp_path / "ck")
        assert result.cell_values() == oracle(pipe, events)
        assert (tmp_path / "ck").exists()

    def test_fused_reason_and_block_counts(self, tmp_path, ctx, events):
        far = [Event.of_point(100.0, 100.0, 1_000.0)]
        path = write_blocks(tmp_path / "ds", [events, far])
        info = pipeline("raster").explain(ctx, path)
        assert info["path"] == "fused" and "column scan" in info["reason"]
        assert (info["blocks_total"], info["blocks_selected"]) == (2, 1)
        assert pipeline("raster").explain(ctx, path, use_metadata=False)["blocks_selected"] == 2

    def test_explain_names_the_selector_knobs_a_fused_plan_ignores(self, tmp_path, events):
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=4, tracer=tracer)
        assert pipeline("raster").explain(ctx, path)["ignored"] == []
        knobs = dict(partitioner=TSTRPartitioner(2, 2), num_partitions=3, duplicate=True, index=False)
        for knob, value in knobs.items():
            assert pipeline("raster", **{knob: value}).explain(ctx, path)["ignored"] == [knob]
        # Defaults spelled out are not "set"; on_corrupt/backend are honoured.
        spelled = pipeline("raster", partitioner=None, num_partitions=None, duplicate=False,
                           index=True, on_corrupt="quarantine", backend="thread")
        assert spelled.explain(ctx, path)["ignored"] == []
        # The traced root span carries it, and ignoring changes no answer.
        pipe = pipeline("raster", **knobs)
        result = pipe.run(ctx, path)
        (root,) = tracer.find("pipeline")
        assert root.args["path"] == "fused" and root.args["ignored"] == list(knobs)
        assert result.cell_values() == oracle(pipe, events)
        # The same selector on a staged plan (a list source) ignores nothing.
        assert pipeline("raster", **knobs).explain(ctx, events)["ignored"] == []


# ---------------------------------------------------------------------------
# The default configuration reaches the fused path: no format argument anywhere


class TestDefaultConfigurationIsFused:
    EVENTS = [lattice_event(x, y, 8, x) for x in range(17) for y in range(17)]

    def check(self, ctx, path, events):
        pipe = pipeline("raster")
        assert pipe.explain(ctx, path)["path"] == "fused"
        assert pipe.run(ctx, path).cell_values() == oracle(pipe, events)
        assert pipe.selector.last_load_stats.rows_decoded == 0

    def test_save_dataset(self, tmp_path, ctx):
        from repro.stio import save_dataset

        save_dataset(tmp_path / "d", self.EVENTS, "event")
        self.check(ctx, str(tmp_path / "d"), self.EVENTS)

    def test_write(self, tmp_path, ctx):
        StDataset.write(tmp_path / "d", [self.EVENTS[:100], self.EVENTS[100:]], "event")
        self.check(ctx, str(tmp_path / "d"), self.EVENTS)

    def test_ingest_then_run_incremental(self, tmp_path, ctx):
        ds = StDataset(tmp_path / "d")
        ds.ingest(self.EVENTS[:150], instance_type="event")
        ds.ingest(self.EVENTS[150:])
        self.check(ctx, str(tmp_path / "d"), self.EVENTS)
        pipe = pipeline("raster")
        run = pipe.run_incremental(ctx, str(tmp_path / "d"))
        assert run.result.cell_values() == oracle(pipe, self.EVENTS)
        assert pipe.selector.last_load_stats.rows_decoded == 0

    def test_repro_generate(self, tmp_path, ctx, capsys):
        from repro.cli import main
        from repro.datasets import NYC_BBOX
        from repro.datasets.common import EPOCH_2013

        assert main(["generate", "nyc", "--records", "300", "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        spatial = NYC_BBOX.to_envelope()
        temporal = Duration(EPOCH_2013, EPOCH_2013 + 30 * 86_400.0)
        pipe = Pipeline(
            Selector(spatial, temporal),
            Event2RasterConverter(RasterStructure.regular(spatial, temporal, 4, 4, 4)),
            RasterFlowExtractor(),
        )
        assert pipe.explain(ctx, str(tmp_path / "d"))["path"] == "fused"
        assert sum(pipe.run(ctx, str(tmp_path / "d")).cell_values()) > 0
        assert pipe.selector.last_load_stats.rows_decoded == 0


# ---------------------------------------------------------------------------
# Observability: the traced fused run


class TestTracedFusedRun:
    def test_one_fused_scan_phase_with_counted_work(self, tmp_path):
        events = [lattice_event(x, y, 8) for x in range(17) for y in range(17)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        tracer = Tracer()
        ctx = EngineContext(default_parallelism=4, tracer=tracer)
        pipe = pipeline("raster")
        pipe.run(ctx, path)
        (root,) = tracer.find("pipeline")
        phases = [s.name for s in tracer.children(root) if s.category == "phase"]
        assert phases == ["FusedScan"]
        assert root.args["path"] == "fused"
        assert (root.args["blocks_total"], root.args["blocks_selected"]) == (2, 2)
        work = tracer.totals(root)
        assert work["rows_scanned"] == len(events)
        assert work["rows_decoded"] == 0
        snapshot = pipe.converter.stats.snapshot()
        assert work["candidate_tests"] == snapshot["candidate_tests"]
        assert work["allocations"] == snapshot["allocations"] == sum(oracle(pipe, events))
        assert tracer.counters["partitions_scanned"] == 2

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fused_scan_totals_are_the_runs_load_and_allocation_work(self, tmp_path, backend):
        # The event_flow workload's shape: events off a blocked dataset
        # into a raster flow.  The FusedScan subtree counts exactly what
        # the run's LoadStats and converter.stats deltas say it did.
        events = [lattice_event(x, y, t) for x in range(17) for y in range(17) for t in (5, 9)]
        path = write_blocks(tmp_path / "ds", [events[b::4] for b in range(4)])
        tracer = Tracer()
        ctx = make_ctx(backend, tracer=tracer)
        pipe = pipeline("raster")
        before = pipe.converter.stats.snapshot()
        try:
            pipe.run(ctx, path)
        finally:
            ctx.stop()
        load, after = pipe.selector.last_load_stats, pipe.converter.stats.snapshot()
        expected = {
            "partitions_read": load.partitions_read,
            "partitions_scanned": load.partitions_selected,
            "partitions_pruned": load.partitions_total - load.partitions_selected,
            "records_loaded": load.records_loaded,
            "rows_scanned": load.rows_scanned,
            "rows_decoded": load.rows_decoded,
            "bytes_read": load.bytes_read,
            **{name: after[name] - before[name] for name in after},
        }
        (scan,) = tracer.find("FusedScan")
        totals = tracer.totals(scan)
        assert {name: totals[name] for name in expected} == expected
        assert totals["partitions_read"] == 4 and totals["rows_scanned"] == len(events)
        assert totals["allocations"] == sum(oracle(pipe, events)) > 0

    def test_stats_are_exact_on_the_process_backend(self, tmp_path):
        # ... and on the thread backend, fused or staged: every counter a
        # task reports reaches the driver once, whichever backend ran it.
        events = [lattice_event(x, y, 8) for x in range(17) for y in range(17)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        for fused in (False, True):
            expected = counted(shared_ctx("sequential"), path, fused)
            for backend in ("thread", "process"):
                assert counted(shared_ctx(backend), path, fused) == expected, (backend, fused)
            allocation, probes, load = expected
            assert allocation["allocations"] == sum(oracle(pipeline("raster"), events))
            assert allocation["candidate_tests"] > 0
            assert (probes > 0) != fused  # a column scan probes no R-tree
            assert load["partitions_read"] == 2 and load["records_loaded"] > 0
            assert load["rows_scanned"] == len(events)


# ---------------------------------------------------------------------------
# (d) faults and quarantine


class TestFusedUnderFaults:
    @pytest.fixture
    def dataset(self, tmp_path):
        events = [lattice_event(x, y, t) for x in range(17) for y in range(17) for t in (5, 9)]
        blocks = [events[b::4] for b in range(4)]
        return write_blocks(tmp_path / "ds", blocks), events

    @pytest.mark.parametrize(
        "backend, rule",
        [
            ("process", FaultRule("worker_kill", probability=0.4)),
            ("sequential", FaultRule("task_error", probability=0.5)),
            ("thread", FaultRule("task_error", probability=0.5)),
            ("sequential", FaultRule("corrupt_read", probability=1.0)),
            ("process", FaultRule("corrupt_read", probability=1.0)),
        ],
    )
    def test_injected_faults_are_retried_to_the_same_answer(self, dataset, backend, rule):
        path, events = dataset
        plan = FaultPlan([rule], seed=5)
        ctx = make_ctx(backend, fault_plan=plan)
        try:
            pipe = pipeline("raster")
            result = pipe.run(ctx, path).cell_values()
        finally:
            ctx.stop()
        assert result == oracle(pipe, events)
        stats = pipe.selector.last_load_stats
        assert (stats.partitions_read, stats.partitions_quarantined) == (4, 0)
        assert stats.rows_decoded == 0

    @pytest.mark.parametrize(
        "backend, rule",
        [
            ("sequential", FaultRule("task_error", probability=0.5)),
            ("thread", FaultRule("task_error", probability=0.5)),
            ("process", FaultRule("task_error", probability=0.5)),
            ("process", FaultRule("worker_kill", probability=0.4)),
        ],
    )
    def test_a_chaos_run_counts_like_a_fault_free_run(self, dataset, backend, rule):
        path, _ = dataset
        for fused in (True, False):
            ctx = make_ctx(backend, fault_plan=FaultPlan([rule], seed=5))
            try:
                chaos = counted(ctx, path, fused)
                assert ctx.metrics.failed_attempts > 0 or ctx.metrics.worker_losses > 0
            finally:
                ctx.stop()
            assert chaos == counted(shared_ctx(backend), path, fused), fused

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_quarantine_skips_a_bad_block_and_counts_it(self, dataset, backend):
        path, events = dataset
        bad = Path(path) / "part-00002.stb"
        bad.write_bytes(bad.read_bytes()[:40])  # truncated header
        ctx = shared_ctx(backend)
        with pytest.raises(Exception, match="part-00002.stb"):
            pipeline("raster").run(ctx, path)
        pipe = pipeline("raster", on_corrupt="quarantine")
        result = pipe.run(ctx, path).cell_values()
        staged = pipeline("raster", on_corrupt="quarantine")
        assert result == staged_chain(staged, ctx, path)
        assert result == oracle(pipe, [e for b in (0, 1, 3) for e in events[b::4]])
        stats = pipe.selector.last_load_stats
        assert stats.partitions_quarantined == 1
        assert stats.quarantined_files == ["part-00002.stb"]
        assert stats.partitions_read == 3


# ---------------------------------------------------------------------------
# (e) incremental state banks CellTables


class TestIncrementalState:
    @staticmethod
    def batch(i: int) -> list:
        return [lattice_event(x, y, 4 + 3 * i, i) for x in range(17) for y in range(0, 17, 2)]

    def feed(self, path, k):
        batches = [self.batch(i) for i in range(k)]
        for batch in batches:
            StDataset(path).ingest(batch, partitioner=TSTRPartitioner(1, 2),
                                   instance_type="event")
        return batches

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_state_mode_banks_tables_and_matches_batch(self, tmp_path, backend):
        ctx = shared_ctx(backend)
        path = str(tmp_path / "feed")
        pipe = pipeline("ts")
        state = None
        seen = []
        for i in range(3):
            StDataset(path).ingest(self.batch(i), partitioner=TSTRPartitioner(1, 2),
                                   instance_type="event")
            seen += self.batch(i)
            run = pipe.run_incremental(ctx, path, state=state)
            state = run.state
            assert run.result.cell_values() == oracle(pipe, seen)
        assert all(isinstance(p, CellTable) for p in state.banked())
        assert run.result.cell_values() == pipeline("ts").run(ctx, path).cell_values()

    def test_state_round_trips_through_pickle_and_checkpoint(self, tmp_path, ctx):
        path = str(tmp_path / "feed")
        batches = self.feed(path, k=2)
        pipe = pipeline("raster")
        first = pipe.run_incremental(ctx, path)
        assert isinstance(first.state.banked()[0], CellTable)

        revived = pickle.loads(pickle.dumps(first.state))
        ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
        ckpt.save("stream-state", ctx.parallelize([first.state], 1))
        (checkpointed,) = ckpt.load("stream-state").collect()

        extra = [lattice_event(x, 8, 10, 9) for x in range(17)]
        StDataset(path).ingest(extra)
        expected = oracle(pipe, [e for b in batches for e in b] + extra)
        for state in (revived, checkpointed):
            run = pipeline("raster").run_incremental(ctx, path, state=state)
            assert run.blocks_new == 1
            assert run.result.cell_values() == expected

    def test_since_mode_lowers_too(self, tmp_path, ctx):
        path = str(tmp_path / "feed")
        batches = self.feed(path, k=2)
        mark = max(e.temporal.end for e in batches[0])
        pipe = pipeline("ts")
        tracer = Tracer()
        traced = EngineContext(default_parallelism=4, tracer=tracer)
        run = pipe.run_incremental(traced, path, since=mark)
        assert tracer.find("FusedScan")
        assert run.result.cell_values() == oracle(pipe, batches[1])


# ---------------------------------------------------------------------------
# (f) "no decode": a point-event plan never unpickles a row


class TestNoDecode:
    def test_run_and_run_incremental_survive_a_poisoned_unpickler(
        self, tmp_path, ctx, monkeypatch
    ):
        events = [lattice_event(x, y, 8) for x in range(17) for y in range(17)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])

        def poisoned(*args, **kwargs):
            raise AssertionError("a fused point-event scan unpickled a row")

        import repro.stio.blockv2 as blockv2

        # Only blockv2's view of pickle: the engine's own pickling is untouched.
        shim = types.SimpleNamespace(
            loads=poisoned, dumps=pickle.dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL
        )
        monkeypatch.setattr(blockv2, "pickle", shim)
        before = ctx.metrics.snapshot()["shuffle_records"]
        for kind in sorted(KINDS):
            pipe = pipeline(kind, partitioner=TSTRPartitioner(2, 2))
            assert pipe.run(ctx, path).cell_values() == oracle(pipe, events)
            inc = pipe.run_incremental(ctx, path)
            assert inc.result.cell_values() == oracle(pipe, events)
        assert ctx.metrics.snapshot()["shuffle_records"] == before
        # ... and the staged chain over the same blocks does need the unpickler.
        with pytest.raises(Exception):
            staged_chain(pipeline("raster"), ctx, path)


# ---------------------------------------------------------------------------
# (g) trajectory speed plans lower too: the fused trajectory scan

SPEED_KINDS = {
    "raster": (Traj2RasterConverter, KINDS["raster"][1], RasterSpeedExtractor),
    "sm": (Traj2SmConverter, KINDS["sm"][1], SmSpeedExtractor),
    "ts": (Traj2TsConverter, KINDS["ts"][1], TsSpeedExtractor),
}


def speed_pipeline(kind: str, extractor=None, **selector_kwargs) -> Pipeline:
    converter, structure, speed = SPEED_KINDS[kind]
    return Pipeline(
        Selector(QUERY_S, QUERY_T, **selector_kwargs),
        converter(structure()),
        extractor if extractor is not None else speed(),
    )


# A walk from a lattice start: half-unit steps (0 is a stationary segment)
# at 0-, 4- or 8-second strides (0: no elapsed time), so points sit on cell
# edges, on slot bounds and on the query's closed boundary; a walk of no
# steps is a one-point trajectory, and a slot holding one point of a longer
# walk is a one-point portion.
lattice_walks = st.tuples(
    lattice_points,
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2)), max_size=5),
)


def lattice_trajectory(start, steps, i: int) -> Trajectory:
    x, y, t = start
    points = [(x, y, t)]
    for dx, dy, dt in steps:
        x, y, t = min(max(x + dx, 0), 16), min(max(y + dy, 0), 16), t + dt
        points.append((x, y, t))
    return Trajectory.of_points([(x * 0.5, y * 0.5, t * 4.0) for x, y, t in points], data=i)


def counts_and_speeds(values: list) -> tuple[list, list]:
    """A raster cell's ``(vehicles, speed)`` split; other kinds have no count."""
    counts = [v[0] if isinstance(v, tuple) else None for v in values]
    return counts, [v[1] if isinstance(v, tuple) else v for v in values]


class TestTrajectorySpeedScan:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("kind", sorted(SPEED_KINDS))
    @settings(max_examples=20, deadline=None)
    @given(walks=st.lists(lattice_walks, min_size=1, max_size=24), n_blocks=st.integers(1, 4))
    def test_fused_equals_staged_equals_fold(self, backend, kind, walks, n_blocks):
        ctx = shared_ctx(backend)
        trajs = [lattice_trajectory(*walk, i) for i, walk in enumerate(walks)]
        blocks = [trajs[b::n_blocks] for b in range(n_blocks)]
        folding = reference.folding(SPEED_KINDS[kind][2]())
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "ds")
            StDataset.write(path, blocks, "trajectory")
            pipe = speed_pipeline(kind, partitioner=TSTRPartitioner(2, 2))
            plan = pipe.explain(ctx, path)
            assert (plan["path"], plan["ignored"]) == ("fused", ["partitioner"])
            fused = pipe.run(ctx, path).cell_values()
            assert fused == staged_chain(speed_pipeline(kind), ctx, path)
            assert fused == staged_chain(speed_pipeline(kind, folding), ctx, path)
            state = speed_pipeline(kind).run_incremental(ctx, path).result
            partitioned = staged_chain(
                speed_pipeline(kind, partitioner=TSTRPartitioner(2, 2)), ctx, path
            )
        if state is None:  # nothing selected at all
            assert counts_and_speeds(fused)[1] == [None] * len(fused)
        else:
            assert state.cell_values() == fused
        # A T-STR partitioned staged run folds in another order: the counts
        # and the occupied cells are the same, the speeds to the last bits.
        (counts, speeds), (p_counts, p_speeds) = map(counts_and_speeds, (fused, partitioned))
        assert counts == p_counts
        assert [v is None for v in speeds] == [v is None for v in p_speeds]
        for a, b in zip(speeds, p_speeds):
            assert a is None or a == pytest.approx(b, rel=1e-9, abs=0.0)

    def test_interval_rows_take_the_decode_fallback(self, tmp_path, ctx, monkeypatch):
        """A block holding an interval-valued trajectory decodes its rows;
        the other blocks never build a ``Trajectory``."""
        instants = [lattice_trajectory((4 + i, 5, 4 + i), [(1, 1, 1)] * 4, i) for i in range(6)]
        interval = Trajectory(
            [Entry(Point(2.5 + k, 3.0), Duration(18.0 + 9 * k, 22.0 + 9 * k)) for k in range(3)],
            data="interval",
        )
        constructed = []
        init = Trajectory.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        for name, blocks in (("instant", [instants]), ("mixed", [instants, [interval]])):
            path = str(tmp_path / name)
            StDataset.write(path, blocks, "trajectory")
            for kind in sorted(SPEED_KINDS):
                pipe = speed_pipeline(kind)
                monkeypatch.setattr(Trajectory, "__init__", counting)
                fused = pipe.run(ctx, path).cell_values()
                monkeypatch.undo()
                assert len(constructed) == (name == "mixed")
                constructed.clear()
                assert fused == staged_chain(speed_pipeline(kind), ctx, path)
                folding = reference.folding(SPEED_KINDS[kind][2]())
                assert fused == staged_chain(speed_pipeline(kind, folding), ctx, path)

    def test_speed_extractor_over_events_raises_type_error(self, tmp_path, ctx):
        """The extractor's own ``TypeError`` fails the task, fused as staged
        — not a corrupt block, so ``on_corrupt="quarantine"`` skips nothing."""
        events = [lattice_event(x, y, 8) for x in range(17) for y in range(17)]
        path = write_blocks(tmp_path / "ds", [events[0::2], events[1::2]])
        for kind, (_, _, extractor) in SPEED_KINDS.items():
            assert speed_pipeline(kind).explain(ctx, path)["path"] == "fused"
            fused, staged = speed_pipeline(kind, on_corrupt="quarantine"), speed_pipeline(kind)
            for run, args in ((fused.run, (ctx, path)), (staged_chain, (staged, ctx, path))):
                with pytest.raises(TaskFailure) as raised:
                    run(*args)
                assert isinstance(raised.value.cause, TypeError)
                assert f"{extractor.__name__} expects trajectory" in str(raised.value.cause)

    @pytest.mark.parametrize("use_metadata", [True, False])
    @pytest.mark.parametrize("source", ["event", "trajectory"])
    def test_records_loaded_as_for_a_staged_read(self, tmp_path, ctx, source, use_metadata):
        """``use_metadata=False`` pushes nothing down: every row of a block
        read counts as loaded, fused or staged."""
        grid = [(x, y) for x in range(17) for y in range(0, 17, 2)]  # x-major
        if source == "event":
            rows = [lattice_event(x, y, t, i) for i, (x, y) in enumerate(grid) for t in (3, 6, 9)]
            make = lambda: pipeline("raster")
        else:
            steps = [(1, 0, 1), (0, 1, 1)]
            rows = [lattice_trajectory((x, y, 6), steps, i) for i, (x, y) in enumerate(grid)]
            make = lambda: speed_pipeline("raster")
        path = str(tmp_path / "ds")
        StDataset.write(path, [rows[b : b + 20] for b in range(0, len(rows), 20)], source)
        fused, staged = make(), make()
        assert fused.explain(ctx, path, use_metadata=use_metadata)["path"] == "fused"
        fused.run(ctx, path, use_metadata=use_metadata)
        staged_chain(staged, ctx, path, use_metadata=use_metadata)
        a, b = fused.selector.last_load_stats, staged.selector.last_load_stats
        assert (a.partitions_read, a.records_loaded) == (b.partitions_read, b.records_loaded)
        if not use_metadata:
            assert a.records_loaded == len(rows)
        else:
            assert a.partitions_read < a.partitions_total


def builtin_triples() -> list:
    """Every built-in ``CellAggExtractor`` in the ``(source kind, structure,
    extractor)`` triple it is made for."""
    from repro.apps.air_road import AirQualityExtractor

    raster, sm, ts = (KINDS[kind][1] for kind in ("raster", "sm", "ts"))
    return [
        ("event", Event2RasterConverter, raster, RasterFlowExtractor),
        ("event", Event2SmConverter, sm, SmFlowExtractor),
        ("event", Event2TsConverter, ts, TsFlowExtractor),
        ("trajectory", Traj2RasterConverter, raster, RasterSpeedExtractor),
        ("trajectory", Traj2SmConverter, sm, SmSpeedExtractor),
        ("trajectory", Traj2TsConverter, ts, TsSpeedExtractor),
        ("trajectory", Traj2RasterConverter, raster, RasterTransitExtractor),
        ("event", Event2RasterConverter, raster, AirQualityExtractor),
    ]


def test_fused_coverage(tmp_path, ctx):
    """Fused coverage: the built-in triples whose plan lowers, of all of them."""
    paths = {
        "event": write_blocks(tmp_path / "events", [[lattice_event(4, 4, 8)]]),
        "trajectory": str(tmp_path / "trajectories"),
    }
    StDataset.write(paths["trajectory"], [[lattice_trajectory((8, 8, 8), [], 0)]], "trajectory")
    fused, staged = [], {}
    for source, converter, structure, extractor in builtin_triples():
        pipe = Pipeline(Selector(QUERY_S, QUERY_T), converter(structure()), extractor())
        info = pipe.explain(ctx, paths[source])
        if info["path"] == "fused":
            fused.append(extractor.__name__)
        else:
            staged[extractor.__name__] = info["reason"]
    print(f"fused coverage {len(fused)}/{len(builtin_triples())}: staged {staged}")
    assert len(fused) >= 6
    assert staged == {
        "RasterTransitExtractor": "TransitSpec has no column-scan kernel",
        "AirQualityExtractor": "FieldMeanSpec has no column-scan kernel",
    }
