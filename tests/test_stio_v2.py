"""The stio block format: round-trip, pushdown, corruption — and v1 as a
convert-only input (conversion, the typed refusal everywhere else).

Also the regression tests for the block-decode hot-path fixes that landed
with the format: ``read_block`` metadata caching and corruption contract,
``LoadStats`` locking/set-dedupe, and orphan-block cleanup on rewrite.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.core import Selector
from repro.engine import EngineContext
from repro.core.converters import Event2RasterConverter
from repro.core.extractors import RasterFlowExtractor
from repro.core.pipeline import Pipeline
from repro.core.structures import RasterStructure
from repro.engine.errors import CorruptPartitionError, TaskFailure
from repro.engine.faults import FaultPlan, FaultRule
from repro.geometry import Envelope, LineString, Point, Polygon
from repro.instances import Event
from repro.stio import (
    DatasetMetadata,
    StDataset,
    V2Block,
    encode_v2_block,
    open_v2_block,
    save_dataset,
    scan_v2_block,
)
from repro.stio.dataset import LegacyBlockFormatError
from repro.temporal import Duration
from tests import reference
from tests.conftest import make_events, make_trajectories

QUERY_SPATIAL = Envelope(1.0, 1.0, 3.0, 3.0)
QUERY_TEMPORAL = Duration(0.0, 40_000.0)


def _identities(instances) -> list:
    return sorted(inst.identity() for inst in instances)


# -- block round-trip -------------------------------------------------------------


class TestV2BlockRoundTrip:
    def test_events(self, tmp_path):
        events = make_events(50)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        assert block.n == 50
        assert block.filterable
        assert block.decode_all("tuple") == events

    def test_trajectories(self, tmp_path):
        trajs = make_trajectories(8)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(trajs, "tuple"))
        assert open_v2_block(path).decode_all("tuple") == trajs

    def test_geometry_variants(self, tmp_path):
        records = [
            Event(geom, Duration(0, 5), data=i)
            for i, geom in enumerate(
                (
                    Point(1, 2),
                    Envelope(0, 0, 1, 1),
                    LineString([(0, 0), (1, 1)]),
                    Polygon([(0, 0), (1, 0), (0, 1)]),
                )
            )
        ]
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(records, "tuple"))
        assert open_v2_block(path).decode_all("tuple") == records

    def test_empty_block(self, tmp_path):
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block([], "tuple"))
        block = open_v2_block(path)
        assert block.n == 0
        assert block.decode_all("tuple") == []
        assert block.payload_nbytes() == 0

    def test_pickle_codec_is_not_filterable(self, tmp_path):
        # Arbitrary pickled payloads (checkpoint state) have no ST
        # extent; the block must decode whole rather than mask rows.
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block([{"a": 1}, {"b": 2}], "pickle"))
        block = open_v2_block(path)
        assert not block.filterable
        assert block.decode_all("pickle") == [{"a": 1}, {"b": 2}]

    def test_unfilterable_block_candidates_are_every_row(self, tmp_path):
        from repro.index.boxes import st_query_box

        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block([{"a": 1}, {"b": 2}, {"c": 3}], "pickle"))
        block = open_v2_block(path)
        # No columns to mask: every row is a candidate, none decided by its box.
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        assert block.candidate_rows(box).tolist() == [0, 1, 2]
        assert block.boxtable() is None

    def test_pushdown_mask_matches_scalar_filter(self, tmp_path):
        from repro.index.boxes import st_query_box

        events = make_events(200)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        rows = block.candidate_rows(box)
        decoded = block.decode_rows(rows, "tuple")
        expected = [e for e in events if e.st_box().intersects(box)]
        assert decoded == expected
        assert block.payload_nbytes(rows) <= block.payload_nbytes()

    def test_block_pickles_as_path(self, tmp_path):
        events = make_events(10)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        block = open_v2_block(path)
        clone = pickle.loads(pickle.dumps(block))
        assert isinstance(clone, V2Block)
        assert clone.path == block.path
        assert clone.decode_all("tuple") == events

    def test_truncated_and_garbage_blocks_rejected(self, tmp_path):
        path = tmp_path / "block.stb"
        path.write_bytes(b"junk")
        with pytest.raises(ValueError, match="block.stb"):
            open_v2_block(path)
        good = encode_v2_block(make_events(20), "tuple")
        path.write_bytes(good[: len(good) // 2])
        with pytest.raises(ValueError, match="block.stb"):
            open_v2_block(path)

    def test_scan_matches_compute_accounting(self, tmp_path):
        from repro.index.boxes import st_query_box

        events = make_events(100)
        path = tmp_path / "block.stb"
        path.write_bytes(encode_v2_block(events, "tuple"))
        box = st_query_box(QUERY_SPATIAL, QUERY_TEMPORAL)
        block = open_v2_block(path)
        rows = block.candidate_rows(box)
        records, nbytes = scan_v2_block(path, box)
        assert records == len(rows)
        assert nbytes == block.index_nbytes + block.payload_nbytes(rows)
        full_records, full_nbytes = scan_v2_block(path, None)
        assert full_records == 100
        assert full_nbytes == block.index_nbytes + block.payload_nbytes()


# -- dataset-level format behaviour ------------------------------------------------


class TestV2Dataset:
    def test_write_uses_stb_blocks_and_autodetects(self, ctx, tmp_path):
        events = make_events(120)
        ds = save_dataset(tmp_path / "ds", events, "event")
        meta = ds.metadata()
        assert meta.block_format == "v2"
        assert all(m.filename.endswith(".stb") for m in meta.partitions)
        # No format argument anywhere: read() autodetects from metadata.
        rdd, _ = StDataset(tmp_path / "ds").read(ctx)
        assert _identities(rdd.collect()) == _identities(events)

    @pytest.mark.parametrize("mk", [make_events, make_trajectories])
    def test_selection_parity_v1_vs_v2(self, ctx, tmp_path, mk):
        """A dataset upgraded from v1 answers as one written fresh — and as
        the brute-force scan."""
        data = mk(150)
        itype = "event" if mk is make_events else "trajectory"
        reference.write_v1_dataset(tmp_path / "v1", [data[i::4] for i in range(4)], itype)
        StDataset(tmp_path / "v1").convert(out=tmp_path / "upgraded")
        save_dataset(tmp_path / "v2", data, itype)
        expected = _identities(reference.select(data, QUERY_SPATIAL, QUERY_TEMPORAL))
        assert expected
        for name in ("upgraded", "v2"):
            selector = Selector(QUERY_SPATIAL, QUERY_TEMPORAL)
            got = selector.select(ctx, tmp_path / name).collect()
            assert _identities(got) == expected

    def test_pruned_read_decodes_only_matching_rows(self, ctx, tmp_path):
        events = make_events(300)
        save_dataset(tmp_path / "ds", events, "event")
        rdd, stats = StDataset(tmp_path / "ds").read(
            ctx, QUERY_SPATIAL, QUERY_TEMPORAL
        )
        got = rdd.collect()
        # Point events: the extent mask is exact, so the pushdown loads
        # precisely the matching rows — the Figure 5 proportionality.
        assert stats.records_loaded == len(got) < len(events)
        assert stats.bytes_read > 0

    def test_unpruned_read_loads_everything(self, ctx, tmp_path):
        events = make_events(100)
        save_dataset(tmp_path / "ds", events, "event")
        rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
        assert len(rdd.collect()) == len(events)
        assert stats.records_loaded == len(events)

    def test_append_continues_v2_format(self, ctx, tmp_path):
        events = make_events(80)
        ds = save_dataset(
            tmp_path / "ds", events[:40], "event", num_partitions=2
        )
        ds.append([events[40:60], events[60:]])
        meta = ds.metadata()
        assert meta.block_format == "v2"
        assert [m.filename for m in meta.partitions][-1] == "part-00003.stb"
        rdd, _ = ds.read(ctx)
        assert _identities(rdd.collect()) == _identities(events)

    def test_unknown_block_format_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="block_format"):
            StDataset.write(tmp_path / "ds", [[]], "event", block_format="v3")
        save_dataset(tmp_path / "ok", make_events(10), "event")
        meta_path = tmp_path / "ok" / "metadata.json"
        text = meta_path.read_text()
        assert '"block_format": "v2"' in text
        meta_path.write_text(text.replace('"block_format": "v2"', '"block_format": "v9"'))
        with pytest.raises(ValueError, match="block format"):
            StDataset(tmp_path / "ok").metadata()

    def test_merge_rejects_mixed_formats(self):
        v1 = DatasetMetadata(instance_type="event", partitions=[], block_format="v1")
        v2 = DatasetMetadata(instance_type="event", partitions=[])
        with pytest.raises(ValueError, match="block formats"):
            v1.merged_with(v2)

    def test_process_backend_parity(self, tmp_path):
        events = make_events(120)
        save_dataset(tmp_path / "ds", events, "event")
        seq_ctx = EngineContext(default_parallelism=4)
        proc_ctx = EngineContext(
            default_parallelism=2, backend="process", backend_options={"warmup": False}
        )
        try:
            seq_rdd, seq_stats = StDataset(tmp_path / "ds").read(
                seq_ctx, QUERY_SPATIAL, QUERY_TEMPORAL
            )
            proc_rdd, proc_stats = StDataset(tmp_path / "ds").read(
                proc_ctx, QUERY_SPATIAL, QUERY_TEMPORAL
            )
            assert _identities(seq_rdd.collect()) == _identities(proc_rdd.collect())
            # Driver-side scan accounting equals worker-side observation.
            assert proc_stats.records_loaded == seq_stats.records_loaded
            assert proc_stats.bytes_read == seq_stats.bytes_read
        finally:
            seq_ctx.stop()
            proc_ctx.stop()


def _non_instance_rows(n: int) -> list:
    """Checkpoint-style payloads: picklable, but no ST extent at all."""
    return [{"cell": i, "partial": [i, i + 1]} for i in range(n)]


def _v1_partitions(codec: str) -> list[list]:
    if codec == "pickle":
        return [_non_instance_rows(7), [], _non_instance_rows(3)]
    events = make_events(90)
    return [events[:40], [], events[40:55], events[55:]]


def _rows(partitions) -> list:
    """Comparable form of every record, in partition then row order."""
    return [
        [r if isinstance(r, dict) else r.identity() for r in records]
        for records in partitions
    ]


def _snapshot(directory) -> list:
    return sorted((p.name, p.read_bytes()) for p in directory.iterdir())


class TestConvert:
    """``convert`` is the one reader of v1 directories (tests/reference.py
    writes them; no writer in ``src/`` does)."""

    def test_in_place_conversion(self, ctx, tmp_path):
        for codec in ("tuple", "pickle"):
            for declare_format in (True, False):
                self.check_in_place(ctx, tmp_path / f"{codec}-{declare_format}", codec, declare_format)

    def check_in_place(self, ctx, directory, codec, declare_format):
        partitions = _v1_partitions(codec)
        reference.write_v1_dataset(
            directory, partitions, "event", codec,
            declare_format=declare_format, watermark=123.5,
        )
        before = DatasetMetadata.load(directory)
        assert before.block_format == "v1"
        converted = StDataset(directory).convert()
        meta = converted.metadata()
        assert meta.block_format == "v2"
        assert meta.generation == before.generation + 1
        assert (meta.instance_type, meta.codec, meta.watermark) == ("event", codec, 123.5)
        assert [(m.count, m.bounds) for m in meta.partitions] == [
            (m.count, m.bounds) for m in before.partitions
        ]
        # The .pkl orphans are gone; exactly the named .stb blocks remain.
        assert sorted(p.name for p in directory.glob("part-*")) == [
            m.filename for m in meta.partitions
        ]
        assert all(m.filename.endswith(".stb") for m in meta.partitions)
        # Records equal the fixture's input, partition by partition, in order.
        assert _rows(converted.read_block(m)[1] for m in meta.partitions) == _rows(partitions)
        rdd, _ = converted.read(ctx)
        assert _rows([rdd.collect()]) == _rows([sum(partitions, [])])
        # A second convert is a no-op: nothing rewritten, generation unmoved.
        after = _snapshot(directory)
        assert converted.convert().directory == directory
        assert _snapshot(directory) == after

    def test_conversion_to_copy_preserves_source(self, ctx, tmp_path):
        for codec in ("tuple", "pickle"):
            self.check_copy(ctx, tmp_path / codec, codec)

    def check_copy(self, ctx, tmp_path, codec):
        partitions = _v1_partitions(codec)
        reference.write_v1_dataset(tmp_path / "src", partitions, "event", codec, watermark=9.0)
        before = _snapshot(tmp_path / "src")
        converted = StDataset(tmp_path / "src").convert(out=tmp_path / "dst")
        assert _snapshot(tmp_path / "src") == before
        assert DatasetMetadata.load(tmp_path / "src").block_format == "v1"
        meta = converted.metadata()
        assert (meta.block_format, meta.generation, meta.watermark) == ("v2", 0, 9.0)
        assert _rows(converted.read_block(m)[1] for m in meta.partitions) == _rows(partitions)
        assert not list((tmp_path / "dst").glob("part-*.pkl"))
        if codec == "tuple":
            events = sum(partitions, [])
            selector = Selector(QUERY_SPATIAL, QUERY_TEMPORAL)
            assert _identities(
                selector.select(ctx, tmp_path / "dst").collect()
            ) == _identities(reference.select(events, QUERY_SPATIAL, QUERY_TEMPORAL))

    def test_copy_of_a_current_dataset(self, ctx, tmp_path):
        events = make_events(50)
        ds = save_dataset(tmp_path / "src", events, "event", num_partitions=3)
        copy = ds.convert(out=tmp_path / "dst")
        assert copy.directory == tmp_path / "dst"
        rdd, _ = copy.read(ctx)
        assert _identities(rdd.collect()) == _identities(events)

    def test_cli_info_and_convert_format(self, tmp_path, capsys):
        from repro.cli import main

        events = make_events(30)
        reference.write_v1_dataset(tmp_path / "ds", [events[:10], events[10:]], "event")
        assert main(["info", str(tmp_path / "ds")]) == 0
        assert "v1" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["convert-format", str(tmp_path / "ds"), "--to", "v2"])
        capsys.readouterr()
        assert main(["convert-format", str(tmp_path / "ds"), "--out", str(tmp_path / "up")]) == 0
        assert "v1 -> v2" in capsys.readouterr().out
        assert main(["convert-format", str(tmp_path / "ds")]) == 0
        assert main(["convert-format", str(tmp_path / "ds")]) == 0
        assert "nothing to do" in capsys.readouterr().out
        for d in ("ds", "up"):
            assert StDataset(tmp_path / d).metadata().total_records == 30
        with pytest.raises(SystemExit):
            main(["generate", "nyc", "--out", str(tmp_path / "g"), "--block-format", "v1"])


class TestV1IsConvertOnly:
    """Every entry point but ``convert``/``repro info`` refuses a v1 directory
    with one typed, actionable error; ``block_format=`` is gone everywhere."""

    @pytest.fixture(params=[True, False], ids=["declared", "legacy-key-absent"])
    def v1(self, request, tmp_path):
        events = make_events(40)
        reference.write_v1_dataset(
            tmp_path / "v1", [events[:20], events[20:]], "event",
            declare_format=request.param,
        )
        return tmp_path / "v1"

    def _pipeline(self):
        structure = RasterStructure.regular(QUERY_SPATIAL, QUERY_TEMPORAL, 2, 2, 2)
        return Pipeline(
            Selector(QUERY_SPATIAL, QUERY_TEMPORAL),
            Event2RasterConverter(structure),
            RasterFlowExtractor(),
        )

    def test_every_entry_point_raises_the_typed_error(self, ctx, v1):
        from repro.serve.server import DatasetState, QueryServer

        ds = StDataset(v1)
        part = DatasetMetadata.load(v1).partitions[0]
        entry_points = {
            "read": lambda: ds.read(ctx),
            "read_block": lambda: ds.read_block(part),
            "select": lambda: Selector(QUERY_SPATIAL, QUERY_TEMPORAL).select(ctx, v1),
            "run": lambda: self._pipeline().run(ctx, v1),
            "explain": lambda: self._pipeline().explain(ctx, v1),
            "run_incremental": lambda: self._pipeline().run_incremental(ctx, v1),
            "append": lambda: ds.append([make_events(3)]),
            "ingest": lambda: ds.ingest(make_events(3)),
            "compact": lambda: ds.compact(),
            "metadata": lambda: ds.metadata(),
            "serve state": lambda: DatasetState(v1),
            "serve start-up": lambda: QueryServer(v1),
        }
        before = _snapshot(v1)
        for name, call in entry_points.items():
            with pytest.raises(LegacyBlockFormatError, match="convert-format") as exc_info:
                call()
            assert str(v1) in str(exc_info.value), name
        # Refusing is all they did: the directory is byte-for-byte untouched.
        assert _snapshot(v1) == before

    def test_block_format_argument_is_gone(self, ctx, tmp_path):
        from repro.stio.dataset import _DiskPartitionRDD
        from repro.stream.ingest import ingest_batch

        events = make_events(12)
        ds = save_dataset(tmp_path / "ds", events, "event", num_partitions=1)
        part = ds.metadata().partitions[0]
        former_sites = [
            lambda **kw: StDataset.write(tmp_path / "w", [events], "event", **kw),
            lambda **kw: StDataset.write_rdd(tmp_path / "w", ctx.parallelize(events, 2), "event", **kw),
            lambda **kw: save_dataset(tmp_path / "w", events, "event", **kw),
            lambda **kw: StDataset(tmp_path / "i").ingest(events, instance_type="event", **kw),
            lambda **kw: ingest_batch(StDataset(tmp_path / "i"), events, instance_type="event", **kw),
            lambda **kw: ds.read_block(part, **kw),
            lambda **kw: _DiskPartitionRDD(ctx, tmp_path / "ds", [part], None, **kw),
        ]
        for site in former_sites:
            with pytest.raises(TypeError, match="block_format"):
                site(block_format="v2")
        with pytest.raises(TypeError):
            ds.convert("v2")  # the former target-format positional


# -- corruption -------------------------------------------------------------------


class TestV2Corruption:
    def test_corrupt_v2_block_raises_with_filename(self, ctx, tmp_path):
        save_dataset(tmp_path / "ds", make_events(60), "event")
        (tmp_path / "ds" / "part-00001.stb").write_bytes(b"scrambled")
        rdd, _ = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
        with pytest.raises(TaskFailure) as exc_info:
            rdd.collect()
        assert isinstance(exc_info.value.cause, CorruptPartitionError)
        assert "part-00001.stb" in str(exc_info.value.cause)

    def test_quarantine_skips_corrupt_v2_block(self, ctx, tmp_path):
        events = make_events(60)
        save_dataset(tmp_path / "ds", events, "event")
        lost = StDataset(tmp_path / "ds").metadata().partitions[1].count
        (tmp_path / "ds" / "part-00001.stb").write_bytes(b"scrambled")
        rdd, stats = StDataset(tmp_path / "ds").read(
            ctx, use_metadata=False, on_corrupt="quarantine"
        )
        assert rdd.count() == len(events) - lost
        assert stats.partitions_quarantined == 1
        assert stats.quarantined_files == ["part-00001.stb"]

    def test_injected_corrupt_read_is_transient_on_v2(self, tmp_path):
        events = make_events(60)
        save_dataset(tmp_path / "ds", events, "event")
        plan = FaultPlan([FaultRule("corrupt_read", path="part-00000")])
        ctx = EngineContext(default_parallelism=4, fault_plan=plan)
        try:
            rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            assert rdd.count() == len(events)
            assert ctx.metrics.faults_injected >= 1
            assert stats.partitions_quarantined == 0
        finally:
            ctx.stop()


# -- hot-path regression fixes ----------------------------------------------------


class TestReadBlockRegressions:
    def test_read_block_parses_metadata_once(self, tmp_path, monkeypatch):
        ds = save_dataset(tmp_path / "ds", make_events(100), "event")
        metas = ds.metadata().partitions
        handle = StDataset(tmp_path / "ds")
        calls = {"n": 0}
        original = DatasetMetadata.load.__func__

        def counting(cls, directory):
            calls["n"] += 1
            return original(cls, directory)

        monkeypatch.setattr(DatasetMetadata, "load", classmethod(counting))
        for meta in metas:
            handle.read_block(meta)
        # One parse, memoized on the file's stat signature — not one per block.
        assert calls["n"] == 1

    def test_read_block_honors_corruption_contract_v1(self, tmp_path):
        ds = save_dataset(tmp_path / "ds", make_events(40), "event")
        meta = ds.metadata().partitions[0]
        (tmp_path / "ds" / meta.filename).write_bytes(b"not a pickle")
        handle = StDataset(tmp_path / "ds")
        with pytest.raises(CorruptPartitionError) as exc_info:
            handle.read_block(meta)
        assert meta.filename in str(exc_info.value)
        assert handle.read_block(meta, on_corrupt="quarantine") == (None, [])


class TestOrphanCleanup:
    def test_shrinking_rewrite_removes_stale_blocks(self, tmp_path):
        events = make_events(80)
        parts = [events[i::8] for i in range(8)]
        StDataset.write(tmp_path / "ds", parts, "event")
        assert len(list((tmp_path / "ds").glob("part-*.stb"))) == 8
        StDataset.write(tmp_path / "ds", [events[:40], events[40:]], "event")
        remaining = sorted(p.name for p in (tmp_path / "ds").glob("part-*"))
        assert remaining == ["part-00008.stb", "part-00009.stb"]  # names are never reused
        meta = StDataset(tmp_path / "ds").metadata()
        assert meta.total_records == len(events)


class TestLoadStats:
    def test_concurrent_note_block_is_exact(self):
        from repro.stio.dataset import LoadStats

        stats = LoadStats()
        names = [f"part-{i:05d}.stb" for i in range(50)]

        def hammer():
            for name in names:
                stats.note_block(name, 10, 100)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every block counted exactly once despite 8 racing readers.
        assert stats.partitions_read == 50
        assert stats.records_loaded == 500
        assert stats.bytes_read == 5_000

    def test_stats_survive_pickling(self):
        from repro.stio.dataset import LoadStats

        stats = LoadStats()
        stats.note_block("part-00000.stb", 5, 50)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.partitions_read == 1
        assert clone.files == {"part-00000.stb"}
        # The recreated lock still guards further mutation.
        assert clone.note_block("part-00001.stb", 1, 10)

    def test_thread_backend_load_counts_each_block_once(self, tmp_path):
        events = make_events(200)
        save_dataset(tmp_path / "ds", events, "event")
        ctx = EngineContext(default_parallelism=8, backend="thread")
        try:
            rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            rdd.collect()
            rdd.collect()  # recompute: dedupe must hold across evaluations
            assert stats.records_loaded == len(events)
            assert stats.partitions_read == len(stats.files)
        finally:
            ctx.stop()


# -- zero-copy shipping ------------------------------------------------------------


class TestZeroCopyShipping:
    def test_captured_mmap_boxtable_ships_out_of_band(self, tmp_path):
        from repro.engine.exec.base import StageSpec
        from repro.engine.exec.process import _serialize_stage
        from repro.serve.server import DatasetState

        events = make_events(200)
        save_dataset(tmp_path / "ds", events, "event", num_partitions=1)
        # The serve daemon's resident block: its columns view the mapped file.
        [(block, records)], _, _ = DatasetState(tmp_path / "ds").resident(None, None)
        table = block.boxtable()
        assert table is not None

        def task(split: int, t=table) -> list:
            return [float(t.xmin[0])]

        payload, buffers = _serialize_stage(StageSpec(num_partitions=1, task=task))
        # The six extent columns ride protocol-5 out-of-band buffers
        # instead of being copied into the in-band pickle stream.
        assert buffers
        assert sum(len(b) for b in buffers) >= 6 * len(records) * 8


# -- serve residency ---------------------------------------------------------------


class TestServeOverV2:
    def _state(self, tmp_path, **kwargs):
        from repro.serve.server import DatasetState

        events = make_events(150)
        save_dataset(tmp_path / "ds", events, "event")
        return events, DatasetState(tmp_path / "ds", **kwargs)

    def test_resident_blocks_answer_without_decoding(self, tmp_path, monkeypatch):
        events, state = self._state(tmp_path)
        expected = reference.select(events, QUERY_SPATIAL, QUERY_TEMPORAL)
        records, scanned, _ = state.select(QUERY_SPATIAL, QUERY_TEMPORAL)
        assert _identities(records) == _identities(expected)
        assert state.resident_blocks() == state.blocks_loaded == scanned
        blocks, _, _ = state.resident(QUERY_SPATIAL, QUERY_TEMPORAL)
        for block, rows in blocks:
            # The unit of residency is the mapped block plus its rows.
            assert isinstance(block, V2Block) and len(rows) == block.n
            assert not block.xmin.flags.writeable  # a view of the read-only map
        decoded = []
        monkeypatch.setattr(V2Block, "decode_rows", lambda *a: decoded.append(a))
        again, _, _ = state.select(QUERY_SPATIAL, QUERY_TEMPORAL)
        assert again == records and not decoded
        assert state.blocks_loaded == scanned

    def test_quarantined_block_answers_empty_and_is_not_cached(self, tmp_path):
        _, state = self._state(tmp_path, on_corrupt="quarantine")
        target = state.meta.partitions[0]
        (state.dataset.directory / target.filename).write_bytes(b"bad")
        blocks, scanned, _ = state.resident(None, None)
        assert len(blocks) == scanned - 1
        assert state.blocks_quarantined == 1
        # Not resident: a repaired file is picked up on the next query.
        assert state.resident_blocks() == len(state.meta.partitions) - 1
