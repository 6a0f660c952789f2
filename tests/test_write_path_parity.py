"""The columnar write path against the per-record oracle, byte for byte.

``ingest`` / ``save_dataset`` / ``compact`` / ``write`` run off one extent
table per batch (and a compaction permutes payload bytes it never decodes);
``tests/reference.py`` does the same jobs one record, one ``assign`` and one
``pickle`` round trip at a time.  Every file of the two dataset directories
— blocks and ``metadata.json`` — must be identical, for every partitioner
``repro.partitioners`` exports.  Coordinates sit on a binary-exact,
non-negative lattice with few distinct values, so centres land on cuts and
cuts repeat (empty middle partitions, the ``boundaries`` fallback).
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partitioners as partitioners
from repro import Duration, EngineContext, Envelope, Event, StDataset, Trajectory, save_dataset
from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners import (
    HashPartitioner,
    KDBPartitioner,
    KeyedSTRPartitioner,
    QuadTreePartitioner,
    STPartitioner,
    STRPartitioner,
    TBalancePartitioner,
    TSTRPartitioner,
)
from repro.stio import DatasetMetadata, blockv2, encode_v2_block, open_v2_block
from . import reference


def _start(inst) -> float:
    return inst.temporal_extent.start


PARTITIONERS = {
    "hash": lambda: HashPartitioner(3),
    "str": lambda: STRPartitioner(4),
    "tstr": lambda: TSTRPartitioner(2, 3),
    "quadtree": lambda: QuadTreePartitioner(4),
    "tbalance": lambda: TBalancePartitioner(3),
    "kdb": lambda: KDBPartitioner(4),
    "keyed": lambda: KeyedSTRPartitioner(_start, 2, 2),
}

coord = st.integers(0, 12).map(lambda v: v / 4.0)
instant = st.integers(0, 40).map(lambda v: v * 25.0)


@st.composite
def events(draw, i):
    t = draw(instant)
    if draw(st.booleans()):
        return Event.of_point(draw(coord), draw(coord), t, value=i * 0.5, data=i)
    x, y = draw(coord), draw(coord)
    box = Envelope(x, y, x + draw(coord), y + draw(coord))
    return Event(box, Duration(t, t + draw(instant)), value=None, data=("r", i))


@st.composite
def trajectories(draw, i):
    stamps = sorted(draw(st.lists(instant, min_size=1, max_size=4)))
    return Trajectory.of_points([(draw(coord), draw(coord), t) for t in stamps], data=i)


@st.composite
def feeds(draw, min_size=1):
    """``(instance type, records)`` — one kind per dataset, as the codec expects."""
    kind, make = draw(st.sampled_from([("event", events), ("trajectory", trajectories)]))
    n = draw(st.integers(min_size, 60))
    return kind, [draw(make(i)) for i in range(n)]


@st.composite
def batched_feeds(draw):
    kind, records = draw(feeds(min_size=4))
    cuts = sorted(draw(st.sets(st.integers(1, len(records) - 1), max_size=5)))
    return kind, [records[a:b] for a, b in zip([0, *cuts], [*cuts, len(records)])]


def snapshot(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def test_every_exported_partitioner_is_covered():
    exported = {
        getattr(partitioners, name)
        for name in partitioners.__all__
        if isinstance(getattr(partitioners, name), type)
    }
    exported = {cls for cls in exported if issubclass(cls, STPartitioner)} - {STPartitioner}
    assert {type(make()) for make in PARTITIONERS.values()} == exported


class TestByteParity:
    @given(batched_feeds(), st.sampled_from([None, *PARTITIONERS]), st.sampled_from([None, 2, 5]))
    @settings(max_examples=150, deadline=None)
    def test_ingest_and_compaction(self, feed, name, threshold):
        kind, batches = feed
        make = PARTITIONERS.get(name, lambda: None)
        with tempfile.TemporaryDirectory() as tmp:
            dataset = StDataset(Path(tmp) / "real")
            mark = None
            for batch in batches:
                report = dataset.ingest(
                    batch, make(), rebalance_threshold=threshold, instance_type=kind
                )
                reference.ingest(Path(tmp) / "oracle", batch, make(), kind, threshold)
                assert snapshot(dataset.directory) == snapshot(Path(tmp) / "oracle")
                ends = [r.temporal_extent.end for r in batch]
                assert report.late_records == sum(mark is not None and e <= mark for e in ends)
                mark = max([*ends, *([mark] if mark is not None else [])])
                assert report.watermark == mark

    @given(batched_feeds(), st.sampled_from([None, *PARTITIONERS]))
    @settings(max_examples=80, deadline=None)
    def test_compact_over_appended_blocks(self, feed, name):
        kind, batches = feed
        with tempfile.TemporaryDirectory() as tmp:
            for root in ("real", "oracle"):
                StDataset.write(Path(tmp) / root, [batches[0], []], kind)
                for batch in batches[1:]:
                    StDataset(Path(tmp) / root).append([batch])
            make = PARTITIONERS.get(name, lambda: None)
            assert StDataset(Path(tmp) / "real").compact(make()) == len(batches) + 1
            reference.compact(Path(tmp) / "oracle", make())
            assert snapshot(Path(tmp) / "real") == snapshot(Path(tmp) / "oracle")

    @given(feeds(), st.sampled_from(list(PARTITIONERS)), st.sampled_from([1, 3, 8]))
    @settings(max_examples=120, deadline=None)
    def test_save_dataset(self, feed, name, num_partitions):
        kind, records = feed
        ctx = EngineContext(default_parallelism=2)
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(
                Path(tmp) / "real", records, kind, PARTITIONERS[name](), num_partitions, ctx=ctx
            )
            reference.save_dataset(
                Path(tmp) / "oracle", records, kind, PARTITIONERS[name](), num_partitions
            )
            assert snapshot(Path(tmp) / "real") == snapshot(Path(tmp) / "oracle")

    @given(feeds(min_size=0), st.sampled_from(["tuple", "pickle"]))
    @settings(max_examples=80, deadline=None)
    def test_one_block(self, feed, codec):
        _, records = feed
        assert encode_v2_block(records, codec) == reference.encode_block(records, codec)

    def test_rows_without_an_extent_zero_the_columns_and_clear_the_flag(self, tmp_path):
        rows = [Event.of_point(1.0, 2.0, 3.0, data="e"), {"partial": [1, 2]}, ("cell", 7)]
        cells = [cube(0.0, 9.0), cube(1.0, 5.0), cube(2.0, 4.0)]
        for root, write in (("real", StDataset.write), ("oracle", reference.write_dataset)):
            write(tmp_path / root, [rows, [], rows[:1]], "state", cells, codec="pickle")
        assert snapshot(tmp_path / "real") == snapshot(tmp_path / "oracle")
        block = open_v2_block(tmp_path / "real" / "part-00000.stb")
        assert not block.filterable and not block.xmax.any() and block.decode_all("pickle") == rows
        first, empty, last = DatasetMetadata.load(tmp_path / "real").partitions
        assert first.bounds.maxs == (0.0, 0.0, 0.0)
        assert empty.bounds == cells[1]
        assert last.bounds.mins == last.bounds.maxs == (1.0, 2.0, 3.0)


def cube(lo: float, hi: float) -> STBox:
    return STBox((lo, lo, lo), (hi, hi, hi))


class _Calls:
    """Counts calls of the named ``Instance`` extent accessors."""

    def __init__(self, monkeypatch):
        self.count = dict.fromkeys(("st_bounds", "st_box", "spatial_extent", "temporal_extent"), 0)
        for name in self.count:
            original = getattr(Instance, name)
            getter = original.fget if isinstance(original, property) else original

            def counted(inst, _name=name, _getter=getter):
                self.count[_name] += 1
                return _getter(inst)

            monkeypatch.setattr(
                Instance, name, property(counted) if isinstance(original, property) else counted
            )


def _feed(n, seed=0):
    return [
        Event.of_point((i * 7 + seed) % 13 / 4.0, (i * 5) % 11 / 4.0, float(i + 100 * seed), data=i)
        for i in range(n)
    ]


class TestCountedWork:
    def test_ingest_asks_each_record_for_its_extent_once(self, tmp_path, monkeypatch):
        dataset = StDataset(tmp_path / "d")
        dataset.ingest(_feed(50), TSTRPartitioner(1, 2), instance_type="event")
        calls = _Calls(monkeypatch)
        dataset.ingest(_feed(80, seed=1), TSTRPartitioner(2, 2), rebalance_threshold=2)
        assert calls.count == {
            "st_bounds": 80, "st_box": 0, "spatial_extent": 0, "temporal_extent": 0
        }

    def test_save_dataset_asks_each_record_for_its_extent_once(self, tmp_path, monkeypatch):
        records = _feed(300)
        calls = _Calls(monkeypatch)
        save_dataset(tmp_path / "d", records, "event", TSTRPartitioner(2, 2))
        assert calls.count == {
            "st_bounds": 300, "st_box": 0, "spatial_extent": 0, "temporal_extent": 0
        }

    def test_compaction_decodes_no_row(self, tmp_path, monkeypatch):
        dataset = StDataset(tmp_path / "d")
        for seed in range(4):
            dataset.ingest(_feed(40, seed), TSTRPartitioner(1, 2), instance_type="event")
        before = sorted(map(repr, dataset.read(EngineContext())[0].collect()))
        decoded = []
        monkeypatch.setattr(
            blockv2, "decode_record", lambda row: decoded.append(row) or blockv2.decode_record(row)
        )
        monkeypatch.setattr(
            blockv2,
            "pickle",
            SimpleNamespace(
                loads=lambda data: decoded.append(data) or pickle.loads(data),
                dumps=pickle.dumps,
                HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            ),
        )
        assert dataset.compact() == 8
        assert decoded == []
        monkeypatch.undo()
        assert sorted(map(repr, dataset.read(EngineContext())[0].collect())) == before

    def test_a_long_lived_handle_parses_its_metadata_at_most_once(self, tmp_path, monkeypatch):
        StDataset(tmp_path / "d").ingest(_feed(30), instance_type="event")
        loads = []
        load = DatasetMetadata.load.__func__
        monkeypatch.setattr(
            DatasetMetadata,
            "load",
            classmethod(lambda cls, directory: loads.append(directory) or load(cls, directory)),
        )
        dataset = StDataset(tmp_path / "d")
        for seed in range(1, 7):
            report = dataset.ingest(_feed(30, seed), TSTRPartitioner(1, 2), rebalance_threshold=6)
            assert report.generation == dataset.metadata().generation
        assert report.compacted
        # one parse when the handle first looks, none for its own commits
        # (``metadata()`` above is the always-re-read call: 6 of the 7)
        assert len(loads) == 1 + 6


class TestRewriteUnderReaders:
    def test_a_block_mapped_before_a_compaction_still_reads_its_rows(self, tmp_path):
        """``StDataset.write`` over a live directory used to truncate
        ``part-00000.stb`` in place: the next column touch of a reader that
        had it mapped died with SIGBUS (exit 135)."""
        script = textwrap.dedent(
            """
            import sys
            from repro import Event, StDataset, TSTRPartitioner
            from repro.stio import open_v2_block

            events = [Event.of_point(i % 50 / 10.0, i % 7 / 2.0, float(i), data=i)
                      for i in range(2985)]
            dataset = StDataset(sys.argv[1])
            dataset.ingest(events, instance_type="event")
            held = open_v2_block(dataset.directory / "part-00000.stb")
            assert dataset.compact(TSTRPartitioner(4, 4)) == 1
            assert held.tmax[-1] == 2984.0
            assert held.decode_all("tuple") == events
            assert open_v2_block(dataset.directory / "part-00000.stb").n < 2985
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "d")],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert not list((tmp_path / "d").glob("*.tmp"))

    def test_compacting_rows_without_an_extent_is_a_typed_error(self, tmp_path):
        good = [Event.of_point(1.0, 1.0, float(i), data=i) for i in range(5)]
        StDataset.write(tmp_path / "d", [good, [{"partial": 1}, good[0]]], "state", codec="pickle")
        before = snapshot(tmp_path / "d")
        with pytest.raises(ValueError, match=r"part-00001\.stb.*without an ST extent"):
            StDataset(tmp_path / "d").compact()
        assert snapshot(tmp_path / "d") == before
