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

import hashlib
import math
import pickle
import shutil
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
from repro.columnar.boxtable import BoxTable
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
from repro.stio.formats import encode_record
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

    @given(st.lists(st.tuples(*[st.sampled_from([-0.0, 0.0, -1.0, 1.0])] * 3), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_bounds_keep_the_first_of_equal_values(self, points):
        """``BoxTable.bounds`` is numpy now; ``-0.0 == 0.0``, and the fold it
        replaces keeps the first of them."""
        records = [Event.of_point(x, y, t) for x, y, t in points]
        got = BoxTable.from_instances(records).bounds()
        want = STBox.merge_all([r.st_box() for r in records])
        for a, b in ((got.mins, want.mins), (got.maxs, want.maxs)):
            assert [(v, math.copysign(1.0, v)) for v in a] == [(v, math.copysign(1.0, v)) for v in b]

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
        encoded = []
        monkeypatch.setattr(
            blockv2, "encode_record", lambda r: encoded.append(r) or encode_record(r)
        )
        dataset.ingest(_feed(80, seed=1), TSTRPartitioner(2, 2), rebalance_threshold=2)
        assert calls.count == {
            "st_bounds": 80, "st_box": 0, "spatial_extent": 0, "temporal_extent": 0
        }
        assert len(encoded) == 80  # and encodes each once

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
        compacted = []
        for seed in range(1, 7):
            report = dataset.ingest(_feed(30, seed), TSTRPartitioner(1, 2), rebalance_threshold=6)
            assert report.generation == dataset.metadata().generation
            compacted.append(report.compacted)
        assert compacted == [False, False, True, False, False, True]  # tiered, then full
        # one parse when the handle first looks, none for its own commits
        # (``metadata()`` above is the always-re-read call: 6 of the 7)
        assert len(loads) == 1 + 6


class TestRewriteUnderReaders:
    def test_a_block_mapped_before_a_compaction_still_reads_its_rows(self, tmp_path):
        """``StDataset.write`` over a live directory once truncated
        ``part-00000.stb`` in place: the next column touch of a reader that
        had it mapped died with SIGBUS (exit 135).  A rewrite now writes new
        names and unlinks the old file, whose inode the reader keeps."""
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
            # The compaction wrote new names and unlinked the one it superseded.
            assert not (dataset.directory / "part-00000.stb").exists()
            assert dataset.metadata().partitions[0].filename == "part-00001.stb"
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


def digests(directory) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in snapshot(directory).items()}


class TestTieredCompaction:
    """The ingest trigger merges only the blocks appended since the last
    compaction: every compacted block keeps its name and its bytes."""

    @given(
        sizes=st.lists(st.integers(1, 30), min_size=2, max_size=14),
        threshold=st.integers(4, 12),
        grid=st.sampled_from([(1, 1), (1, 2), (2, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_block_is_the_oracles_and_compacted_blocks_stay_put(
        self, sizes, threshold, grid
    ):
        with tempfile.TemporaryDirectory() as tmp:
            real, oracle = StDataset(Path(tmp) / "real"), Path(tmp) / "oracle"
            for seed, n in enumerate(sizes):
                cold = {}
                if seed:
                    meta = real.metadata()
                    cold = {p.filename: digests(real.directory)[p.filename]
                            for p in meta.partitions[: meta.compacted]}
                report = real.ingest(
                    _feed(n, seed), TSTRPartitioner(*grid), threshold, instance_type="event"
                )
                reference.ingest(oracle, _feed(n, seed), TSTRPartitioner(*grid), "event", threshold)
                now = digests(real.directory)
                assert now == digests(oracle)
                kept = {name: now[name] for name in cold if name in now}
                # tiered: every compacted block as it was; full: none of them
                assert kept in ({}, cold)
                assert report.compacted or kept == cold

    def test_a_tiered_compaction_moves_only_the_new_slivers(self, tmp_path):
        dataset = StDataset(tmp_path / "d")

        def ingest(seed):
            return dataset.ingest(_feed(30, seed), TSTRPartitioner(1, 2), 8, instance_type="event")

        # The first compaction merges every block: ingests wrote them all.
        assert [ingest(seed).compacted for seed in range(5)] == [False] * 4 + [True]
        meta = dataset.metadata()
        cold = {p.filename: digests(dataset.directory)[p.filename] for p in meta.partitions}
        assert meta.compacted == 2 and list(cold) == ["part-00010.stb", "part-00011.stb"]
        reports = [ingest(seed) for seed in range(5, 9)]
        assert [r.compacted for r in reports] == [False] * 3 + [True]
        assert reports[-1].blocks_compacted == 8
        meta = dataset.metadata()
        assert [p.filename for p in meta.partitions] == [*cold, "part-00020.stb", "part-00021.stb"]
        assert meta.compacted == 4
        assert meta.superseded == tuple(f"part-{i:05d}.stb" for i in range(12, 20))
        assert {name: digests(dataset.directory)[name] for name in cold} == cold
        assert sorted(p.name for p in dataset.directory.iterdir()) == sorted(
            [*(p.filename for p in meta.partitions), "metadata.json"]
        )


#: Runs one commit in a fresh copy of a prepared directory per kill point:
#: the k-th file write, replace or unlink of the commit kills the process
#: (``os._exit``) — a write half done, a replace or unlink not done.
_CRASH_SCRIPT = textwrap.dedent(
    """
    import os, pickle, shutil, sys
    from pathlib import Path
    from repro import StDataset, TSTRPartitioner

    prepared, work, op, batch_file = sys.argv[1:5]
    batch = pickle.loads(Path(batch_file).read_bytes())
    count, kill = [0], [0]

    def event():
        count[0] += 1
        return count[0] == kill[0]

    def torn(write):
        def patched(path, data, *args, **kwargs):
            if event():
                write(path, data[: len(data) // 2])
                os._exit(17)
            return write(path, data, *args, **kwargs)
        return patched

    def killed(call):
        def patched(*args, **kwargs):
            if event():
                os._exit(17)
            return call(*args, **kwargs)
        return patched

    for k in range(1, 200):
        target = Path(work) / str(k)
        shutil.copytree(prepared, target)
        pid = os.fork()
        if pid == 0:
            count[0], kill[0] = 0, k
            Path.write_bytes = torn(Path.write_bytes)
            Path.write_text = torn(Path.write_text)
            Path.unlink = killed(Path.unlink)
            os.replace = killed(os.replace)
            dataset = StDataset(target)
            if op == "full":
                dataset.compact(TSTRPartitioner(1, 3))
            else:
                dataset.ingest(batch, TSTRPartitioner(1, 2), 8 if op == "tiered" else None)
            os._exit(0)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status == 0:
            print(k)
            break
        assert status == 17, status
    """
)


class TestCrashSafety:
    """A commit killed at any file write, replace or unlink leaves the old
    manifest or the new one — never new blocks under old names — and the
    next commit sweeps what the crash left behind."""

    @staticmethod
    def states(tmp, op):
        """``(prepared directory, the batch, the oracle's states the commit may leave)``."""
        oracle = Path(tmp) / "oracle-0"  # 2 compacted blocks, 6 appended since
        for seed in range(8):
            reference.ingest(oracle, _feed(30, seed), TSTRPartitioner(1, 2), "event", 8)
        batch = _feed(30, 8)
        if op == "full":  # from a dataset a tiered compaction left
            reference.ingest(oracle, batch, TSTRPartitioner(1, 2), "event", 8)
            batch = []
        states = [oracle]
        for i, step in enumerate(
            {
                "ingest": [lambda d: reference.ingest(d, batch, TSTRPartitioner(1, 2), "event")],
                "tiered": [
                    lambda d: reference.ingest(d, batch, TSTRPartitioner(1, 2), "event"),
                    lambda d: reference.rebalance(d, TSTRPartitioner(1, 2), 8),
                ],
                "full": [lambda d: reference.compact(d, TSTRPartitioner(1, 3))],
            }[op],
            start=1,
        ):
            states.append(Path(tmp) / f"oracle-{i}")
            shutil.copytree(states[-2], states[-1])
            step(states[-1])
        prepared = Path(tmp) / "prepared"
        shutil.copytree(oracle, prepared)
        return prepared, batch, states

    @pytest.mark.parametrize("op", ["ingest", "tiered", "full"])
    def test_every_kill_point_leaves_one_manifest_and_the_next_commit_sweeps(self, tmp_path, op):
        prepared, batch, states = self.states(tmp_path, op)
        (tmp_path / "batch.pkl").write_bytes(pickle.dumps(batch))
        done = subprocess.run(
            [sys.executable, "-c", _CRASH_SCRIPT, str(prepared), str(tmp_path / "work"), op,
             str(tmp_path / "batch.pkl")],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        kills = int(done.stdout)
        assert kills > {"ingest": 4, "tiered": 8, "full": 4}[op]
        oracles = [snapshot(state) for state in states]
        seen = set()
        for k in range(1, kills + 1):
            crashed = tmp_path / "work" / str(k)
            meta = (crashed / "metadata.json").read_bytes()
            (i,) = [i for i, state in enumerate(oracles) if state["metadata.json"] == meta]
            seen.add(i)
            named = [p.filename for p in DatasetMetadata.load(crashed).partitions]
            assert {name: (crashed / name).read_bytes() for name in named} == {
                name: oracles[i][name] for name in named
            }
            ctx = EngineContext()
            assert sorted(map(repr, StDataset(crashed).read(ctx)[0].collect())) == sorted(
                map(repr, StDataset(states[i]).read(ctx)[0].collect())
            )
            StDataset(crashed).ingest(_feed(5, 9))
            named = [p.filename for p in DatasetMetadata.load(crashed).partitions]
            assert sorted(p.name for p in crashed.iterdir()) == sorted([*named, "metadata.json"])
        assert seen == set(range(len(states)))
