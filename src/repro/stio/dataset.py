"""Partitioned on-disk datasets with metadata-pruned loading."""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.engine.accumulators import Sink, reported
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD, sampled_positions
from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox, st_query_box
from repro.instances.base import Instance
from repro.obs.tracer import current_tracer
from repro.partitioners.base import SAMPLE_SEED
from repro.stio.blockv2 import (
    EncodedRows,
    V2Block,
    encode_payloads,
    encode_rows,
    layout_v2_block,
    open_v2_block,
)
from repro.stio.formats import decode_record
from repro.stio.metadata import METADATA_FILENAME, DatasetMetadata, PartitionMeta
from repro.temporal.duration import Duration

if TYPE_CHECKING:  # pragma: no cover
    from repro.partitioners.base import STPartitioner
    from repro.stream.ingest import IngestReport


@dataclass
class LoadStats(Sink):
    """I/O accounting for one load — the currency of Figure 5.

    ``partitions_total`` vs ``partitions_read`` is the pruning ratio;
    ``records_loaded`` is what Figure 5c/d plot as "memory loaded" — under
    query pushdown that is the rows the extent mask admitted, which is the
    whole point of the block format.  ``rows_scanned`` counts the rows of
    the blocks read, ``rows_decoded`` the payloads actually unpickled: all
    admitted rows for a staged read, 0 for a block a column scan
    (``rdd.scanned(...)``) decided from its extents.
    ``partitions_selected`` is known at :meth:`StDataset.read` time (how
    many partitions survived metadata pruning), while ``partitions_read``
    counts the *distinct* block files read so far — they converge
    once every partition has been computed, and lineage recomputation
    (retries, a second shuffle pass, post-demotion re-evaluation) never
    double-counts a block.  ``partitions_quarantined``
    counts corrupt block files skipped under ``on_corrupt="quarantine"``
    (the graceful-degradation alternative to aborting the load).

    A :class:`~repro.engine.accumulators.Sink`: the block reads report
    through the ``note_*`` methods, which a task posts to its attempt's
    outbox and the driver applies once — exact on every backend.  They
    serialize on the sink's lock: the thread backend's stages deliver
    concurrently, and unlocked ``+=`` on shared counters drops updates.
    """

    partitions_total: int = 0
    partitions_selected: int = 0
    partitions_read: int = 0
    records_loaded: int = 0
    rows_decoded: int = 0
    rows_scanned: int = 0
    bytes_read: int = 0
    files: set[str] = field(default_factory=set)
    partitions_quarantined: int = 0
    quarantined_files: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        Sink.__init__(self)

    @reported
    def note_block(
        self, filename: str, records: int, nbytes: int, decoded=None, scanned=None
    ) -> bool:
        """Account one read block exactly once; True when newly counted.

        ``records`` were loaded, ``decoded`` of them unpickled (default:
        all) out of ``scanned`` rows (default: ``records``).  Dedupe on
        filename (an O(1) set probe, not a list scan): lineage
        recomputation — a second shuffle pass, a retry, a post-demotion
        re-evaluation — re-reads the same block, but "memory loaded"
        counts each block once, identically on every backend.
        """
        with self._lock:
            if filename in self.files:
                return False
            self.files.add(filename)
            self.partitions_read += 1
            self.records_loaded += records
            self.rows_decoded += records if decoded is None else decoded
            self.rows_scanned += records if scanned is None else scanned
            self.bytes_read += nbytes
            return True

    @reported
    def note_quarantined(self, filename: str) -> None:
        """Count one undecodable block skipped under ``on_corrupt="quarantine"``."""
        with self._lock:
            if filename not in self.quarantined_files:
                self.partitions_quarantined += 1
                self.quarantined_files.append(filename)


class LegacyBlockFormatError(ValueError):
    """The directory holds v1 (``part-*.pkl``) blocks, which are convert-only."""

    def __init__(self, directory: Path):
        super().__init__(
            f"{directory} holds v1 blocks, a format this version only converts: "
            f"run `repro convert-format {directory}` (StDataset.convert) first"
        )


def _read_v1_block(path: Path, codec: str) -> list:
    """Decode one v1 block (a single pickle of the partition's rows) for ``convert``."""
    rows = pickle.loads(path.read_bytes())
    if codec == "pickle":
        return list(rows)
    return [decode_record(r) for r in rows]


def _load_block(
    path: Path, codec: str, query_box: STBox | None = None
) -> tuple[V2Block, list, int]:
    """``(block, records, bytes touched)`` of a read under ``query_box``: the
    lazy and the eager reader's one open-and-decode step."""
    block = open_v2_block(path)
    rows, nbytes = block.pushdown(query_box)
    records = block.decode_all(codec) if rows is None else block.decode_rows(rows, codec)
    return block, records, nbytes


#: Recorded for a block with no bounds: no rows and no partitioner cell, or no ST extents.
_NO_BOUNDS = STBox((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _routed(table, partitioner: "STPartitioner", sample=None) -> np.ndarray:
    """Fit ``partitioner`` on ``table`` (or its ``sample`` rows): every row's
    partition, from one ``assign_batch``."""
    partitioner.fit(table if sample is None else table.take(sample))
    pids = np.asarray(partitioner.assign_batch(table), dtype=np.int64)
    return pids % partitioner.num_partitions  # as the shuffle wraps


def split_records(records, table, codec: str, partitioner: "STPartitioner", sample=None):
    """``(blocks, boundaries())`` of ``records`` (extents ``table``), one block
    per partition (empty ones included) holding its rows in input order —
    what a shuffle of the instances produces.  The records are encoded in
    input order and each payload moves by reference into its block."""
    pids = _routed(table, partitioner, sample)
    payloads = encode_payloads(records, codec)
    parts = [np.flatnonzero(pids == k) for k in range(partitioner.num_partitions)]
    blocks = [EncodedRows.joined(table.extents(r), [payloads[i] for i in r.tolist()]) for r in parts]
    return blocks, partitioner.boundaries()


def split_rows(rows: EncodedRows, partitioner: "STPartitioner"):
    """:func:`split_records` of rows known only encoded (a compaction's):
    their bytes move, one byte mask per block (:meth:`EncodedRows.split`)."""
    pids = _routed(rows.table, partitioner)
    return rows.split(pids, partitioner.num_partitions), partitioner.boundaries()


def _rdd_blocks(
    rdd: RDD, partitioner: "STPartitioner | None", sample_fraction: float, codec: str
):
    """``(blocks, boundaries)`` of an RDD's records, optionally ST-partitioned.

    ``stPartitionWithInfo`` done where the write happens: records are
    collected and encoded once, and the fit sees the rows
    ``STPartitioner.partition`` would have sampled (the same Bernoulli draws
    per input partition, the same first-1000 fallback).
    """
    parts = rdd._collect_partitions()
    if partitioner is None:
        return (encode_rows(p, codec) for p in parts), None
    records = [r for p in parts for r in p]
    table = BoxTable.from_instances(records)
    picks = [
        np.asarray(sampled_positions(split, len(p), sample_fraction, SAMPLE_SEED), dtype=np.int64)
        for split, p in enumerate(parts)
    ]
    starts = np.cumsum([0] + [len(p) for p in parts])
    sample = np.concatenate([start + pick for start, pick in zip(starts, picks)])
    if not len(sample):
        sample = np.arange(min(len(records), 1000))
    blocks, boundaries = split_records(records, table, codec, partitioner, sample)
    if getattr(rdd.ctx, "strict", False):
        from repro.engine.sanitizer import validate_partitioner

        validate_partitioner(partitioner, table.take(sample).rows)
    return blocks, boundaries


class _DiskPartitionRDD(RDD):
    """Source RDD whose partitions deserialize lazily from block files.

    ``on_corrupt`` decides what an undecodable block does: ``"raise"``
    (the default) surfaces :class:`~repro.engine.errors.CorruptPartitionError`
    through the retry loop, ``"quarantine"`` skips the block — an empty
    partition — and counts it in ``LoadStats.partitions_quarantined``.
    An active fault plan's ``corrupt_read`` rules mangle the bytes *in
    memory* after a clean read, so injected corruption is transient: the
    retry's re-read recovers, and quarantine stays reserved for genuinely
    bad on-disk blocks.

    With a ``query_box`` the compute is the pruned-load fast path: mmap the
    extent columns, run the vectorized mask straight off disk, and unpickle
    payload bytes only for surviving rows.  Shipping this RDD to a process
    worker moves the directory path and partition metadata — never block
    bytes; each worker mmaps its own blocks locally.

    :meth:`scanned` switches the read to the column-scan compute mode: the
    partition is ``[scan.partial(*scan(block, codec, pushdown))]`` — what
    the callable reads off the opened block under the same corruption
    handling (told whether the read pushes the query box down; else every
    row counts as loaded), then the partial it aggregates from that — not
    decoded records (a quarantined block: ``[scan.zero()]``).  Either way
    the read is accounted on the ``LoadStats`` sink, from the task.
    """

    def __init__(
        self,
        ctx: EngineContext,
        directory: Path,
        metas: list[PartitionMeta],
        stats: LoadStats,
        codec: str = "tuple",
        on_corrupt: str = "raise",
        query_box: STBox | None = None,
        scan=None,
    ):
        super().__init__(ctx, max(1, len(metas)))
        self._directory = directory
        self._metas = metas
        self._stats = stats
        self._codec = codec
        self._on_corrupt = on_corrupt
        self._query_box = query_box
        self._scan = scan

    @property
    def filenames(self) -> list[str]:
        """The block file each partition reads, in partition order."""
        return [meta.filename for meta in self._metas]

    def scanned(self, scan) -> "_DiskPartitionRDD":
        """The same pruned read as a column scan (how ``Pipeline`` runs a
        fused plan): each partition is one partial the scan computes."""
        return _DiskPartitionRDD(
            self.ctx, self._directory, self._metas, self._stats,
            self._codec, self._on_corrupt, self._query_box, scan,
        )

    def _inject_corrupt_read(self, path: Path) -> None:
        """Honor an active fault plan's ``corrupt_read`` rules.

        A read never touches the whole file, so the plan decides on a
        small probe — the decision (and its per-file read counter) depends
        only on the path.  Raising instead of decoding garbage means the
        retry loop's re-read sees the (clean) on-disk bytes and recovers.
        """
        plan = getattr(self.ctx, "fault_plan", None)
        if plan is None:
            return
        probe = b"stb2"
        if plan.corrupt_read(path, probe) is not probe:
            from repro.engine.errors import InjectedFault

            raise InjectedFault(
                f"injected corrupt read of {path.name}", site=path.name
            )

    def _compute(self, split: int) -> list:
        if not self._metas:
            return []
        meta = self._metas[split]
        path = self._directory / meta.filename
        self._inject_corrupt_read(path)
        try:
            if self._scan is not None:
                pushdown = self._query_box is not None
                scanned = self._scan(open_v2_block(path), self._codec, pushdown)
            else:
                block, records, nbytes = _load_block(path, self._codec, self._query_box)
        except Exception as exc:
            return self._undecodable(meta, exc)
        if self._scan is not None:
            return [self._scan.partial(*scanned)]  # an aggregate's error is not the block's
        self._stats.note_block(meta.filename, len(records), nbytes, len(records), block.n)
        return records

    def _undecodable(self, meta: PartitionMeta, exc: Exception) -> list:
        """``on_corrupt``: raise, or quarantine the block as an empty partition."""
        if self._on_corrupt != "quarantine":
            from repro.engine.errors import CorruptPartitionError

            raise CorruptPartitionError(meta.filename, repr(exc)) from exc
        self._stats.note_quarantined(meta.filename)
        return [] if self._scan is None else [self._scan.zero()]


class StDataset:
    """A directory holding one block file per partition + ``metadata.json``.

    This is the engine-facing face of Section 4.1: :meth:`write` persists a
    partitioned layout with its boundaries, :meth:`read` returns a lazy RDD
    over only the partitions surviving metadata pruning.

    Every block is a v2 file (``part-*.stb``, :mod:`repro.stio.blockv2`):
    mmap-able extent columns plus per-row payload offsets, so pruned loads
    decode only matching rows.  A directory of the older whole-partition
    pickles (``part-*.pkl``, metadata ``block_format`` ``"v1"``) is input to
    :meth:`convert` only; every other entry point raises
    :class:`LegacyBlockFormatError` over one.
    """

    BLOCK_PATTERN = "part-{:05d}.stb"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._meta_cache: tuple[tuple[int, int], DatasetMetadata] | None = None

    # -- writing ------------------------------------------------------------------

    def _publish_blocks(self, first: int, blocks, boundaries) -> list[PartitionMeta]:
        """Write ``blocks`` as files ``first``, ``first + 1``, … and return
        their metadata entries — the one place a block file is written.

        A block's recorded bounds are its table's min/max, the MBR of the
        *actual* rows (``boundaries[i]``, the partitioner's cell, stands in
        for a block with no rows).  The names are new, so no reader holds
        them: a torn write leaves a file no manifest names.
        """
        metas = []
        for i, rows in enumerate(blocks):
            filename = self.BLOCK_PATTERN.format(first + i)
            (self.directory / filename).write_bytes(layout_v2_block(rows))
            if len(rows.lengths):
                bounds = rows.table.bounds() if rows.table is not None else _NO_BOUNDS
            elif boundaries is not None and i < len(boundaries):
                bounds = boundaries[i]
            else:
                bounds = _NO_BOUNDS
            metas.append(PartitionMeta(filename=filename, count=len(rows.lengths), bounds=bounds))
        return metas

    def _commit(
        self, old: DatasetMetadata, meta: DatasetMetadata, blocks, boundaries, compact: bool
    ) -> None:
        """Make ``meta`` with ``blocks`` appended the dataset — the one commit
        every writer makes: new blocks under never-used names, one atomic
        metadata replace, unlink of what ``old`` named and it does not.  A
        crash leaves either manifest intact; the next commit removes the
        leftovers (``old.superseded``, files under the names it takes)."""
        first = meta.next_block
        for name in old.superseded:
            (self.directory / name).unlink(missing_ok=True)
        k = first
        while (stale := self.directory / self.BLOCK_PATTERN.format(k)).exists():
            stale.unlink()
            k += 1
        partitions = [*meta.partitions, *self._publish_blocks(first, blocks, boundaries)]
        names = {p.filename for p in partitions}
        superseded = tuple(p.filename for p in old.partitions if p.filename not in names)
        self._save_metadata(
            replace(
                meta,
                partitions=partitions,
                next_block=first + len(partitions) - len(meta.partitions),
                compacted=len(partitions) if compact else meta.compacted,
                superseded=superseded,
            )
        )
        for name in superseded:
            (self.directory / name).unlink(missing_ok=True)

    def _save_metadata(self, meta: DatasetMetadata) -> None:
        """Commit ``meta`` and remember it: this handle's next
        :meth:`cached_metadata` is a stat, not a parse of its own write."""
        stat = meta.save(self.directory).stat()
        self._meta_cache = ((stat.st_mtime_ns, stat.st_size), meta)

    @classmethod
    def write(
        cls,
        directory: str | Path,
        partitions: Sequence[Sequence[Instance]],
        instance_type: str,
        boundaries: Sequence[STBox] | None = None,
        codec: str = "tuple",
        watermark: float | None = None,
    ) -> "StDataset":
        """Persist partition lists and build the metadata index.

        Per-partition bounds recorded in the metadata are the MBRs of the
        *actual* records (tight pruning); ``boundaries`` — the theoretical
        partitioner cells — are accepted for API parity but only used for
        partitions that hold no records.
        """
        return cls(directory).write_blocks(
            (encode_rows(records, codec) for records in partitions),
            instance_type, boundaries, codec, watermark,
        )

    def write_blocks(
        self,
        blocks,
        instance_type: str,
        boundaries: Sequence[STBox] | None = None,
        codec: str = "tuple",
        watermark: float | None = None,
    ) -> "StDataset":
        """:meth:`write` of already-encoded rows — the block-level writer.

        Each of ``blocks`` is an :class:`~repro.stio.blockv2.EncodedRows`
        (:func:`~repro.stio.blockv2.encode_rows`, or a split of one).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        # A rewrite (re-index / repartition / conversion) supersedes every
        # block and continues the generation (so readers keyed on it miss),
        # the name counter and the watermark.
        old, generation = DatasetMetadata(instance_type, []), 0
        if (self.directory / METADATA_FILENAME).exists():
            try:
                old = self._parsed_metadata()
                generation = old.generation + 1
                if watermark is None:
                    watermark = old.watermark
            except (ValueError, FileNotFoundError):
                generation = 1
        meta = DatasetMetadata(
            instance_type, [], codec=codec, generation=generation,
            watermark=watermark, next_block=old.next_block,
        )
        self._commit(old, meta, blocks, boundaries, compact=False)
        return self

    def rewrite_blocks(self, blocks, boundaries=None, keep: int = 0) -> int:
        """A compaction's commit: ``blocks`` (as for :meth:`write_blocks`)
        supersede the partitions past the first ``keep``, and every resulting
        partition counts as compacted.  Returns the number superseded
        (traced as ``blocks_compacted``)."""
        old = self.cached_metadata()
        meta = replace(old, partitions=old.partitions[:keep], generation=old.generation + 1)
        self._commit(old, meta, blocks, boundaries, compact=True)
        if (tracer := current_tracer()) is not None:
            tracer.counter("blocks_compacted", len(old.partitions) - keep)
        return len(old.partitions) - keep

    @classmethod
    def write_rdd(
        cls,
        directory: str | Path,
        rdd: RDD,
        instance_type: str,
        partitioner: "STPartitioner | None" = None,
        sample_fraction: float = 0.1,
    ) -> "StDataset":
        """Optionally ST-partition an RDD, then persist it.

        This is the offline index-generation step: ``TSTRPartitioner`` +
        ``write_rdd`` together implement the ``stPartitionWithInfo`` /
        ``toDisk`` code of Section 4.1.
        """
        blocks, boundaries = _rdd_blocks(rdd, partitioner, sample_fraction, "tuple")
        return cls(directory).write_blocks(blocks, instance_type, boundaries)

    def append(
        self,
        partitions: Sequence[Sequence[Instance]],
        boundaries: Sequence[STBox] | None = None,
        watermark: float | None = None,
    ) -> "StDataset":
        """Add a newly indexed batch to an existing dataset.

        The periodic-indexing workflow of Section 4.1's discussion:
        "application programmers may periodically index the new group of
        data and merge the metadata file with the existing ones."  New
        block files continue the existing numbering; the metadata files
        are merged — incrementally: existing partition entries are reused
        as-is, only the new blocks' entries are computed.
        ``watermark``, when given, is the batch's high-water
        mark; the merge keeps the max of it and the dataset's existing
        mark, and the whole commit (partitions + generation + watermark)
        is one atomic metadata replace.
        """
        codec = self.cached_metadata().codec
        return self.append_blocks(
            (encode_rows(records, codec) for records in partitions), boundaries, watermark
        )

    def append_blocks(self, blocks, boundaries=None, watermark: float | None = None) -> "StDataset":
        """:meth:`append` of already-encoded rows (blocks as for :meth:`write_blocks`)."""
        old = self.cached_metadata()
        merged = old.merged_with(
            DatasetMetadata(old.instance_type, [], codec=old.codec, watermark=watermark)
        )
        self._commit(old, merged, blocks, boundaries, compact=False)
        return self

    def append_rdd(
        self,
        rdd: RDD,
        partitioner: "STPartitioner | None" = None,
        sample_fraction: float = 0.1,
    ) -> "StDataset":
        """Partition (optionally) and append an RDD batch; see :meth:`append`."""
        codec = self.cached_metadata().codec
        return self.append_blocks(*_rdd_blocks(rdd, partitioner, sample_fraction, codec))

    def convert(self, *, out: str | Path | None = None) -> "StDataset":
        """Upgrade a v1 directory to the current block format; returns the result.

        The one entry point that reads v1 blocks.  Partition layout, record
        order, codec, watermark and per-partition bounds are preserved
        exactly, so selections over the converted dataset answer
        identically.  With ``out=None`` the dataset is converted in place
        (generation bumps, the ``.pkl`` blocks are removed) and a dataset
        already converted is left untouched; otherwise a sibling copy is
        written and the source is untouched.  Surfaced on the CLI as
        ``repro convert-format``.
        """
        meta = DatasetMetadata.load(self.directory)
        if meta.block_format == "v1":
            blocks = (
                encode_rows(_read_v1_block(self.directory / m.filename, meta.codec), meta.codec)
                for m in meta.partitions
            )
        elif out is None:
            return self
        else:  # a copy: the rows' columns and payload bytes, verbatim
            blocks = (open_v2_block(self.directory / m.filename).encoded() for m in meta.partitions)
        return StDataset(out if out is not None else self.directory).write_blocks(
            blocks,
            meta.instance_type,
            boundaries=[m.bounds for m in meta.partitions],
            codec=meta.codec,
            watermark=meta.watermark,
        )

    # -- streaming ----------------------------------------------------------------

    def ingest(
        self,
        batch: Sequence[Instance],
        partitioner: "STPartitioner | None" = None,
        rebalance_threshold: int | None = None,
        instance_type: str | None = None,
    ) -> "IngestReport":
        """Append one micro-batch and advance the persisted watermark.

        The streaming front door: incremental metadata + T-STR maintenance
        (new temporal slices get new cells — no repartition of resident
        data), one atomic metadata commit advancing partitions +
        generation + watermark together, and an optional compaction when
        the block count crosses ``rebalance_threshold``.  Creates the
        dataset on first call (``instance_type`` required then).  See
        :func:`repro.stream.ingest_batch` for the full contract; returns
        its :class:`~repro.stream.IngestReport`.
        """
        from repro.stream.ingest import ingest_batch

        return ingest_batch(
            self,
            batch,
            partitioner=partitioner,
            rebalance_threshold=rebalance_threshold,
            instance_type=instance_type,
        )

    def compact(self, partitioner: "STPartitioner | None" = None) -> int:
        """Rewrite the whole dataset under a fresh partition fit.

        See :func:`repro.stream.compact_dataset`; returns the number of
        blocks the rewrite replaced.
        """
        from repro.stream.ingest import compact_dataset

        return compact_dataset(self, partitioner=partitioner)

    # -- reading -------------------------------------------------------------------

    def metadata(self) -> DatasetMetadata:
        """Load the dataset's metadata file (always re-read from disk).

        Every reader and writer of blocks starts from this or
        :meth:`cached_metadata`, so they are where a v1 directory — which
        only :meth:`convert` reads — is turned away (``repro info`` uses
        :meth:`DatasetMetadata.load` directly).
        """
        self._meta_cache = None
        return self.cached_metadata()

    def cached_metadata(self) -> DatasetMetadata:
        """The parsed metadata, memoized on the file's stat signature.

        One ``os.stat`` per call instead of a full read + JSON parse: the
        hot paths (``read_block`` per block, the serve daemon per query, an
        ingest's watermark and append) re-validate cheaply and re-parse only
        when another handle's append or rewrite changed the file — this
        handle's own commits seed the cache.  Handing out the same object on
        a hit is safe — ``DatasetMetadata`` is treated as immutable everywhere.
        """
        meta = self._parsed_metadata()
        if meta.block_format == "v1":
            raise LegacyBlockFormatError(self.directory)
        return meta

    def _parsed_metadata(self) -> DatasetMetadata:
        """:meth:`cached_metadata` before the v1 check (a rewrite may replace a v1 directory)."""
        stat = (self.directory / METADATA_FILENAME).stat()
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._meta_cache
        if cached is None or cached[0] != signature:
            cached = (signature, DatasetMetadata.load(self.directory))
            self._meta_cache = cached
        return cached[1]

    def read_block(
        self,
        meta: PartitionMeta,
        codec: str | None = None,
        on_corrupt: str = "raise",
    ) -> tuple[V2Block | None, list]:
        """Eagerly open one partition's block file and decode every row.

        Unlike :meth:`read` (a lazy RDD that re-reads and re-decodes per
        evaluation), this returns ``(block, records)`` — the mmapped
        :class:`~repro.stio.blockv2.V2Block` whose extent columns a query
        masks, and the rows it indexes — for the caller to keep.  ``codec``
        defaults to the dataset's metadata value via :meth:`cached_metadata`
        (a stat, not a re-parse, per call); callers holding the metadata
        should pass it.  An undecodable block honors the same corruption
        contract as the lazy reader:
        :class:`~repro.engine.errors.CorruptPartitionError` naming the
        file, or ``(None, [])`` under ``on_corrupt="quarantine"``.
        """
        if codec is None:
            codec = self.cached_metadata().codec
        try:
            block, records, _ = _load_block(self.directory / meta.filename, codec)
        except Exception as exc:
            if on_corrupt == "quarantine":
                return None, []
            from repro.engine.errors import CorruptPartitionError

            raise CorruptPartitionError(meta.filename, repr(exc)) from exc
        return block, records

    def read(
        self,
        ctx: EngineContext,
        spatial: Envelope | None = None,
        temporal: Duration | None = None,
        use_metadata: bool = True,
        on_corrupt: str = "raise",
    ) -> tuple[RDD, LoadStats]:
        """A lazy RDD over the partitions that may contain matching data.

        ``use_metadata=False`` loads everything — the "native Spark" mode
        Figure 5 compares against.  The returned RDD still needs in-memory
        fine-grained filtering (step (3) of Figure 4); the Selector does
        that with per-partition R-trees.  A metadata-pruned
        read additionally pushes the query box down to the block reader:
        extent columns are mmapped, masked off disk, and only matching
        rows' payloads are unpickled — the coarse mask is a superset of
        the fine filter, so downstream results are unchanged.
        ``on_corrupt="quarantine"`` degrades gracefully on undecodable
        block files: the partition loads empty and
        ``LoadStats.partitions_quarantined`` counts it, instead of the
        default :class:`~repro.engine.errors.CorruptPartitionError`.
        """
        meta = self.cached_metadata()
        return self._read(ctx, meta, meta.partitions, spatial, temporal, use_metadata, on_corrupt)

    def _read(
        self, ctx, meta: DatasetMetadata, candidates, spatial, temporal, use_metadata, on_corrupt
    ) -> tuple["_DiskPartitionRDD", LoadStats]:
        """:meth:`read` over ``candidates``, some of ``meta``'s partitions."""
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError("on_corrupt must be 'raise' or 'quarantine'")
        if use_metadata:
            selected = [p for p in candidates if p.overlaps(spatial, temporal)]
        else:
            selected = list(candidates)
        stats = LoadStats(
            partitions_total=len(candidates),
            partitions_selected=len(selected),
        )
        query_box = None
        if use_metadata and (spatial is not None or temporal is not None):
            query_box = st_query_box(spatial, temporal)
        rdd = _DiskPartitionRDD(
            ctx,
            self.directory,
            selected,
            stats,
            codec=meta.codec,
            on_corrupt=on_corrupt,
            query_box=query_box,
        )
        return rdd, stats


def save_dataset(
    directory: str | Path,
    instances: Sequence[Instance],
    instance_type: str,
    partitioner: "STPartitioner | None" = None,
    num_partitions: int = 8,
    ctx: EngineContext | None = None,
) -> StDataset:
    """Convenience writer from a plain instance list."""
    own_ctx = ctx or EngineContext(default_parallelism=num_partitions)
    rdd = own_ctx.parallelize(instances, num_partitions)
    return StDataset.write_rdd(directory, rdd, instance_type, partitioner)


def load_dataset(
    ctx: EngineContext,
    directory: str | Path,
    spatial: Envelope | None = None,
    temporal: Duration | None = None,
    use_metadata: bool = True,
    on_corrupt: str = "raise",
) -> tuple[RDD, LoadStats]:
    """Convenience reader; see :meth:`StDataset.read`."""
    return StDataset(directory).read(ctx, spatial, temporal, use_metadata, on_corrupt)
