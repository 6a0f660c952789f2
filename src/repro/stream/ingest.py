"""Micro-batch ingestion: incremental T-STR maintenance + the watermark.

ST4ML's batch story ends at :meth:`~repro.stio.dataset.StDataset.append`
— Section 4.1's "periodically index the new group of data and merge the
metadata file".  This module is the streaming front door built on it:

* :func:`ingest_batch` indexes one micro-batch *by itself* (T-STR fit on
  the batch — new temporal slices get new cells; resident blocks are
  never touched), appends the resulting blocks, and advances the
  persisted **watermark** in the same atomic metadata commit that
  publishes the new partitions and generation.  The batch's records are
  visited once (:func:`~repro.stio.blockv2.encode_rows`: extent table +
  payload bytes); watermark, late count, fit, routing, block columns and
  metadata bounds are all read off that table;
* when the block count crosses an explicit ``rebalance_threshold``,
  :func:`compact_dataset` rewrites the whole dataset under one fresh
  partition fit — the safety valve that keeps a long-lived feed from
  accumulating thousands of sliver blocks.  It is a byte permutation: the
  resident blocks' mmapped extent columns are fitted and routed, and each
  new block gathers its rows' payload slices verbatim — no row is decoded.

Crash safety of an *append* is write-ordering, not locking: block files
land first, metadata last, and every file is published by an atomic
replace — a crashed ingest leaves at worst orphan blocks the metadata
never names (invisible to every reader, reclaimed by the next
compaction's orphan sweep).  An in-place *rewrite* (compaction) is weaker:
it reuses the block names the live metadata still points at, so a crash
between its first block and its metadata commit leaves new blocks under
old metadata (ROADMAP item 7).  What the per-file replace does guarantee
is that a reader which already mapped a block keeps its old inode — it
finishes on the pre-compaction rows instead of dying on a truncated file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.obs.tracer import current_tracer
from repro.partitioners.tstr import TSTRPartitioner
from repro.stio.blockv2 import PayloadRows, encode_rows, open_v2_block
from repro.stio.dataset import split_rows
from repro.stio.metadata import METADATA_FILENAME

if TYPE_CHECKING:  # pragma: no cover
    from repro.instances.base import Instance
    from repro.partitioners.base import STPartitioner
    from repro.stio.dataset import StDataset


@dataclass(frozen=True)
class IngestReport:
    """What one :func:`ingest_batch` call did, for callers and tests.

    ``watermark_lag`` is event-time staleness: how far the batch's oldest
    record sits behind the post-ingest watermark (0.0 for a batch of
    strictly new data).  ``late_records`` counts records whose end time
    is at or below the *previous* watermark — data that arrived after
    the mark already passed it.  Late data is ingested, never dropped;
    the counters exist so an operator can see it happening.
    """

    records: int
    blocks_added: int
    generation: int
    watermark: float | None
    previous_watermark: float | None
    late_records: int
    watermark_lag: float
    compacted: bool
    blocks_compacted: int

    @property
    def advanced(self) -> bool:
        """Did this batch move the watermark forward?"""
        if self.watermark is None:
            return False
        if self.previous_watermark is None:
            return True
        return self.watermark > self.previous_watermark


def _batch_blocks(
    table, payloads: list, partitioner: "STPartitioner | None"
) -> tuple[list[tuple], list | None]:
    """Split one micro-batch's encoded rows into its own blocks, driver-side.

    With a partitioner the fit runs on the batch alone — the incremental
    T-STR maintenance: the batch's temporal extent gets its own fresh
    slices/cells, and nothing resident moves.  Without one the batch is a
    single block.  Empty cells are dropped (a batch rarely tiles its fit
    grid fully; zero-count blocks would only be pruned on every read).
    """
    if partitioner is None:
        return [(table, payloads)], None
    blocks, boundaries = split_rows(table, payloads, partitioner)
    kept = [(blk, bound) for blk, bound in zip(blocks, boundaries) if blk[1]]
    return [blk for blk, _ in kept], [bound for _, bound in kept]


def ingest_batch(
    dataset: "StDataset",
    batch: Sequence["Instance"],
    partitioner: "STPartitioner | None" = None,
    rebalance_threshold: int | None = None,
    instance_type: str | None = None,
) -> IngestReport:
    """Append one micro-batch and advance the persisted watermark.

    The first call on a fresh directory creates the dataset
    (``instance_type`` is required then); subsequent calls inherit it from
    the metadata.  ``rebalance_threshold``, when given, triggers
    :func:`compact_dataset` once the post-ingest block count exceeds it.

    Tracer counters (when a tracer is installed): ``ingest_batches``,
    ``ingest_records``, ``ingest_late_records``, ``watermark_lag``
    (cumulative event-time lag, seconds), and ``blocks_compacted``.
    """
    exists = (dataset.directory / METADATA_FILENAME).exists()
    meta = dataset.cached_metadata() if exists else None
    previous_watermark = meta.watermark if exists else None
    if not batch:
        return IngestReport(
            records=0,
            blocks_added=0,
            generation=meta.generation if exists else 0,
            watermark=previous_watermark,
            previous_watermark=previous_watermark,
            late_records=0,
            watermark_lag=0.0,
            compacted=False,
            blocks_compacted=0,
        )
    if not exists and instance_type is None:
        raise ValueError("first ingest into a fresh dataset needs instance_type")

    # The one pass over the batch's records: watermark, fit, routing, block
    # columns and metadata bounds all read the table from here on.
    table, payloads = encode_rows(batch, meta.codec if exists else "tuple")
    if table is None:
        raise ValueError("cannot ingest records without an ST extent")
    ends = table.tmax
    late, watermark = 0, float(ends.max())
    if previous_watermark is not None:
        late = int(np.count_nonzero(ends <= previous_watermark))
        watermark = max(previous_watermark, watermark)
    lag = max(0.0, watermark - float(ends.min()))

    blocks, boundaries = _batch_blocks(table, payloads, partitioner)
    if exists:
        dataset.append_blocks(blocks, boundaries, watermark=watermark)
    else:
        dataset.write_blocks(blocks, instance_type, boundaries, watermark=watermark)
    meta = dataset.cached_metadata()

    compacted_blocks = 0
    if (
        rebalance_threshold is not None
        and len(meta.partitions) > rebalance_threshold
    ):
        compacted_blocks = compact_dataset(dataset, partitioner=partitioner)
        meta = dataset.cached_metadata()

    tracer = current_tracer()
    if tracer is not None:
        tracer.counter("ingest_batches", 1)
        tracer.counter("ingest_records", len(batch))
        if late:
            tracer.counter("ingest_late_records", late)
        tracer.counter("watermark_lag", lag)
        # blocks_compacted is counted inside compact_dataset itself.

    return IngestReport(
        records=len(batch),
        blocks_added=len(blocks),
        generation=meta.generation,
        watermark=meta.watermark,
        previous_watermark=previous_watermark,
        late_records=late,
        watermark_lag=lag,
        compacted=compacted_blocks > 0,
        blocks_compacted=compacted_blocks,
    )


def compact_dataset(
    dataset: "StDataset",
    partitioner: "STPartitioner | None" = None,
) -> int:
    """Rewrite the whole dataset under one fresh partition fit.

    The rebalance arm of ingestion: refits the partitioner on the *full*
    resident population (a default ``TSTRPartitioner(≈√blocks, 1)`` when
    none is given) and rewrites in place, off the blocks' extent columns
    and raw payload bytes — the codec is preserved, so the bytes are valid
    verbatim, and rows decode only for a partitioner that reads
    ``table.rows``.  The watermark is preserved; the generation bumps (an
    in-place rewrite is an edit) and orphan blocks from the old layout are
    removed.  Returns the number of blocks the rewrite replaced; raises
    ``ValueError``, before writing anything, over a block whose rows have
    no ST extent.
    """
    meta = dataset.cached_metadata()
    replaced = len(meta.partitions)
    resident = [open_v2_block(dataset.directory / p.filename) for p in meta.partitions]
    for block in resident:
        if not block.filterable:
            raise ValueError(
                f"cannot compact {dataset.directory}: {block.path.name} holds rows "
                f"without an ST extent, which no partitioner can place"
            )
    payloads = [payload for block in resident for payload in block.payloads()]
    if not payloads:
        return 0
    if partitioner is None:
        partitioner = TSTRPartitioner(max(1, math.isqrt(replaced)), 1)
    table = BoxTable.concat(
        [block.boxtable() for block in resident], PayloadRows(payloads, meta.codec)
    )
    blocks, boundaries = _batch_blocks(table, payloads, partitioner)
    dataset.write_blocks(blocks, meta.instance_type, boundaries, meta.codec, meta.watermark)
    tracer = current_tracer()
    if tracer is not None:
        tracer.counter("blocks_compacted", replaced)
    return replaced
