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
* past an explicit ``rebalance_threshold`` block count the ingest compacts
  **tiered**: only the blocks written since the last compaction (past
  the manifest's ``compacted`` prefix) merge, under the caller's
  partitioner refitted on their rows, and every compacted block stays
  byte- and name-identical — unless the compacted blocks alone would then
  exceed half the threshold: then :func:`compact_dataset` rewrites all.
  Either permutes the merged blocks' payload bytes, fitted and routed on
  their mmapped extent columns — no row is decoded.

Every commit writes never-reused block names (see ``StDataset._commit``),
so a :class:`~repro.stream.StreamState`, keyed on names, follows a
compaction by scanning the merged blocks, never by re-bootstrapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.obs.tracer import current_tracer
from repro.partitioners.tstr import TSTRPartitioner
from repro.stio.blockv2 import EncodedRows, encode_payloads, open_v2_block
from repro.stio.dataset import split_records, split_rows
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


def _nonempty(blocks, boundaries) -> tuple[list[EncodedRows], list]:
    """The blocks holding rows, with their boundaries: a batch rarely tiles
    its fit grid fully, and zero-count blocks would only be pruned on every
    read."""
    kept = [(blk, bound) for blk, bound in zip(blocks, boundaries) if len(blk.lengths)]
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
    the metadata.  ``rebalance_threshold``, when given, triggers a tiered
    compaction once the post-ingest block count exceeds it.

    Tracer counters (when a tracer is installed): ``ingest_batches``,
    ``ingest_records``, ``ingest_late_records``, ``watermark_lag``
    (cumulative event-time lag, seconds), and ``blocks_compacted``.
    """
    exists = (dataset.directory / METADATA_FILENAME).exists()
    meta = dataset.cached_metadata() if exists else None
    previous_watermark = meta.watermark if exists else None
    if not batch:
        generation = meta.generation if exists else 0
        return IngestReport(0, 0, generation, previous_watermark, previous_watermark, 0, 0.0, False, 0)
    if not exists and instance_type is None:
        raise ValueError("first ingest into a fresh dataset needs instance_type")

    # The one pass over the batch's extents: watermark, fit, routing, block
    # columns and metadata bounds all read the table from here on.
    try:
        table = BoxTable.from_instances(batch)
    except Exception as exc:
        raise ValueError("cannot ingest records without an ST extent") from exc
    ends = table.tmax
    late, watermark = 0, float(ends.max())
    if previous_watermark is not None:
        late = int(np.count_nonzero(ends <= previous_watermark))
        watermark = max(previous_watermark, watermark)
    lag = max(0.0, watermark - float(ends.min()))

    # Incremental T-STR maintenance: a fit on the batch alone gives its
    # temporal extent fresh slices/cells, and nothing resident moves.
    codec = meta.codec if exists else "tuple"
    if partitioner is None:
        blocks, boundaries = [EncodedRows.joined(table, encode_payloads(batch, codec))], None
    else:
        blocks, boundaries = _nonempty(*split_records(batch, table, codec, partitioner))
    if exists:
        dataset.append_blocks(blocks, boundaries, watermark=watermark)
    else:
        dataset.write_blocks(blocks, instance_type, boundaries, watermark=watermark)
    meta = dataset.cached_metadata()

    compacted_blocks = 0
    if rebalance_threshold is not None and len(meta.partitions) > rebalance_threshold:
        compacted_blocks = _rebalance(dataset, partitioner, rebalance_threshold)
        meta = dataset.cached_metadata()

    tracer = current_tracer()
    if tracer is not None:
        tracer.counter("ingest_batches", 1)
        tracer.counter("ingest_records", len(batch))
        if late:
            tracer.counter("ingest_late_records", late)
        tracer.counter("watermark_lag", lag)
        # blocks_compacted is counted by the compaction itself.

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


def _merged(dataset: "StDataset", merged, codec: str, partitioner):
    """``(blocks, boundaries)`` of the ``merged`` partitions' rows under one
    fit of ``partitioner`` (default ``TSTRPartitioner(≈√blocks, 1)``) —
    ``None`` when they hold no row.  Payload bytes move verbatim; rows
    decode only for a partitioner that reads ``table.rows``.  Raises
    ``ValueError`` over a block whose rows have no ST extent."""
    resident = [open_v2_block(dataset.directory / p.filename) for p in merged]
    for block in resident:
        if not block.filterable:
            raise ValueError(
                f"cannot compact {dataset.directory}: {block.path.name} holds rows "
                f"without an ST extent, which no partitioner can place"
            )
    if not sum(block.n for block in resident):
        return None
    if partitioner is None:
        partitioner = TSTRPartitioner(max(1, math.isqrt(len(merged))), 1)
    rows = EncodedRows.concat([block.encoded() for block in resident], codec)
    return _nonempty(*split_rows(rows, partitioner))


def _rebalance(dataset: "StDataset", partitioner, threshold: int) -> int:
    """The ingest trigger's compaction: tiered, unless the compacted blocks
    alone would then exceed ``threshold // 2``.  Returns the number of
    blocks replaced."""
    meta = dataset.cached_metadata()
    merged = _merged(dataset, meta.partitions[meta.compacted :], meta.codec, partitioner)
    if merged is None or meta.compacted + len(merged[0]) > threshold // 2:
        return compact_dataset(dataset, partitioner)
    return dataset.rewrite_blocks(*merged, keep=meta.compacted)


def compact_dataset(
    dataset: "StDataset",
    partitioner: "STPartitioner | None" = None,
) -> int:
    """Rewrite the whole dataset under one fresh partition fit.

    Refits the partitioner on every resident row (see :func:`_merged`)
    and writes blocks that supersede every old one; the watermark is kept
    and the generation bumps.  Returns the number of blocks replaced.
    """
    meta = dataset.cached_metadata()
    merged = _merged(dataset, meta.partitions, meta.codec, partitioner)
    if merged is None:
        return 0
    return dataset.rewrite_blocks(*merged)
