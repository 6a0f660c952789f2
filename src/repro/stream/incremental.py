"""Incremental pipeline runs: the state a new-blocks-only run carries.

The batch pipeline re-reads the whole dataset on every run.
:meth:`Pipeline.run_incremental <repro.core.pipeline.Pipeline.run_incremental>`
exploits the append-only block layout instead: ingested blocks only ever
land *after* the existing ones, so "everything new since the last run" is
exactly ``partitions[position:]`` — the batch plan over an offset read,
with the usual metadata pruning and query-box pushdown applied on top.
The pipeline owns the execution; this module owns what survives between
two runs (:class:`StreamState`), what one run reports
(:class:`IncrementalRun`), and the one check that makes position-based
reads sound (:meth:`StreamState.check_current`).

Parity is the contract, not an aspiration.  The bank holds one partial
per selected block, in block order — exactly what ``tree_reduce`` pairs in
a batch run with no partitioner — and is reduced with the same adjacent
pairing, so K incremental runs produce **bit-identical** features to a
single batch run over the union (``tests/test_stream.py`` gates this on
all three backends, chaos included).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.stio.metadata import DatasetMetadata


class StaleStreamStateError(RuntimeError):
    """The dataset's block layout no longer matches the stream state.

    Raised when the blocks a :class:`StreamState` already consumed were
    rewritten underneath it — a compaction or an in-place repartition.
    Position-based incremental reads are only sound over append-only
    edits; the caller must restart from a fresh state (one full run).
    """


@dataclass
class StreamState:
    """Running state of one incremental pipeline over one dataset.

    ``position`` counts the dataset blocks already consumed (pre-pruning
    — pruned blocks are consumed too, they just contribute nothing).
    ``epoch`` is the dataset's rewrite epoch when they were consumed:
    appends carry it forward, every in-place rewrite bumps it, which is
    how staleness is detected.  ``partials`` holds one unfinalized partial
    per selected block, in block order — what ``tree_reduce`` would pair
    in a batch run: a :class:`~repro.columnar.aggregate.CellTable` for
    every extractor with an ``agg_spec`` (all the built-in ones), the
    folded collective instance for a subclass without.  All plain
    picklable data, so the state checkpoints through
    :class:`~repro.engine.faults.PipelineCheckpoint`.
    """

    position: int = 0
    epoch: int = 0
    watermark: float | None = None
    partials: list = field(default_factory=list)

    def check_current(self, meta: "DatasetMetadata") -> None:
        """Raise :class:`StaleStreamStateError` unless ``meta`` still
        starts with the blocks this state consumed."""
        if self.position > len(meta.partitions) or (
            self.position and self.epoch != meta.epoch
        ):
            raise StaleStreamStateError(
                f"state consumed {self.position} blocks at rewrite epoch "
                f"{self.epoch}; the dataset now has {len(meta.partitions)} at "
                f"epoch {meta.epoch} — it was compacted or rewritten in place; "
                "restart from a fresh state"
            )

    def advanced(
        self, meta: "DatasetMetadata", blocks_new: int, partials: list
    ) -> "StreamState":
        """The state after consuming ``blocks_new`` more blocks of ``meta``,
        whose selected ones contributed ``partials``."""
        return replace(
            self,
            position=self.position + blocks_new,
            epoch=meta.epoch,
            watermark=meta.watermark,
            partials=self.partials + partials,
        )


@dataclass(frozen=True)
class IncrementalRun:
    """One :meth:`Pipeline.run_incremental` outcome.

    ``result`` is the finalized extraction output over *everything
    consumed so far* (state mode) or over just the new slice (``since``
    mode); ``None`` when nothing has ever been selected.  ``state`` is
    the advanced :class:`StreamState` (state mode only).
    """

    result: Any
    state: StreamState | None
    blocks_new: int
    blocks_selected: int
    records_loaded: int
