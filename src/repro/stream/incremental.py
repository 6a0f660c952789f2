"""Incremental pipeline runs: the state a new-blocks-only run carries.

The batch pipeline re-reads the whole dataset on every run.
:meth:`Pipeline.run_incremental <repro.core.pipeline.Pipeline.run_incremental>`
exploits write-once block files instead: a block name is never reused, so
a name a run has already consumed still holds exactly the rows it held
then, and "everything new since the last run" is exactly the blocks whose
names the state has not seen — the batch plan over those, with the usual
metadata pruning and query-box pushdown applied on top.  A compaction is
nothing special: the blocks it superseded leave the manifest (their
partials are dropped), the blocks it wrote are new names (they are
scanned).  The pipeline owns the execution; this module owns what
survives between two runs (:class:`StreamState`) and what one run reports
(:class:`IncrementalRun`).

Parity is the contract, not an aspiration.  The bank holds one partial
per block of the manifest, reduced in manifest order with the adjacent
pairing ``tree_reduce`` applies in a batch run with no partitioner over
the same manifest — so K incremental runs produce **bit-identical**
features to a single batch run over the union, float aggregates included
(``tests/test_stream.py`` gates this on all three backends, chaos and
compactions included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.stio.metadata import DatasetMetadata


class StaleStreamStateError(RuntimeError):
    """Kept for callers of the position-keyed state a compaction made stale;
    a name-keyed :class:`StreamState` follows every commit, so nothing
    raises it any more."""


@dataclass
class StreamState:
    """Running state of one incremental pipeline over one dataset.

    ``partials`` maps every manifest block's filename, in manifest order,
    to its unfinalized partial (``None``: pruned, or no row selected) — a
    :class:`~repro.columnar.aggregate.CellTable` for every extractor with an
    ``agg_spec``, the folded collective instance for a subclass without;
    ``watermark`` is the dataset's.  Plain picklable data, so the state
    checkpoints through :class:`~repro.engine.faults.PipelineCheckpoint`.
    """

    partials: dict = field(default_factory=dict)
    watermark: float | None = None

    def advanced(self, meta: "DatasetMetadata", new: dict) -> "StreamState":
        """The state over ``meta``'s manifest once the blocks it had not seen
        were read, ``new`` holding the partials of those selected: names the
        manifest lost are dropped."""
        known = {**self.partials, **new}
        partials = {p.filename: known.get(p.filename) for p in meta.partitions}
        return StreamState(partials, meta.watermark)

    def banked(self) -> list:
        """The partials a batch run over the manifest would reduce, in order."""
        return [partial for partial in self.partials.values() if partial is not None]


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
