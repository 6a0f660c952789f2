"""Incremental pipeline runs: new-blocks-only Selection→Conversion→Extraction.

The batch pipeline re-reads the whole dataset on every run.  This module
exploits the append-only block layout instead: ingested blocks only ever
land *after* the existing ones, so "everything new since the last run" is
exactly ``partitions[position:]`` — an offset read, with the usual
metadata pruning and v2 query-box pushdown applied on top.

Parity is the contract, not an aspiration.  A no-partitioner selection
preserves the one-partition-per-block layout, conversion emits exactly
one partial collective instance per partition, and
:meth:`~repro.core.extractors.base.CellAggExtractor.merge_partials`
replays ``tree_reduce``'s adjacent pairing over the banked per-block
partials — so K incremental runs produce **bit-identical** features to a
single batch run over the union (``tests/test_stream.py`` gates this on
all three backends, chaos included).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.temporal.duration import Duration

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline
    from repro.engine.context import EngineContext
    from repro.stio.dataset import StDataset


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
    ``fingerprint`` is the ``(filename, count)`` of the last consumed
    block: appends never touch it, compaction rewrites it, which is how
    staleness is detected.  ``partials`` holds one unfinalized partial per
    selected block, in block order — what ``tree_reduce`` would pair in a
    batch run: a ``CellTable`` when the plan lowers to the fused scan, else
    a partial collective instance.  All plain picklable data, so the state
    checkpoints through :class:`~repro.engine.faults.PipelineCheckpoint`.
    """

    position: int = 0
    fingerprint: tuple[str, int] | None = None
    watermark: float | None = None
    generation: int = 0
    partials: list = field(default_factory=list)


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


def _incremental_selector(pipeline: "Pipeline", temporal=None):
    """The pipeline's selector, minus anything that reshapes partitions.

    Incremental extraction banks one partial per on-disk block, so the
    partitioner / num_partitions knobs (pure shuffle-balance levers for
    extraction) are dropped; filtering semantics are kept verbatim.
    """
    from repro.core.selector import Selector

    sel = pipeline.selector
    return Selector(
        spatial=sel.spatial,
        temporal=temporal if temporal is not None else sel.temporal,
        index=sel.index,
        backend=sel.backend,
        on_corrupt=sel.on_corrupt,
    )


def _extract_new_partials(
    pipeline: "Pipeline",
    ctx: "EngineContext",
    source,
    use_metadata: bool,
    offset: int,
    fused: "StDataset | None",
) -> tuple[list, int, int]:
    """Select/convert/premerge blocks ``[offset:]`` into per-block partials.

    Returns ``(partials, blocks_selected, records_loaded)``.  A plan that
    lowers to the fused scan over dataset ``fused`` banks that scan's tables.
    """
    if fused is not None:
        tables = pipeline._fused_scan(
            ctx, fused, reduce=False, use_metadata=use_metadata, offset=offset
        )
        stats = pipeline.selector.last_load_stats
        return tables, stats.partitions_selected, stats.records_loaded
    sel = _incremental_selector(pipeline)
    selected = sel.select(ctx, source, use_metadata=use_metadata, offset=offset)
    stats = sel.last_load_stats  # never None: the source is a directory
    if not stats.partitions_selected:
        # Every new block pruned: nothing to convert.  (An RDD over zero
        # blocks still has one empty partition, and conversion would
        # dutifully emit a zero partial for it — which a batch run over
        # the union would never see.  Skip instead.)
        return [], 0, 0
    data = selected
    if pipeline.converter is not None:
        data = pipeline.converter.convert(data)
    partials = pipeline.extractor.extract_partials(data)
    return partials, stats.partitions_selected, stats.records_loaded


def run_incremental(
    pipeline: "Pipeline",
    ctx: "EngineContext",
    source,
    state: StreamState | None = None,
    since: float | None = None,
    use_metadata: bool = True,
) -> IncrementalRun:
    """Run the pipeline over new-since-last-time blocks only.

    Two modes:

    * **state mode** (default; pass the previous run's ``state``, or
      nothing to bootstrap): consumes blocks past ``state.position``,
      banks their partials, and returns features over everything
      consumed so far — bit-identical to a batch run over the union.
    * **since mode** (pass ``since``, typically the watermark persisted
      before the latest ingests): stateless; selects blocks whose
      temporal bounds reach strictly past ``since`` via the ordinary
      metadata pruning (and v2 pushdown), runs the full pipeline over
      just those, and returns that slice's features.  Boundary records
      with end time exactly ``since`` are *excluded* (the watermark is
      the max end already ingested, so they were already processed).

    Requires a directory source (incremental reads are metadata-driven)
    and an extractor with the partial API
    (:class:`~repro.core.extractors.base.CellAggExtractor`).
    """
    if state is not None and since is not None:
        raise ValueError("pass state or since, not both")
    if not isinstance(source, (str, Path)):
        raise TypeError("run_incremental needs an on-disk dataset directory")
    if since is not None:
        return _run_since(pipeline, ctx, source, since, use_metadata)
    if pipeline.extractor is None or not hasattr(
        pipeline.extractor, "extract_partials"
    ):
        raise TypeError(
            "run_incremental needs a CellAggExtractor (an extractor with "
            "mergeable partials); got "
            f"{type(pipeline.extractor).__name__}"
        )

    state = state if state is not None else StreamState()
    path, _, ds = pipeline._lower(source)
    meta = ds.cached_metadata()
    blocks = meta.partitions
    if state.position > len(blocks):
        raise StaleStreamStateError(
            f"state consumed {state.position} blocks but the dataset now has "
            f"{len(blocks)} — it was rewritten; restart from a fresh state"
        )
    if state.position:
        last = blocks[state.position - 1]
        if state.fingerprint != (last.filename, last.count):
            raise StaleStreamStateError(
                f"block {state.position - 1} changed underneath the stream "
                f"state (expected {state.fingerprint}, found "
                f"{(last.filename, last.count)}) — the dataset was compacted; "
                "restart from a fresh state"
            )

    blocks_new = len(blocks) - state.position
    new_partials: list = []
    blocks_selected = 0
    records = 0
    if blocks_new:
        new_partials, blocks_selected, records = _extract_new_partials(
            pipeline, ctx, source, use_metadata, state.position,
            ds if path == "fused" else None,
        )
    all_partials = state.partials + new_partials
    new_state = replace(
        state,
        position=len(blocks),
        fingerprint=(
            (blocks[-1].filename, blocks[-1].count) if blocks else None
        ),
        watermark=meta.watermark,
        generation=meta.generation,
        partials=all_partials,
    )
    result = None
    if all_partials:
        result = pipeline.extractor.merge_partials(all_partials)
        if path == "fused":
            result = pipeline._shell(result)
    tracer = ctx.tracer
    if tracer is not None:
        tracer.counter("incremental_runs", 1)
        tracer.counter("incremental_blocks_new", blocks_new)
        tracer.counter("incremental_blocks_selected", blocks_selected)
    return IncrementalRun(
        result=result,
        state=new_state,
        blocks_new=blocks_new,
        blocks_selected=blocks_selected,
        records_loaded=records,
    )


def _run_since(
    pipeline: "Pipeline",
    ctx: "EngineContext",
    source,
    since: float,
    use_metadata: bool,
) -> IncrementalRun:
    """Stateless since-mode: one pipeline run over the post-``since`` slice."""
    horizon = Duration(math.nextafter(since, math.inf), math.inf)
    sel = pipeline.selector
    temporal = (
        horizon
        if sel.temporal is None
        else sel.temporal.intersection(horizon)
    )
    nothing = IncrementalRun(
        result=None, state=None, blocks_new=0, blocks_selected=0, records_loaded=0
    )
    if temporal is None:
        # The query window ends at or before the watermark: nothing new
        # can ever match.
        return nothing
    # The slice is an ordinary run of the same plan under a narrowed
    # window, so it lowers exactly as ``Pipeline.run`` does.
    from repro.core.pipeline import Pipeline

    inc = Pipeline(
        _incremental_selector(pipeline, temporal=temporal),
        pipeline.converter,
        pipeline.extractor,
    )
    selected = inc.explain(ctx, source, use_metadata=use_metadata)["blocks_selected"]
    if selected == 0:
        return nothing
    result = inc.run(ctx, source, use_metadata=use_metadata)
    return IncrementalRun(
        result=result,
        state=None,
        blocks_new=selected,
        blocks_selected=selected,
        records_loaded=inc.selector.last_load_stats.records_loaded,
    )
