"""Three-stage pipeline composition helper.

Mirrors the end-to-end code shape of Section 3.4: a selector, an optional
converter, and an extractor are defined up front, then executed as a
pipeline.  Purely a convenience — each operator remains usable on its own.

A plan takes one of two physical paths — the *staged* operator chain over
RDDs of instances, or, for count and trajectory speed aggregates over a
dataset directory, one *fused* column scan per block (:class:`_BlockScan`);
:meth:`Pipeline.explain` says which and why, and docs/architecture.md §12
has the lowering rule.

Every entry point lowers its request once, to a :class:`_Plan`:
``explain`` shows it, ``run`` executes it, ``run_incremental`` executes it
over the blocks its state has not seen (state mode) or under a narrowed
window (since mode).
Whichever path runs, the extraction is one partial per block or partition,
the fixed adjacent pairing of ``tree_reduce``, one finalize.
"""

from __future__ import annotations

import copy
import math
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.columnar.aggregate import CellTable, PortionSpeedSpec
from repro.core.selector import select_candidates
from repro.core.structures import SpatialMapStructure, TimeSeriesStructure
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.obs.tracer import phase as _phase_span
from repro.stio.dataset import LoadStats, StDataset
from repro.stream.incremental import IncrementalRun, StreamState
from repro.temporal.duration import Duration


#: Selector arguments (with their defaults) that only balance the staged
#: path's shuffle: a state-mode incremental run, which banks one partial per
#: on-disk block, runs without them.
_SHUFFLE_KNOBS = dict(partitioner=None, num_partitions=None, duplicate=False)
#: ... and those that only shape the staged path's intermediate RDD; a fused
#: run never materialises one.
_STAGED_ONLY_KNOBS = dict(_SHUFFLE_KNOBS, index=True)


def _replaced(selector, **fields):
    """A copy of ``selector`` with ``fields`` set (the probe counters stay shared)."""
    clone = copy.copy(selector)
    vars(clone).update(fields)
    return clone


class _Plan(NamedTuple):
    """One lowered request: what ``explain`` shows and every run executes.

    ``selector`` is the pipeline's own, or a copy with a narrowed window or
    without the shuffle knobs; ``data`` the lazy read of ``meta``'s (the
    manifest's) pruned blocks (``stats`` is that pruning) or — no dataset,
    or a checkpointed plan — the source itself, for the Selection phase.
    """

    path: str
    reason: str
    ignored: list
    selector: Any
    data: Any
    stats: LoadStats | None
    meta: Any

    def explain(self) -> dict:
        total = selected = None
        if self.stats is not None:
            total, selected = self.stats.partitions_total, self.stats.partitions_selected
        return dict(
            path=self.path, reason=self.reason, blocks_total=total,
            blocks_selected=selected, ignored=self.ignored,
        )


class _BlockScan:
    """One block → its ``CellTable`` partial: the whole fused stage, in two
    steps — ``__call__`` reads and allocates, :meth:`partial` aggregates.

    ``candidate_rows`` on the extent columns selects (exactly, for
    ``box_exact`` rows).  A count allocates with ``_candidate_pairs`` on
    those extents wherever ``_needs_exact`` is false (point rows on a
    regular raster / spatial map, ``box_exact`` rows on a time series); a
    speed unpickles the candidates' encoded trajectories straight into a
    ``PointsTable`` (no ``Trajectory`` built), keeps ``rows_with_point_in``
    and allocates with ``allocate_pairs``.  A block holding a candidate
    neither way decides (a shape that is not its box, an interval time)
    decodes its candidate rows — only those — through ``select_candidates``
    (the selection every path shares) and ``allocate_pairs`` instead.
    """

    def __init__(self, selector, converter, spec, structure, stats: LoadStats):
        self.spatial = selector.spatial
        self.temporal = selector.temporal
        self.box = selector._query_box()
        self.method = converter.method
        self.allocation = converter.stats
        self.load = stats
        self.spec = spec
        self.structure = structure  # the broadcast handle
        self.speed = hasattr(spec, "from_points")

    def __call__(self, block, codec: str, pushdown: bool = True) -> tuple:
        """The block's allocation: ``(points table, rows, cells)`` for
        :meth:`partial` (the table and rows ``None`` where a count needs
        none), its work added to the converter's and the load's stats."""
        # (imported here: ``repro.cli`` loads this module but never the
        # converter and extractor packages)
        from repro.columnar.pointstable import PointsTable
        from repro.core.converters.base import _candidate_pairs, allocate_pairs
        from repro.stio.formats import decode_record, instant_trajectory_points

        structure = self.structure.value
        rows = block.candidate_rows(self.box)
        columns = (block.xmin, block.ymin, block.tmin, block.xmax, block.ymax, block.tmax)
        extents = np.stack([column[rows] for column in columns])
        exact = block.box_exact[rows] & block.filterable
        decided = exact
        if not isinstance(structure, TimeSeriesStructure):
            points = (extents[0] == extents[3]) & (extents[1] == extents[4])
            decided = exact & points & structure.is_regular
        decoded = nbytes = 0
        table = pairs = None
        if not len(rows):
            cells = rows
        elif decided.all() and not self.speed:
            _, cells, tests = _candidate_pairs(structure, self.method, extents)
            self.allocation.add(len(rows), tests, 0, len(cells))
        else:
            records = block.load_rows(rows)
            decoded, nbytes = len(rows), block.payload_nbytes(rows)
            encoded = instant_trajectory_points(records) if self.speed else None
            instances = None
            if encoded is None:
                instances = [decode_record(r) for r in records]
                instances = select_candidates(instances, exact, self.spatial, self.temporal)
                table = PointsTable.from_instances(instances)
            else:
                lengths, *xyt = encoded
                x, y, t = (np.asarray(c, dtype=float) for c in xyt)
                offsets = np.concatenate(([0], np.cumsum(lengths)))
                table = PointsTable(x, y, t, t, offsets, extents)
                kept = table.rows_with_point_in(*self.box.mins, *self.box.maxs)
                table = table.take(np.flatnonzero(kept))
            pairs, cells = allocate_pairs(table, structure, self.method, self.allocation, instances)
        self.load.note_block(
            block.path.name, len(rows) if pushdown else block.n,
            block.index_nbytes + nbytes, decoded, block.n,
        )
        return table, pairs, cells

    def partial(self, table, pairs, cells) -> CellTable:
        """The spec's partial of an allocation (a speed spec's over no
        trajectory where ``table`` is ``None``)."""
        from repro.columnar.pointstable import PointsTable

        structure = self.structure.value
        kind = type(structure).__name__
        if not self.speed:
            return self.spec.from_cells(cells, structure.n_cells, kind)
        if table is None:
            table, pairs = PointsTable.from_instances([]), cells
        spans = structure._cell_st_boxes()[0][[2, 5]]
        return self.spec.from_points(table, pairs, cells, spans, kind)

    def zero(self) -> CellTable:
        """The zero partial: of a quarantined block, or of no block at all."""
        return self.partial(None, None, np.empty(0, dtype=np.int64))


class Pipeline:
    """``selector → converter → extractor`` in one call.

    Example::

        pipeline = Pipeline(
            selector=Selector(s_query, t_query, partitioner=TSTRPartitioner(4, 8)),
            converter=Traj2RasterConverter(raster_structure),
            extractor=RasterSpeedExtractor(unit="kmh"),
        )
        speeds = pipeline.run(ctx, data_dir)

    ``converter`` and ``extractor`` are optional; a ``None`` converter
    feeds the selected RDD straight to the extractor, a ``None`` extractor
    returns the converted RDD.
    """

    #: Phase names used for checkpoint directories, in execution order.
    SELECTION_PHASE = "selection"
    CONVERSION_PHASE = "conversion"

    def __init__(self, selector, converter=None, extractor=None):
        self.selector = selector
        self.converter = converter
        self.extractor = extractor

    # -- lowering -----------------------------------------------------------------

    def _lower(
        self, ctx, source, checkpoint_dir, selector, use_metadata=True, seen=()
    ) -> _Plan:
        """The one place that picks fused vs staged — and prunes the dataset.

        Fused needs every stage to be the library's own: a customised one
        (``convert`` overridden to pass ``pre_map``/``agg``, no ``agg_spec``
        with a column kernel), a ``checkpoint_dir`` or a pickle-codec
        dataset runs staged.  ``selector`` is the one the plan executes with;
        blocks named in ``seen`` are left out of the read.
        """
        from repro.core.converters.base import ToCollectiveConverter
        from repro.core.extractors.base import CellAggExtractor

        converter, extractor = self.converter, self.extractor
        dataset = StDataset(source) if isinstance(source, (str, Path)) else None
        spec = extractor.agg_spec() if isinstance(extractor, CellAggExtractor) else None
        path = "staged"
        if checkpoint_dir is not None:
            reason = "checkpoint_dir persists the per-phase RDDs"
        elif dataset is None:
            reason = "source is not a dataset directory"
        elif (
            not isinstance(converter, ToCollectiveConverter)
            or type(converter).convert is not ToCollectiveConverter.convert
        ):
            reason = "converter is not a plain singular→collective converter"
        elif spec is None:
            reason = "extractor has no agg_spec: its local/merge fold runs per partition"
        elif not hasattr(spec, "from_cells") and not hasattr(spec, "from_points"):
            reason = f"{type(spec).__name__} has no column-scan kernel"
        elif hasattr(spec, "from_points") and not converter.structure._cell_st_boxes()[1].all():
            reason = "a speed aggregate scans box cells only, and some cell is not its box"
        elif isinstance(spec, PortionSpeedSpec) and isinstance(
            converter.structure, SpatialMapStructure
        ):
            reason = "sub-trajectory speeds need time-slot cells, and a spatial map has none"
        elif (codec := dataset.cached_metadata().codec) != "tuple":
            reason = f"dataset codec is {codec!r}, not 'tuple'"
        else:
            aggregate = "count aggregate" if hasattr(spec, "from_cells") else "trajectory speed"
            path, reason = "fused", f"{aggregate} over a dataset: one column scan per block"
        # (a checkpointed plan loads inside its Selection phase, which a
        # resumed run skips without touching the source)
        data, stats, meta = source, None, None
        if dataset is not None and checkpoint_dir is None:
            meta = dataset.cached_metadata()
            unseen = [p for p in meta.partitions if p.filename not in seen]
            data, stats = dataset._read(
                ctx, meta, unseen, selector.spatial, selector.temporal,
                use_metadata, selector.on_corrupt,
            )
        # A knob set on the pipeline's selector is ignored when the plan is
        # fused, or when its own selector runs without it.
        ignored = [
            knob
            for knob, default in _STAGED_ONLY_KNOBS.items()
            if getattr(self.selector, knob) is not default
            and (path == "fused" or getattr(selector, knob) is default)
        ]
        return _Plan(path, reason, ignored, selector, data, stats, meta)

    def explain(self, ctx: EngineContext, source, checkpoint_dir=None, **select_kwargs) -> dict:
        """Which physical path :meth:`run` would take, without running it.

        ``{"path": "fused" | "staged", "reason": ..., "blocks_total": ...,
        "blocks_selected": ..., "ignored": [...]}`` — the block counts are the
        metadata pruning of a directory source (``None`` for an RDD or a
        list, and under ``checkpoint_dir``, whose Selection phase owns the
        load); ``ignored`` names the selector arguments the plan leaves
        without effect though they were set (a fused plan: everything that
        shapes the staged RDD; a staged :meth:`run`: nothing).
        """
        return self._lower(ctx, source, checkpoint_dir, self.selector, **select_kwargs).explain()

    @contextmanager
    def _root_span(self, ctx: EngineContext, plan: _Plan):
        """The root ``pipeline`` span of a traced run: the plan's
        :meth:`explain` fields."""
        if ctx.tracer is None:
            yield None
            return
        with ctx.tracer.span("pipeline", "pipeline", default_scope=True) as span:
            span.args.update(plan.explain())
            yield span

    # -- executing a plan -----------------------------------------------------------

    def _block_partials(self, ctx: EngineContext, plan: _Plan, root) -> list:
        """The plan's unfinalized extraction partials on the driver, one per
        selected block, in block order (a fused plan with no block selected:
        its one zero table; a staged one: ``None`` for a block with no row
        selected).

        A fused plan scans them off the block columns, its tasks adding their
        work to the selector's ``LoadStats`` and ``converter.stats``, which
        the spans read after the stage; a staged one — which must keep the
        one-partition-per-block layout, so its selector has no shuffle
        knob — runs the operators up
        to :meth:`CellAggExtractor.premerged
        <repro.core.extractors.base.CellAggExtractor.premerged>`.
        """
        sel, converter, tracer = plan.selector, self.converter, ctx.tracer
        self.selector.last_load_stats = plan.stats
        if plan.path != "fused":
            data = sel.select_loaded(ctx, plan.data, plan.stats)
            if converter is not None:
                with _phase_span("Conversion", tracer):
                    data = converter.convert(data)
            with _phase_span("Extraction", tracer):
                partials = self.extractor.premerged(data)._collect_partitions()
                return [p[0] if p else None for p in partials]
        sel.rtree_probes.reset()  # a column scan builds and probes no R-tree
        stats, allocation = plan.stats, converter.stats
        with _phase_span("FusedScan", tracer) as span:
            structure = converter.broadcast_structure(ctx)
            before = allocation.snapshot()
            scan = _BlockScan(sel, converter, self.extractor.agg_spec(), structure, stats)
            tables = [scan.zero()]
            if stats.partitions_selected:
                with ctx.using_backend(sel.backend) if sel.backend else nullcontext():
                    tables = [p[0] for p in plan.data.scanned(scan)._collect_partitions()]
            if span is not None:
                work = dict(
                    blocks=stats.partitions_read, rows_scanned=stats.rows_scanned,
                    records=stats.records_loaded, rows_decoded=stats.rows_decoded,
                    nbytes=stats.bytes_read,
                    **{k: v - before[k] for k, v in allocation.snapshot().items()},
                    quarantined=tuple(stats.quarantined_files),
                )
                sel._record_phase_counters(ctx, span, from_disk=True)
                span.args.update(work)
                root.args.update(work)
        return tables

    def _reduced(self, ctx: EngineContext, partials: list, depth: int):
        """Partials → the feature instance: ``tree_reduce``'s adjacent
        pairing (``depth`` rounds of it as engine stages), then finalize."""
        _, merge = self.extractor.fold()
        merged = RDD._pairwise_rounds(ctx, merge, partials, depth)[0]
        return self.extractor.finalized(merged, self.converter.structure.instance_of)

    def _execute(self, ctx: EngineContext, plan: _Plan, root, checkpoint_dir=None, resume=True):
        """:meth:`run` past the lowering."""
        if plan.path == "fused":
            tables = self._block_partials(ctx, plan, root)
            return self._reduced(ctx, tables, self.extractor.reduce_depth)
        tracer = ctx.tracer
        ckpt = None
        if checkpoint_dir is not None:
            from repro.engine.faults import PipelineCheckpoint

            ckpt = PipelineCheckpoint(checkpoint_dir, ctx)
        data = None
        conversion_done = False
        if ckpt is not None and resume:
            if self.converter is not None and ckpt.has(self.CONVERSION_PHASE):
                data = ckpt.load(self.CONVERSION_PHASE)
                conversion_done = True
            elif ckpt.has(self.SELECTION_PHASE):
                data = ckpt.load(self.SELECTION_PHASE)
        if data is None:
            if plan.stats is None:
                data = plan.selector.select(ctx, plan.data)
            else:
                data = plan.selector.select_loaded(ctx, plan.data, plan.stats)
            if ckpt is not None:
                data = ckpt.save(self.SELECTION_PHASE, data)
        if self.converter is not None and not conversion_done:
            with _phase_span("Conversion", tracer):
                data = self.converter.convert(data)
            if ckpt is not None:
                data = ckpt.save(self.CONVERSION_PHASE, data)
        if self.extractor is not None:
            with _phase_span("Extraction", tracer):
                return self.extractor.extract(data)
        return data

    # -- running --------------------------------------------------------------------

    def run(
        self,
        ctx: EngineContext,
        source,
        checkpoint_dir=None,
        resume: bool = True,
        **select_kwargs,
    ) -> Any:
        """Execute all configured stages and return the final output.

        Under an active tracer (``ctx.tracer`` or the globally installed
        one) the whole run sits inside a root ``pipeline`` span carrying
        the :meth:`explain` fields, with each operator contributing its
        own phase span — operators that already instrument themselves (the
        Selector, the collective converters, the cell-aggregating
        extractors) are not double-wrapped, and the explicit phase wrappers
        here cover custom operators that don't.  A fused run has the one
        ``FusedScan`` phase; its counted work is on the root span too.

        ``checkpoint_dir`` enables phase-level checkpoint-and-resume: the
        post-Selection and post-Conversion RDDs are persisted there (via
        :class:`~repro.engine.faults.PipelineCheckpoint`), and — when
        ``resume=True`` — a re-run resumes from the last phase whose
        checkpoint completed instead of recomputing everything upstream.
        Extraction output is the pipeline's *result*, not a phase, so it
        always runs.  ``resume=False`` keeps writing checkpoints but
        ignores existing ones (a forced clean run).
        """
        plan = self._lower(ctx, source, checkpoint_dir, self.selector, **select_kwargs)
        with self._root_span(ctx, plan) as root:
            return self._execute(ctx, plan, root, checkpoint_dir, resume)

    def run_incremental(
        self,
        ctx: EngineContext,
        source,
        state=None,
        since: float | None = None,
        use_metadata: bool = True,
    ):
        """Run over new-since-last-time blocks only — the same plan
        :meth:`run` executes, over less of the dataset.

        * **State mode** (pass the previous run's ``state``, or nothing to
          bootstrap): lowers over the blocks whose names the state has not
          seen (names are never reused), banks their partials by name,
          drops the names the manifest lost and reduces the bank in
          manifest order with ``tree_reduce``'s pairing — bit-identical to
          :meth:`run` over the same manifest with no partitioner.  The
          selector's shuffle knobs are ignored (one partial per on-disk
          block is the unit that is banked) and the extractor must be a
          :class:`~repro.core.extractors.base.CellAggExtractor`.
        * **Since mode** (pass ``since``, typically the watermark
          persisted before the latest ingests): stateless; :meth:`run`
          under the window narrowed to strictly after ``since``, so the
          ordinary metadata pruning and pushdown skip everything older.
          Records with end time exactly ``since`` are *excluded* (the
          watermark is the max end already ingested).

        Needs a dataset directory.  A traced call sits under the same root
        ``pipeline`` span as :meth:`run`.  Returns an
        :class:`~repro.stream.IncrementalRun`, whose ``result`` is ``None``
        when nothing has ever been selected.
        """
        from repro.core.extractors.base import CellAggExtractor

        if state is not None and since is not None:
            raise ValueError("pass state or since, not both")
        if not isinstance(source, (str, Path)):
            raise TypeError("run_incremental needs an on-disk dataset directory")
        if since is not None:
            nothing = IncrementalRun(None, None, 0, 0, 0)
            window = Duration(math.nextafter(since, math.inf), math.inf)
            if self.selector.temporal is not None:
                window = self.selector.temporal.intersection(window)
                if window is None:
                    return nothing  # the query ends at or before the watermark
            plan = self._lower(
                ctx, source, None, _replaced(self.selector, temporal=window), use_metadata
            )
            selected = plan.stats.partitions_selected
            if not selected:
                return nothing
            with self._root_span(ctx, plan) as root:
                result = self._execute(ctx, plan, root)
            return IncrementalRun(result, None, selected, selected, plan.stats.records_loaded)
        if not isinstance(self.extractor, CellAggExtractor):
            raise TypeError(
                "run_incremental needs a CellAggExtractor (an extractor with "
                f"mergeable partials); got {type(self.extractor).__name__}"
            )
        state = state if state is not None else StreamState()
        plan = self._lower(
            ctx, source, None, _replaced(self.selector, **_SHUFFLE_KNOBS),
            use_metadata, state.partials,
        )
        stats = plan.stats
        with self._root_span(ctx, plan) as root:
            new = {}
            if stats.partitions_selected:
                new = dict(zip(plan.data.filenames, self._block_partials(ctx, plan, root)))
            state = state.advanced(plan.meta, new)
            banked = state.banked()
            result = self._reduced(ctx, banked, 0) if banked else None
        if ctx.tracer is not None:
            ctx.tracer.counter("incremental_runs", 1)
            ctx.tracer.counter("incremental_blocks_new", stats.partitions_total)
            ctx.tracer.counter("incremental_blocks_selected", stats.partitions_selected)
        return IncrementalRun(
            result, state, stats.partitions_total, stats.partitions_selected, stats.records_loaded
        )
