"""Three-stage pipeline composition helper.

Mirrors the end-to-end code shape of Section 3.4: a selector, an optional
converter, and an extractor are defined up front, then executed as a
pipeline.  Purely a convenience — each operator remains usable on its own.

A plan takes one of two physical paths — the *staged* operator chain over
RDDs of instances, or, for count aggregates over a dataset directory, one
*fused* column scan per block (:class:`_BlockScan`); :meth:`Pipeline.explain`
says which and why, and docs/architecture.md §12 has the lowering rule.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import Any

import numpy as np

from repro.columnar.aggregate import CellTable, ScanWork
from repro.core.selector import _refine
from repro.core.structures import TimeSeriesStructure
from repro.engine.context import EngineContext
from repro.obs.tracer import phase as _phase_span
from repro.stio.dataset import StDataset


#: Selector arguments (with their defaults) that only shape the staged
#: path's intermediate RDD; a fused run never materialises one.
_STAGED_ONLY_KNOBS = dict(partitioner=None, num_partitions=None, duplicate=False, index=True)


class _BlockScan:
    """One block → its ``CellTable`` partial: the whole fused stage.

    ``candidate_rows`` on the extent columns is the selection (exact for
    ``box_exact`` rows, as ``Selector._filter`` trusts) and
    ``_candidate_pairs`` on those extents the allocation (exact wherever
    ``_needs_exact`` is false: point rows on a regular raster / spatial
    map, ``box_exact`` rows on a time series).  A block holding any
    candidate the columns cannot decide decodes its candidate rows — only
    those — and runs the Selector's refine and ``allocate`` instead; both
    ways end in ``spec.from_cells``, so the reduce sees no difference.
    """

    def __init__(self, selector, converter, spec, structure):
        self.spatial = selector.spatial
        self.temporal = selector.temporal
        self.box = selector._query_box()
        self.method = converter.method
        self.spec = spec
        self.structure = structure  # the broadcast handle

    def __call__(self, block, codec: str) -> CellTable:
        # (imported here: ``repro.cli`` / the serve daemon load this module
        # but never the converter and extractor packages)
        from repro.core.converters.base import AllocationStats, _candidate_pairs, allocate

        structure = self.structure.value
        rows = block.candidate_rows(self.box) if block.filterable else np.arange(block.n)
        columns = (block.xmin, block.ymin, block.tmin, block.xmax, block.ymax, block.tmax)
        extents = np.stack([column[rows] for column in columns])
        exact = block.box_exact[rows] & block.filterable
        decided = exact
        if not isinstance(structure, TimeSeriesStructure):
            points = (extents[0] == extents[3]) & (extents[1] == extents[4])
            decided = exact & points & structure.is_regular
        stats = AllocationStats()
        decoded = nbytes = 0
        if not len(rows):
            cells = rows
        elif decided.all():
            _, cells, tests = _candidate_pairs(structure, self.method, extents)
            stats.add(len(rows), tests, 0, len(cells))
        else:
            candidates = block.decode_rows(rows, codec)
            decoded, nbytes = len(rows), block.payload_nbytes(rows)
            inexact = np.flatnonzero(~exact)
            exact[inexact] = _refine(
                [candidates[k] for k in inexact.tolist()], self.spatial, self.temporal
            )
            selected = [candidates[k] for k in np.flatnonzero(exact).tolist()]
            members = allocate(selected, structure, self.method, stats)
            cells = np.repeat(np.arange(structure.n_cells), [len(m) for m in members])
        work = ScanWork(
            1, block.n, len(rows), decoded, block.index_nbytes + nbytes,
            stats.instances, stats.candidate_tests, stats.exact_tests, stats.allocations,
        )
        return self.spec.from_cells(cells, structure.n_cells, type(structure).__name__, work)

    def skipped(self, filename: str | None = None) -> CellTable:
        """The zero partial: of a quarantined block, or of no block at all."""
        structure = self.structure.value
        work = ScanWork(quarantined=(filename,) if filename else ())
        return self.spec.from_cells(
            np.empty(0, dtype=np.int64), structure.n_cells, type(structure).__name__, work
        )


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

    def _lower(self, source, checkpoint_dir=None):
        """``(path, reason, dataset)`` — the one place that picks fused vs staged.

        Fused needs every stage to be the library's own: a customised one
        (``convert`` overridden to pass ``pre_map``/``agg``, no ``agg_spec``
        with ``from_cells``), a ``checkpoint_dir`` or a pickle-codec dataset
        runs staged.  ``dataset``: the opened directory source.
        """
        from repro.core.converters.base import ToCollectiveConverter
        from repro.core.extractors.base import CellAggExtractor

        converter, extractor = self.converter, self.extractor
        dataset = StDataset(source) if isinstance(source, (str, Path)) else None
        spec = extractor.agg_spec() if isinstance(extractor, CellAggExtractor) else None
        if checkpoint_dir is not None:
            reason = "checkpoint_dir persists the per-phase RDDs"
        elif dataset is None:
            reason = "source is not a dataset directory"
        elif (
            not isinstance(converter, ToCollectiveConverter)
            or type(converter).convert is not ToCollectiveConverter.convert
        ):
            reason = "converter is not a plain singular→collective converter"
        elif not hasattr(spec, "from_cells"):
            reason = "extractor is not an order-free integer cell aggregate"
        elif (codec := dataset.cached_metadata().codec) != "tuple":
            reason = f"dataset codec is {codec!r}, not 'tuple'"
        else:
            return "fused", "count aggregate over a dataset: one column scan per block", dataset
        return "staged", reason, dataset

    def explain(self, ctx: EngineContext, source, checkpoint_dir=None, **select_kwargs) -> dict:
        """Which physical path :meth:`run` would take, without running it.

        ``{"path": "fused" | "staged", "reason": ..., "blocks_total": ...,
        "blocks_selected": ..., "ignored": [...]}`` — the block counts are the
        metadata pruning of a directory source (``None`` for an RDD or a
        list); ``ignored`` names the selector arguments a fused plan leaves
        without effect though they were set (empty on a staged plan).
        """
        path, reason, dataset = self._lower(source, checkpoint_dir)
        sel = self.selector
        total = selected = None
        if dataset is not None:
            _, stats = dataset.read(ctx, sel.spatial, sel.temporal, **select_kwargs)
            total, selected = stats.partitions_total, stats.partitions_selected
        ignored = []
        if path == "fused":
            knobs = _STAGED_ONLY_KNOBS.items()
            ignored = [knob for knob, default in knobs if getattr(sel, knob) is not default]
        return dict(
            path=path, reason=reason, blocks_total=total, blocks_selected=selected, ignored=ignored
        )

    # -- the fused path -------------------------------------------------------------

    def _fused_scan(self, ctx: EngineContext, dataset, reduce: bool, **select_kwargs):
        """Run the fused stage over ``dataset``'s selected blocks.

        Returns the tree-reduced table (the zero table when nothing is
        selected) or, ``reduce=False``, the per-block tables in block order;
        notes the work they carried back on the selector's ``LoadStats``,
        ``converter.stats`` and the phase span.
        """
        sel, converter = self.selector, self.converter
        for probes in (sel.rtree_probes, sel.index_cache_hits, sel.index_cache_misses):
            probes.reset()  # a column scan builds and probes no R-tree
        with _phase_span("FusedScan", ctx.tracer) as span:
            structure = converter.broadcast_structure(ctx)
            scan = _BlockScan(sel, converter, self.extractor.agg_spec(), structure)
            rdd, stats = dataset.read(
                ctx, sel.spatial, sel.temporal,
                on_corrupt=sel.on_corrupt, scan=scan, **select_kwargs,
            )
            sel.last_load_stats = stats
            with ctx.using_backend(sel.backend) if sel.backend else nullcontext():
                if not stats.partitions_selected:
                    result = scan.skipped() if reduce else []
                elif reduce:
                    result = rdd.tree_reduce(
                        CellTable.merge, depth=self.extractor.reduce_depth
                    )
                else:
                    result = [p[0] for p in rdd._collect_partitions()]
            work = result.work if reduce else sum((t.work for t in result), ScanWork())
            stats.note_scan(work)
            converter.stats.add(
                work.instances, work.candidate_tests, work.exact_tests, work.allocations
            )
            if span is not None:
                sel._record_phase_counters(ctx, span, from_disk=True)
                span.args.update(work._asdict())
        return result

    def _shell(self, table: CellTable):
        """Merged table → the finalized collective instance (driver-side)."""
        return self.converter.structure.instance_of(
            self.extractor.agg_spec().finalize(table)
        )

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
        tracer = ctx.tracer
        root = (
            tracer.span("pipeline", "pipeline", default_scope=True)
            if tracer is not None
            else nullcontext()
        )
        path, _, dataset = self._lower(source, checkpoint_dir)
        ckpt = None
        if checkpoint_dir is not None:
            from repro.engine.faults import PipelineCheckpoint

            ckpt = PipelineCheckpoint(checkpoint_dir, ctx)
        with root as span:
            if span is not None:
                span.args.update(self.explain(ctx, source, checkpoint_dir, **select_kwargs))
            if path == "fused":
                table = self._fused_scan(ctx, dataset, reduce=True, **select_kwargs)
                if span is not None:
                    span.args.update(table.work._asdict())
                return self._shell(table)
            data = None
            conversion_done = False
            if ckpt is not None and resume:
                if self.converter is not None and ckpt.has(self.CONVERSION_PHASE):
                    data = ckpt.load(self.CONVERSION_PHASE)
                    conversion_done = True
                elif ckpt.has(self.SELECTION_PHASE):
                    data = ckpt.load(self.SELECTION_PHASE)
            if data is None:
                data = self.selector.select(ctx, source, **select_kwargs)
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

    def run_incremental(
        self,
        ctx: EngineContext,
        source,
        state=None,
        since: float | None = None,
        use_metadata: bool = True,
    ):
        """Run over new-since-last-time blocks only; see
        :func:`repro.stream.run_incremental`.

        State mode (pass the previous run's ``state``, or nothing to
        bootstrap) banks per-block partials and returns features over
        everything consumed so far — bit-identical to :meth:`run` over
        the union (the extractor must be a
        :class:`~repro.core.extractors.base.CellAggExtractor`; the
        selector's partitioner, a shuffle-balance knob, is ignored).
        Since mode (pass ``since``, typically the persisted watermark)
        statelessly extracts just the post-``since`` slice.  Both lower
        exactly as :meth:`run` does.  Returns an
        :class:`~repro.stream.IncrementalRun`.
        """
        from repro.stream.incremental import run_incremental

        return run_incremental(
            self,
            ctx,
            source,
            state=state,
            since=since,
            use_metadata=use_metadata,
        )
