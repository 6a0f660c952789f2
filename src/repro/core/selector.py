"""The Selection stage (paper Section 3.1).

The selector loads ST data into memory, filters it by the query's ST
range, and repartitions the survivors with an ST-aware partitioner:

1. **load** — from an on-disk :class:`~repro.stio.StDataset` (with
   metadata pruning when available, Section 4.1), an existing RDD, or a
   plain list;
2. **filter** — each partition builds a packed 3-d R-tree over its
   extent columns on-the-fly and queries it with the ST range, then
   refines the candidates with the exact predicate — on point columns
   for trajectories, per instance for other inexact shapes
   (``index=False`` scans the extent columns instead);
3. **partition** — the survivors are re-shuffled by the configured
   partitioner.  Filtering *before* partitioning is the paper's explicit
   design choice: the full executor pool participates in selection, and
   only the (smaller) selected set is shuffled.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.columnar.packed_rtree import PackedRTree
from repro.columnar.pointstable import PointsTable
from repro.engine.accumulators import Accumulator, counter
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox, st_query_box
from repro.instances.base import Instance
from repro.obs.tracer import phase as _phase_span
from repro.stio.dataset import LoadStats, StDataset
from repro.temporal.duration import Duration

if TYPE_CHECKING:  # pragma: no cover
    from repro.partitioners.base import STPartitioner


def select_candidates(candidates: list, exact, spatial, temporal) -> list:
    """The box-test ``candidates`` that lie in the ST range, in order.

    ``exact`` marks the candidates the box test already decided (their MBR
    is their shape); the rest get the exact verdict — one point-in-range
    pass over the point columns of the trajectories, ``Instance.intersects``
    per instance for the other shapes, an unconstrained dimension being
    unbounded.  Every selection ends here: the Selector's per-partition
    filter, a fused scan's decoding fallback and the serve daemon's
    resident blocks.
    """
    keep = np.array(exact, dtype=bool)
    inexact = np.flatnonzero(~keep)
    if len(inexact):
        rest = [candidates[k] for k in inexact.tolist()]
        inf = math.inf
        x0, y0, x1, y1 = (
            (spatial.min_x, spatial.min_y, spatial.max_x, spatial.max_y)
            if spatial is not None
            else (-inf, -inf, inf, inf)
        )
        t0, t1 = (temporal.start, temporal.end) if temporal is not None else (-inf, inf)
        points = PointsTable.from_instances(rest)
        verdict = points.rows_with_point_in(x0, y0, t0, x1, y1, t1)
        for k in np.flatnonzero(~points.is_trajectory).tolist():
            inst = rest[k]
            verdict[k] = inst.intersects(
                spatial if spatial is not None else inst.spatial_extent,
                temporal if temporal is not None else inst.temporal_extent,
            )
        keep[inexact] = verdict
    return [candidates[k] for k in np.flatnonzero(keep).tolist()]


class Selector:
    """Select instances in an ST range and balance them across partitions.

    Mirrors the paper's API::

        selector = Selector(city_area, month, partitioner=TSTRPartitioner(8, 16))
        rdd = selector.select(ctx, data_dir)

    Parameters
    ----------
    spatial, temporal:
        The query range.  Either may be ``None`` (unconstrained).
    num_partitions:
        Parallelism of the selected RDD when no partitioner is given.
    partitioner:
        An :class:`~repro.partitioners.STPartitioner`; when provided, the
        selected data is ST-partitioned with it.
    index:
        Use per-partition R-tree filtering (on by default; ``False``
        degrades to a vectorized scan of the partition's extent columns —
        the toggle in the paper's Selector constructor).
    backend:
        Run the selection on a dedicated execution backend
        (``"sequential"`` | ``"thread"`` | ``"process"``).  Selection is
        the scan-heavy stage, so it pays for parallelism even when the
        rest of the pipeline stays sequential.  Because a backend override
        cannot outlive ``select()``, the result is materialized eagerly
        under that backend and returned as a source RDD.  ``None`` (the
        default) keeps the context's backend and the usual lazy result.
    on_corrupt:
        What an undecodable on-disk block does during a from-disk select:
        ``"raise"`` (default) aborts with
        :class:`~repro.engine.errors.CorruptPartitionError`;
        ``"quarantine"`` skips the block, loading it as an empty partition
        and counting it in ``LoadStats.partitions_quarantined`` (surfaced
        as a ``partitions_quarantined`` trace counter).
    """

    def __init__(
        self,
        spatial: Envelope | None = None,
        temporal: Duration | None = None,
        num_partitions: int | None = None,
        partitioner: "STPartitioner | None" = None,
        index: bool = True,
        duplicate: bool = False,
        backend: str | None = None,
        on_corrupt: str = "raise",
    ):
        if spatial is None and temporal is None:
            raise ValueError("a selector needs a spatial and/or temporal range")
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError("on_corrupt must be 'raise' or 'quarantine'")
        self.spatial = spatial
        self.temporal = temporal
        self.num_partitions = num_partitions
        self.partitioner = partitioner
        self.index = index
        self.duplicate = duplicate
        self.backend = backend
        self.on_corrupt = on_corrupt
        #: I/O statistics of the last ``select`` from disk (Figure 5 data).
        self.last_load_stats: LoadStats | None = None
        #: R-tree probe work of the last ``select``: node + entry tests
        #: across every per-partition index query.  An accumulator because
        #: the trees are task-local; the winning attempts' adds reach it
        #: once, on every backend.
        self.rtree_probes: Accumulator[int] = counter("rtree_probes")

    # -- filtering ------------------------------------------------------------------

    def _query_box(self) -> STBox:
        # The same canonical box the metadata index prunes with — shared
        # construction is what keeps pruned and full-scan loads equivalent.
        return st_query_box(self.spatial, self.temporal)

    def _filter(self, rdd: RDD) -> RDD:
        spatial = self.spatial
        temporal = self.temporal
        box = self._query_box()
        use_index = self.index
        probes = self.rtree_probes

        def filter_partition(partition: list) -> list:
            if not partition:
                return []
            table = BoxTable.from_instances(partition)
            if use_index:
                # Built on the fly per partition and call (§3.1).
                tree = PackedRTree(*table.coords(), capacity=32)
                rows = tree.query_rows(box)
                probes.add(tree.stats.node_tests + tree.stats.entry_tests)
            else:
                rows = table.candidate_rows(box)
            # Rows come back in partition order (downstream sampling —
            # e.g. partitioner fitting — is order-sensitive).  The exact
            # predicate runs only on the vectorized candidate set, and is
            # skipped entirely where the MBR *is* the shape.
            return select_candidates(
                [partition[r] for r in rows.tolist()], table.box_exact[rows], spatial, temporal
            )

        return rdd.map_partitions(filter_partition)

    # -- the public API ------------------------------------------------------------------

    def select(
        self,
        ctx: EngineContext,
        source: "str | Path | RDD | Sequence[Instance]",
        use_metadata: bool = True,
    ) -> RDD:
        """Load, filter, and (optionally) ST-partition.

        ``source`` may be a dataset directory (metadata-pruned when
        ``use_metadata``), an RDD, or a plain instance list.
        """
        stats = None
        if isinstance(source, (str, Path)):
            source, stats = StDataset(source).read(
                ctx,
                self.spatial,
                self.temporal,
                use_metadata=use_metadata,
                on_corrupt=self.on_corrupt,
            )
        elif not isinstance(source, RDD):
            source = ctx.parallelize(
                list(source), self.num_partitions or ctx.default_parallelism
            )
        return self.select_loaded(ctx, source, stats)

    def select_loaded(
        self, ctx: EngineContext, loaded: RDD, stats: LoadStats | None = None
    ) -> RDD:
        """:meth:`select` past the load: filter ``loaded`` and (optionally)
        ST-partition it.  ``stats`` is the accounting of the
        :meth:`StDataset.read <repro.stio.dataset.StDataset.read>` that
        produced ``loaded`` — how a pipeline that already pruned the
        dataset while lowering hands its read over.

        Under an active tracer the whole selection runs eagerly inside a
        "Selection" phase span (profiling moves the evaluation boundary —
        otherwise all the scan work would be billed to whatever action
        later forces the lineage) and the phase counters — partitions
        pruned vs scanned, R-tree probes — are recorded.
        """
        with _phase_span("Selection", ctx.tracer) as span:
            self.rtree_probes.reset()
            if stats is not None:
                self.last_load_stats = stats
            selected = self._filter(loaded)
            if self.partitioner is not None:
                selected = self.partitioner.partition(
                    selected, duplicate=self.duplicate
                )
            elif (
                self.num_partitions is not None
                and self.num_partitions != selected.num_partitions
            ):
                selected = selected.repartition(self.num_partitions)
            if self.backend is not None:
                # Dedicated-backend selection is eager: the override is
                # scoped to this call, so the scan must run now, not at a
                # later action.
                with ctx.using_backend(self.backend):
                    partitions = selected._collect_partitions()
                selected = ctx.from_partitions(partitions)
            elif span is not None:
                selected = ctx.from_partitions(selected._collect_partitions())
            if span is not None:
                self._record_phase_counters(ctx.tracer, from_disk=stats is not None)
        return selected

    def _record_phase_counters(self, tracer, from_disk: bool) -> None:
        """Count the R-tree probes and, for a dataset read, the load's
        pruning on the open phase span."""
        tracer.counter(self.rtree_probes.name, self.rtree_probes.value)
        stats = self.last_load_stats if from_disk else None
        if stats is not None:
            tracer.counter("partitions_scanned", stats.partitions_selected)
            tracer.counter("partitions_pruned", stats.partitions_total - stats.partitions_selected)
            tracer.counter("records_loaded", stats.records_loaded)
            tracer.counter("bytes_read", stats.bytes_read)
            if stats.partitions_quarantined:
                tracer.counter("partitions_quarantined", stats.partitions_quarantined)
