"""Columnar kernels: the implementation of the pipeline's hot loops.

Selection filtering, partition routing, singular→collective allocation
and spec'd extraction each have exactly one execution path, and it runs
on the structure-of-arrays kernels in this package — a per-partition
:class:`BoxTable` (six float64 extent columns plus a row→instance
indirection) and what is built over it:

* :meth:`BoxTable.intersects_box` — vectorized closed-interval ST-range
  predicate (the selection filter with ``index=False``);
* :class:`PackedRTree` — STR bulk-load packed into per-level MBR arrays,
  queried level-at-a-time (the selection filter with an index, and the
  one cell index of every collective structure);
* batched partition-id assignment (``Partitioner.assign_batch``) feeding
  ``RDD.shuffle_by_batch``;
* an analytic row→cell range kernel for regular structures
  (``Grid.candidate_ranges_batch``);
* :class:`PointsTable` — a partition's trajectories as ragged point
  columns, with the exact trajectory↔cell refinement kernel of
  allocation and the any-point-in-range test of selection;
* extraction aggregation (:mod:`repro.columnar.aggregate`) — per-partition
  :class:`CellTable` partials built with scatter-add kernels and an
  :class:`AggSpec` per extractor, merged through ``RDD.tree_reduce``.  A
  spec with ``from_cells`` (counts) also builds its table from cell ids alone:
  what ``Pipeline``'s fused scan feeds it straight from a v2 block's
  mmapped extent columns, the scan's ``ScanWork`` counters riding along.

No flag selects any of this.  What does *not* run on arrays is decided by
the input, and is exact by construction:

* exact tests on shapes the kernels do not cover (cells that are not
  envelopes; LineString/Polygon and multi-entry instances) run one scalar
  call per candidate — the kernels only shrink the candidate set they run
  on, and rows whose MBR *is* their shape skip them entirely;
* an extractor that declares no ``agg_spec()``, and any partition whose
  ``spec.build()`` returns ``None`` (interval-valued entry durations,
  non-envelope transit cells), folds through the extractor's own
  ``local``/``merge``/``finalize``; where such a partial meets a
  :class:`CellTable` in the tree reduce, the table is demoted through
  ``AggSpec.partials`` bit-exactly.

``tests/reference.py`` holds the brute-force oracle (linear scans, per-
instance loops) the parity suites compare these kernels against.
"""

from __future__ import annotations

from repro.columnar.aggregate import (
    AggSpec,
    CellTable,
    CountSpec,
    FieldMeanSpec,
    PortionSpeedSpec,
    TransitSpec,
    WholeTrajSpeedSpec,
)
from repro.columnar.boxtable import BoxTable, intersects_box
from repro.columnar.cache import (
    PartitionIndexCache,
    configure_selection_cache,
    invalidate_partition_indexes,
    partition_boxtable,
    partition_packed_tree,
    seed_partition_boxtable,
    selection_cache,
)
from repro.columnar.packed_rtree import PackedRTree, packed_tree_from_boxes
from repro.columnar.pointstable import PointsTable


def selection_index(partition: list, with_tree: bool, capacity: int = 32):
    """The partition's cached columnar selection index.

    Returns ``(table, tree, was_cached)``; ``tree`` is ``None`` when
    ``with_tree`` is false (plain BoxTable scan selection).
    """
    if with_tree:
        return partition_packed_tree(partition, capacity=capacity)
    table, hit = partition_boxtable(partition)
    return table, None, hit


__all__ = [
    "AggSpec",
    "BoxTable",
    "CellTable",
    "CountSpec",
    "FieldMeanSpec",
    "PackedRTree",
    "PartitionIndexCache",
    "PointsTable",
    "PortionSpeedSpec",
    "TransitSpec",
    "WholeTrajSpeedSpec",
    "configure_selection_cache",
    "intersects_box",
    "invalidate_partition_indexes",
    "packed_tree_from_boxes",
    "partition_boxtable",
    "partition_packed_tree",
    "seed_partition_boxtable",
    "selection_cache",
    "selection_index",
]
