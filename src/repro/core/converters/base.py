"""Shared allocation machinery for singular→collective conversions."""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.columnar.pointstable import PointsTable
from repro.engine.accumulators import Sink, reported
from repro.engine.rdd import RDD
from repro.geometry.base import Geometry
from repro.obs.tracer import phase as _phase_span
from repro.geometry.linestring import LineString
from repro.instances.base import Instance
from repro.instances.event import Event
from repro.instances.trajectory import Trajectory
from repro.core.structures import (
    RasterStructure,
    SpatialMapStructure,
    Structure,
    TimeSeriesStructure,
)
from repro.temporal.duration import Duration


class AllocationStats(Sink):
    """Counts the work a conversion performed.

    ``candidate_tests`` is the number of instance↔cell pairings examined
    (for the naive strategy this is m*n; the Section 4.2 optimizations
    shrink it), ``exact_tests`` the number that needed a full geometric
    intersection.  These counters are what the Figure 6 benchmark reports
    next to wall-clock; tasks add to them through the sink channel, so
    they are exact on every backend.
    """

    def __init__(self) -> None:
        super().__init__()
        self.instances = 0
        self.candidate_tests = 0
        self.exact_tests = 0
        self.allocations = 0

    @reported
    def add(self, instances: int, candidates: int, exact: int, allocations: int) -> None:
        """Accumulate one allocation batch's counters (thread-safe)."""
        with self._lock:
            self.instances += instances
            self.candidate_tests += candidates
            self.exact_tests += exact
            self.allocations += allocations

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.instances = 0
            self.candidate_tests = 0
            self.exact_tests = 0
            self.allocations = 0

    def snapshot(self) -> dict:
        """Counters as a plain dict."""
        return {
            "instances": self.instances,
            "candidate_tests": self.candidate_tests,
            "exact_tests": self.exact_tests,
            "allocations": self.allocations,
        }


def _is_primary(instance: Instance) -> bool:
    """False only for the tagged replicas of duplicate-mode partitioning."""
    return getattr(instance, "dup_primary", True)


def _matches_cell(instance: Instance, geom: Geometry | None, dur: Duration | None) -> bool:
    """Exact instance↔cell intersection.

    * events: one entry test;
    * trajectories: any point entry matches, or any consecutive segment
      (whose time span overlaps the cell duration) crosses the geometry —
      so a fast-moving vehicle that crosses a cell between two samples is
      still allocated to it;
    * other instances: any entry matches.
    """
    if isinstance(instance, Trajectory):
        entries = instance.entries
        for e in entries:
            if (dur is None or dur.intersects(e.temporal)) and (
                geom is None or geom.intersects(e.spatial)
            ):
                return True
        for a, b in zip(entries, entries[1:]):
            span = Duration(a.temporal.start, max(a.temporal.start, b.temporal.end))
            if dur is not None and not dur.intersects(span):
                continue
            if geom is None:
                return True
            if (a.spatial.x, a.spatial.y) == (b.spatial.x, b.spatial.y):
                continue  # point entries already checked
            segment = LineString(
                [(a.spatial.x, a.spatial.y), (b.spatial.x, b.spatial.y)]
            )
            if geom.intersects(segment):
                return True
        return False
    for e in instance.entries:
        if (dur is None or dur.intersects(e.temporal)) and (
            geom is None or geom.intersects(e.spatial)
        ):
            return True
    return False


def _needs_exact(instance: Instance, structure: Structure) -> bool:
    """Can the MBR candidate set be trusted without an exact pass?

    Following Section 4.2: the exact pass is skippable when the instance's
    MBR equals its shape (points, envelopes) *and* the structure cells are
    themselves boxes — always true for time series (pure intervals) and for
    regular spatial/raster structures with box cells.
    """
    if isinstance(structure, TimeSeriesStructure):
        # Durations are exactly their 1-d boxes; trajectories' entry
        # timestamps densely cover their extent at entry level, but an MBR
        # candidate may fall between samples — keep exactness for them.
        return isinstance(instance, Trajectory)
    cell_shapes_are_boxes = structure.is_regular
    if isinstance(instance, Event) and instance.spatial.is_point and cell_shapes_are_boxes:
        return False
    return True


def _candidate_pairs(structure: Structure, method: str, extents):
    """Every ``(instance row, candidate cell)`` pairing, row-major.

    Returns ``(rows, cells, candidate_tests)``.  The pairs are Section
    4.2's knob: the grid range kernel expanded in C-order (regular), the
    packed R-tree over cells (rtree), or a vectorized full scan (naive —
    charged every cell per instance, whatever it finds).
    """
    n = extents.shape[1]
    if method == "auto":
        method = "regular" if structure.is_regular else "rtree"
    if method == "regular":
        if not structure.is_regular:
            raise ValueError("regular method requires a regular structure")
        qmins, qmaxs = structure._batch_grid_arrays(*extents)
        firsts, lasts = structure._grid.candidate_ranges_batch(qmins, qmaxs)
        # The candidate count of a range query is the product of its
        # per-dimension widths; an empty dimension zeroes it.
        widths = np.clip(lasts - firsts + 1, 0, None)
        counts = widths.prod(axis=1)
        rows = np.repeat(np.arange(n), counts)
        # q: position of each pair inside its row's range product.
        q = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        cells = np.zeros(len(rows), dtype=np.int64)
        stride = 1
        for d in reversed(range(len(structure._grid.shape))):
            width = widths[rows, d]
            cells += (firsts[rows, d] + q % width) * stride
            q //= width
            stride *= structure._grid.shape[d]
        return rows, cells, len(rows)
    qmins, qmaxs = structure._batch_query_arrays(*extents)
    if method == "rtree":
        tree = structure.packed_rtree()
        found = [tree.query_coords(qmins[i], qmaxs[i]) for i in range(n)]
    elif method == "naive":
        cmins, cmaxs = structure._cell_box_arrays()
        found = [
            np.nonzero(np.all((cmins <= qmaxs[i]) & (cmaxs >= qmins[i]), axis=1))[0]
            for i in range(n)
        ]
    else:
        raise ValueError(f"unknown allocation method {method!r}")
    rows = np.repeat(np.arange(n), [len(f) for f in found])
    cells = np.concatenate(found)
    return rows, cells, (n * structure.n_cells if method == "naive" else len(cells))


def allocate_pairs(table: PointsTable, structure: Structure, method="auto", stats=None,
                   instances: Sequence[Instance] | None = None):
    """The ``(row, cell)`` pairs that intersect, row-major, over the rows of
    ``table`` — :func:`allocate` before its group-by-cell.

    Candidate pairs by ``method`` (:func:`_candidate_pairs`), then a keep
    verdict per pair: nothing to test where :func:`_needs_exact` is false;
    :meth:`PointsTable.intersects_boxes` for trajectories against box cells;
    scalar :func:`_matches_cell` only for what the input forces — cells that
    are not envelopes, non-trajectory instances that need exactness.
    ``instances`` are the rows' instances; ``None`` says every row is a
    trajectory with no object behind it (a fused scan's table).
    """
    n = table.extents.shape[1]
    if not n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows, found, candidate_tests = _candidate_pairs(structure, method, table.extents)
    exact = np.ones(len(rows), dtype=bool)
    if instances is not None:
        needs = np.fromiter(
            (_needs_exact(inst, structure) for inst in instances), dtype=bool, count=n
        )
        exact = needs[rows]
    keep = ~exact
    if exact.any():
        boxes, is_box = structure._cell_st_boxes()
        arrays = exact & table.is_trajectory[rows] & is_box[found]
        k = np.flatnonzero(arrays)
        keep[k] = table.intersects_boxes(
            rows[k],
            boxes[:, found[k]],
            spatial=not isinstance(structure, TimeSeriesStructure),
        )
        for p in np.flatnonzero(exact & ~arrays).tolist():
            geom, dur = _cell_bounds(structure, found[p])
            keep[p] = _matches_cell(instances[rows[p]], geom, dur)
        rows, found = rows[keep], found[keep]
    if stats is not None:
        stats.add(n, candidate_tests, int(exact.sum()), len(rows))
    return rows, found


def allocate(
    instances: Sequence[Instance],
    structure: Structure,
    method: str = "auto",
    stats: AllocationStats | None = None,
) -> list[list[Instance]]:
    """Assign each instance to every structure cell it intersects.

    Returns ``cells`` with ``cells[i]`` the list of instances allocated to
    cell ``i``, in partition order.  One sequence whatever the ``method``:
    extents, which also lay the trajectories out as point columns
    (:class:`PointsTable`); the intersecting pairs (:func:`allocate_pairs`);
    a stable group-by-cell of them.
    """
    n_cells = structure.n_cells
    cells: list[list[Instance]] = [[] for _ in range(n_cells)]
    table = PointsTable.from_instances(instances)
    rows, found = allocate_pairs(table, structure, method, stats, instances)
    order = np.argsort(found, kind="stable")
    members = [instances[r] for r in rows[order].tolist()]
    sizes = np.bincount(found, minlength=n_cells)
    starts = np.cumsum(sizes) - sizes
    for cell in np.flatnonzero(sizes).tolist():
        cells[cell] = members[starts[cell] : starts[cell] + sizes[cell]]
    return cells


def _cell_bounds(structure: Structure, cell: int):
    """(geometry, duration) pair of a cell, with None for ignored dims."""
    if isinstance(structure, TimeSeriesStructure):
        return (None, structure.slots[cell])
    if isinstance(structure, SpatialMapStructure):
        return (structure.geometries[cell], None)
    if isinstance(structure, RasterStructure):
        geom, dur = structure.cells[cell]
        return (geom, dur)
    raise TypeError(f"unknown structure type {type(structure).__name__}")


class ToCollectiveConverter:
    """Base of the six singular→collective converters.

    Constructed from a structure of the subclass's ``structure_type`` or
    from the plain cell sequence to build one from.  ``convert`` follows
    the paper's execution plan exactly: the structure (and its packed
    R-tree, when irregular) is broadcast once; each partition then
    allocates its local instances and applies ``agg`` per cell — no data
    shuffle, per-partition output is one partial collective instance.
    """

    #: Structure kind the constructor coerces a plain cell sequence into
    #: (each of the six public converters names its own).
    structure_type: type[Structure] = Structure

    def __init__(self, cells_or_structure, method: str = "auto"):
        if not isinstance(cells_or_structure, self.structure_type):
            cells_or_structure = self.structure_type(list(cells_or_structure))
        self.structure = cells_or_structure
        self.method = method
        self.stats = AllocationStats()

    def broadcast_structure(self, ctx):
        """Broadcast the structure, every lazily cached cell array prebuilt:
        once on the "driver", not per executor (Section 4.2), and *before*
        the broadcast — its value must not change under its tasks (REPRO109).
        """
        structure = self.structure
        structure._cell_box_arrays()  # builds _cell_st_boxes on the way
        if self.method == "rtree" or (
            self.method == "auto" and not structure.is_regular
        ):
            structure.packed_rtree()
        return ctx.broadcast(structure, record_count=structure.n_cells)

    def convert(
        self,
        rdd: RDD,
        pre_map: Callable[[Instance], Instance] | None = None,
        agg: Callable[[list[Instance]], Any] | None = None,
    ) -> RDD:
        """RDD of singular instances → RDD of partial collective instances.

        * ``pre_map`` — per-instance transformation applied in parallel
          before allocation (the paper's ``preMap`` extension point);
        * ``agg`` — per-cell aggregation of the allocated array (the
          paper's ``agg``); when omitted, cell values are the raw arrays.

        Under an active tracer the conversion runs eagerly inside a
        "Conversion" phase span, so its allocation work is billed to this
        phase rather than to whatever action later forces the lineage.
        """
        with _phase_span("Conversion", rdd.ctx.tracer) as span:
            # Duplicate-mode selection replicates boundary instances into
            # every overlapping partition; collective aggregation must see
            # each instance exactly once, so the tagged replicas are
            # dropped before anything else (before ``pre_map``, which may
            # rebuild instances and lose the tag).  The primary copy is
            # allocated wherever it lives — structure cells are
            # partition-independent.
            rdd = rdd.filter(_is_primary)
            if pre_map is not None:
                rdd = rdd.map(pre_map)
            broadcast = self.broadcast_structure(rdd.ctx)
            method = self.method
            stats = self.stats

            def fill(partition: list) -> list:
                structure = broadcast.value
                cell_arrays = allocate(partition, structure, method, stats)
                if agg is not None:
                    values = [agg(arr) for arr in cell_arrays]
                else:
                    values = cell_arrays
                return [structure.instance_of(values)]

            converted = rdd.map_partitions(fill)
            if span is not None:
                converted = rdd.ctx.from_partitions(
                    converted._collect_partitions()
                )
                span.args.update(cells=self.structure.n_cells, **self.stats.snapshot())
        return converted

    def convert_merged(
        self,
        rdd: RDD,
        pre_map: Callable[[Instance], Instance] | None = None,
        combine: Callable[[Any, Any], Any] | None = None,
    ):
        """Convert and fold the per-partition partials into one instance.

        Default ``combine`` concatenates cell arrays, appropriate when no
        ``agg`` collapsed them.
        """
        merge = combine or (lambda a, b: a + b)
        with _phase_span("Conversion", rdd.ctx.tracer):
            partials = self.convert(rdd, pre_map=pre_map)
            return partials.reduce(lambda x, y: x.merge_with(y, merge))
