"""Columnar extraction kernels: SoA cell aggregation for CellAggExtractor.

A :class:`CellTable` is a partial as dense numpy columns keyed by cell id,
built with scatter-add kernels (``np.bincount``) and merged with
elementwise column ops; an :class:`AggSpec` compiles one extractor's
``local``/``merge``/``finalize`` to it — :meth:`AggSpec.build` (one
partition's partial instance → its table, never declining),
:meth:`CellTable.merge`, :meth:`AggSpec.finalize`.  A spec with a column
kernel also builds its table without any instance: ``from_cells`` (counts,
from allocated cell ids) and ``from_points`` (trajectory speeds, from a
:class:`~repro.columnar.pointstable.PointsTable` and the allocated pairs) —
what a fused block scan calls.

Exactness contract: every kernel reproduces the scalar path bit for bit.
``np.bincount`` accumulates its weights *sequentially in input order*, so
a cell's values add up in pair order; a segment's length is one scalar
``haversine_distance`` call; a portion's length is Python's ``sum`` of
its segments (numpy's pairwise reductions — ``reduceat`` included —
associate differently and are avoided).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.columnar.packed_rtree import _concat_ranges
from repro.columnar.pointstable import PointsTable
from repro.geometry.distance import haversine_distance
from repro.geometry.envelope import Envelope
from repro.instances.event import Event
from repro.instances.trajectory import Trajectory

__all__ = [
    "AggSpec",
    "CellTable",
    "CountSpec",
    "FieldMeanSpec",
    "PortionSpeedSpec",
    "TransitSpec",
    "WholeTrajSpeedSpec",
    "cell_counts",
    "scatter_count",
    "scatter_sum",
]


# -- scatter kernels -----------------------------------------------------------


def cell_counts(entries: Sequence, n_cells: int):
    """``len(entry.value)`` per cell as an int64 column."""
    return np.fromiter((len(e.value) for e in entries), np.int64, count=n_cells)


def scatter_sum(cell_ids, weights, n_cells: int):
    """Per-cell sum of ``weights`` grouped by ``cell_ids`` (float64).

    ``np.bincount`` accumulates sequentially in input order, so emitting
    pairs cell-major makes this bit-identical to the scalar per-cell fold.
    """
    return np.bincount(cell_ids, weights=weights, minlength=n_cells)


def scatter_count(cell_ids, n_cells: int):
    """Occurrences per cell (int64)."""
    return np.bincount(cell_ids, minlength=n_cells).astype(np.int64, copy=False)


_COMBINE_OPS = ("sum", "min", "max")


class CellTable:
    """A dense per-partition extraction partial in SoA form.

    ``columns`` maps a column name to a length-``n_cells`` numpy array;
    ``ops`` maps each column to its cross-partial combine op (``sum`` /
    ``min`` / ``max``).  Tables are immutable once built: ``merge``
    returns a new table and may alias unmodified input columns.

    ``kind`` records the collective-instance type the table was built
    from, standing in for the per-cell structure-equality checks the
    scalar ``merge_with`` performs (partials of one extraction share the
    single broadcast structure, so type + cell count is the invariant
    worth checking here).  ``rows`` and ``partials`` feed the obs
    counters: total (cell, value) pairs aggregated, and how many
    per-instance partials were folded in.
    """

    __slots__ = ("n_cells", "columns", "ops", "kind", "rows", "partials")

    def __init__(
        self,
        n_cells: int,
        columns: dict,
        ops: dict,
        kind: str,
        rows: int = 0,
        partials: int = 1,
    ):
        for name, op in ops.items():
            if op not in _COMBINE_OPS:
                raise ValueError(f"unknown combine op {op!r} for column {name!r}")
        self.n_cells = n_cells
        self.columns = columns
        self.ops = ops
        self.kind = kind
        self.rows = rows
        self.partials = partials

    @property
    def nbytes(self) -> int:
        """Total column payload bytes (what a shipped partial weighs)."""
        return sum(col.nbytes for col in self.columns.values())

    def merge(self, other: "CellTable") -> "CellTable":
        """Vectorized cross-partial combine (the columnar ``merge``).

        Columns present on one side only are kept as-is for the left
        table and zero-seeded (``0 + column``) for the right — exactly
        mirroring the scalar dict-merge convention of e.g. the
        air-quality extractor, where ``a``'s fields pass through
        untouched and ``b``'s new fields land on ``sums.get(f, 0.0)``.
        """
        if self.kind != other.kind:
            raise TypeError("can only merge cell tables of the same instance type")
        if self.n_cells != other.n_cells:
            raise ValueError("cannot merge cell tables with different cell counts")
        columns: dict = {}
        ops = dict(self.ops)
        for name, a in self.columns.items():
            b = other.columns.get(name)
            if b is None:
                columns[name] = a
                continue
            op = self.ops[name]
            if op == "sum":
                columns[name] = a + b
            elif op == "min":
                columns[name] = np.minimum(a, b)
            else:
                columns[name] = np.maximum(a, b)
        for name, b in other.columns.items():
            if name in columns:
                continue
            ops[name] = other.ops[name]
            columns[name] = (b.dtype.type(0) + b) if other.ops[name] == "sum" else b
        return CellTable(
            self.n_cells,
            columns,
            ops,
            self.kind,
            rows=self.rows + other.rows,
            partials=self.partials + other.partials,
        )


# -- agg specs -----------------------------------------------------------------


class AggSpec(ABC):
    """Columnar compilation of one extractor's local/merge/finalize."""

    @abstractmethod
    def build(self, instance) -> CellTable:
        """One partial collective instance → its CellTable."""

    @abstractmethod
    def finalize(self, table: CellTable) -> list:
        """Merged CellTable → per-cell features, in cell order."""


def _pair_layout(entries, type_check) -> tuple:
    """``(cells, rows, values)`` of a collective instance's (cell, value)
    pairs: pair ``p`` puts ``values[rows[p]]`` in cell ``cells[p]``, pairs
    cell-major and values in cell order — the scalar path's scan order.  A
    value held by several cells (one object) is one row; each is checked
    with ``type_check``.
    """
    cells, rows, values, row_of = [], [], [], {}
    for cell, entry in enumerate(entries):
        for value in entry.value:
            row = row_of.get(id(value))
            if row is None:
                type_check(value)
                row = row_of[id(value)] = len(values)
                values.append(value)
            cells.append(cell)
            rows.append(row)
    return np.asarray(cells, dtype=np.int64), np.asarray(rows, dtype=np.int64), values


def _portion_speeds(table: PointsTable, rows, t0, t1, kmh: bool):
    """``(speeds, points)`` of the portion of trajectory row ``rows[k]``
    inside ``[t0[k], t1[k]]``: ``sub_trajectory`` then ``average_speed_*``.

    The float steps are the scalar ones: a ``haversine_distance`` call per
    distinct segment between consecutive kept points, Python's ``sum`` of a
    portion's segments, ``length / (max end - min start)`` (0 without
    elapsed time), ``* 3.6``.
    """
    n = len(rows)
    lo, hi = table.offsets[rows], table.offsets[rows + 1]
    pt = _concat_ranges(lo, hi)
    portion = np.repeat(np.arange(n), hi - lo)
    inside = table._in_slot(pt, t0[portion], t1[portion])
    pt, portion = pt[inside], portion[inside]
    points = np.bincount(portion, minlength=n)
    seg = np.flatnonzero(portion[1:] == portion[:-1])
    width = len(table.x)
    keys, inverse = np.unique(pt[seg] * width + pt[seg + 1], return_inverse=True)
    a, b = np.divmod(keys, width)
    x, y = table.x, table.y
    segments = (x[a].tolist(), y[a].tolist(), x[b].tolist(), y[b].tolist())
    meters = np.array(list(map(haversine_distance, *segments)), dtype=float)[inverse].tolist()
    ends = np.cumsum(np.bincount(portion[seg], minlength=n)).tolist()
    lengths = np.array([sum(meters[i:j]) for i, j in zip([0] + ends, ends)], dtype=float)
    elapsed = np.zeros(n)
    some = np.flatnonzero(points)
    if len(some):
        first = (np.cumsum(points) - points)[some]
        elapsed[some] = np.maximum.reduceat(table.t_end[pt], first)
        elapsed[some] -= np.minimum.reduceat(table.t_start[pt], first)
    speeds = np.divide(lengths, elapsed, out=np.zeros(n), where=elapsed > 0)
    return (speeds * 3.6 if kmh else speeds), points


class CountSpec(AggSpec):
    """Vectorizes the flow extractors: ``local = len``, ``merge = +``."""

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        counts = cell_counts(entries, n)
        return CellTable(
            n,
            {"count": counts},
            {"count": "sum"},
            type(instance).__name__,
            rows=int(counts.sum()),
        )

    def from_cells(self, cells, n_cells: int, kind: str) -> CellTable:
        """The partial of one allocation, from its cell id per pair alone.

        A spec has this method only if its partial needs no instance payload
        and merges by integer addition (no fixed merge order): the two
        things :class:`~repro.core.pipeline.Pipeline`'s fused scan needs.
        """
        counts = {"count": scatter_count(cells, n_cells)}
        return CellTable(n_cells, counts, {"count": "sum"}, kind, len(cells))

    def finalize(self, table: CellTable) -> list:
        return table.columns["count"].tolist()


class _TrajSpeedSpec(AggSpec):
    """The speed specs: per-cell mean of a per-(trajectory, cell) speed.

    :meth:`from_points` is the one kernel, over trajectory point columns and
    the allocated ``(row, cell)`` pairs: what a fused block scan feeds it
    straight from encoded rows, and what :meth:`build` lays a converted
    instance out as.  Pairs scatter in input order, so a cell's speeds add
    up in its allocation order on both paths.
    """

    #: Also a ``vehicles`` column: the pairs per cell, portion or not.
    count_vehicles = False

    def __init__(self, unit: str, type_error: str):
        self.unit = unit
        self.type_error = type_error

    def _check(self, value) -> None:
        if not isinstance(value, Trajectory):
            raise TypeError(self.type_error)

    def build(self, instance) -> CellTable:
        entries = instance.entries
        cells, rows, values = _pair_layout(entries, self._check)
        spans = np.array([(e.temporal.start, e.temporal.end) for e in entries]).T
        table = PointsTable.from_instances(values)
        return self.from_points(table, rows, cells, spans, type(instance).__name__)

    def from_points(self, table: PointsTable, rows, cells, spans, kind: str):
        """The partial of allocated pairs ``(rows[k], cells[k])`` over the
        trajectories of ``table``; ``spans`` holds every cell's ``(start,
        end)`` time columns."""
        if not table.is_trajectory[rows].all():
            raise TypeError(self.type_error)
        n = spans.shape[1]
        speeds, kept = self._speeds(table, rows, cells, spans)
        columns = {
            "total": scatter_sum(cells[kept], speeds[kept], n),
            "count": scatter_count(cells[kept], n),
        }
        if self.count_vehicles:
            columns["vehicles"] = scatter_count(cells, n)
        ops = dict.fromkeys(columns, "sum")
        return CellTable(n, columns, ops, kind, rows=len(cells))

    def finalize(self, table: CellTable) -> list:
        totals = table.columns["total"].tolist()
        counts = table.columns["count"].tolist()
        return [t / c if c else None for t, c in zip(totals, counts)]


class WholeTrajSpeedSpec(_TrajSpeedSpec):
    """Vectorizes ``SmSpeedExtractor``: whole-trajectory mean speed.

    A trajectory's speed is cell-independent: computed once per allocated
    row and scattered to every cell holding it.
    """

    def _speeds(self, table, rows, cells, spans):
        used, row_of_pair = np.unique(rows, return_inverse=True)
        unbounded = np.full(len(used), np.inf)
        speeds, _ = _portion_speeds(table, used, -unbounded, unbounded, self.unit == "kmh")
        return speeds[row_of_pair], slice(None)


class PortionSpeedSpec(_TrajSpeedSpec):
    """Vectorizes the sub-trajectory speed extractors (Ts / Raster).

    Per cell, each trajectory contributes the average speed of its portion
    inside the cell's duration, skipping portions with fewer than two
    points.  A portion is computed once per *distinct* ``(trajectory, cell
    duration)`` — every spatial cell of one raster time slot shares it.
    """

    def __init__(self, unit: str, type_error: str, count_vehicles: bool = False):
        super().__init__(unit, type_error)
        self.count_vehicles = count_vehicles

    def _speeds(self, table, rows, cells, spans):
        t0, t1 = spans[:, cells]
        (_, i0), (_, i1) = (np.unique(t, return_inverse=True) for t in (t0, t1))
        n0, n1 = i0.max(initial=0) + 1, i1.max(initial=0) + 1
        _, first, portion = np.unique(
            (rows * n0 + i0) * n1 + i1, return_index=True, return_inverse=True
        )
        speeds, points = _portion_speeds(
            table, rows[first], t0[first], t1[first], self.unit == "kmh"
        )
        return speeds[portion], points[portion] >= 2

    def finalize(self, table: CellTable) -> list:
        means = super().finalize(table)
        if not self.count_vehicles:
            return means
        return list(zip(table.columns["vehicles"].tolist(), means))


class TransitSpec(AggSpec):
    """Vectorizes ``RasterTransitExtractor``: per-cell in/out flow.

    One pass over the (pair, point) expansion of a partition's pairs: a
    point is in its pair's cell when the cell's duration ``intersects`` its
    time and — closed box containment, the comparisons of
    ``Envelope.contains_point`` — its envelope holds it; a non-envelope
    cell runs the scalar ``intersects`` of the extractor's ``local`` per
    point.  The first and last in-cell times then decide the flows.
    """

    def __init__(self, type_error: str):
        self.type_error = type_error

    def _check(self, value) -> None:
        if not isinstance(value, (Event, Trajectory)):
            raise TypeError(self.type_error)

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        cells, rows, values = _pair_layout(entries, self._check)
        table = PointsTable.from_instances(values)  # (an event owns no point)
        lo, hi = table.offsets[rows], table.offsets[rows + 1]
        pt = _concat_ranges(lo, hi)
        pair = np.repeat(np.arange(len(rows)), hi - lo)
        cell = cells[pair]
        spans = np.array([(e.temporal.start, e.temporal.end) for e in entries]).T
        inside = table._in_slot(pt, *spans[:, cell])
        is_box = np.array([isinstance(e.spatial, Envelope) for e in entries])[cell]
        envelopes = [e.spatial.envelope for e in entries]
        boxes = np.array([(b.min_x, b.min_y, b.max_x, b.max_y) for b in envelopes]).T
        inside[is_box] &= table._in_box(pt[is_box], *boxes[:, cell[is_box]])
        for k in np.flatnonzero(inside & ~is_box).tolist():
            row = rows[pair[k]]
            point = values[row].entries[pt[k] - table.offsets[row]].spatial
            inside[k] = entries[cell[k]].spatial.intersects(point)
        pt, pair = pt[inside], pair[inside]
        hit = np.flatnonzero(np.bincount(pair, minlength=len(rows)))
        first = np.searchsorted(pair, hit)
        times, row = table.t_start[pt], rows[hit]
        entered = np.minimum.reduceat(times, first) > table.t_start[table.offsets[row]]
        left = np.maximum.reduceat(times, first) < table.t_start[table.offsets[row + 1] - 1]
        return CellTable(
            n,
            {"inflow": scatter_count(cells[hit[entered]], n),
             "outflow": scatter_count(cells[hit[left]], n)},
            {"inflow": "sum", "outflow": "sum"},
            type(instance).__name__,
            rows=len(rows),
        )

    def finalize(self, table: CellTable) -> list:
        inflow = table.columns["inflow"].tolist()
        outflow = table.columns["outflow"].tolist()
        return list(zip(inflow, outflow))


class FieldMeanSpec(AggSpec):
    """Vectorizes the air-quality extractor: per-field means over events.

    Each event's ``value`` is a dict of index readings; fields become
    dynamic ``sum:*`` columns (plus ``n:*`` presence counts, so a field
    that summed to the same float by accident is still reported exactly
    when the scalar dict would hold it).
    """

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        counts = cell_counts(entries, n)
        field_cells: dict[str, list[int]] = {}
        field_vals: dict[str, list[float]] = {}
        for cell, entry in enumerate(entries):
            for ev in entry.value:
                for field, v in ev.value.items():
                    if field not in field_cells:
                        field_cells[field] = []
                        field_vals[field] = []
                    field_cells[field].append(cell)
                    field_vals[field].append(v)
        columns = {"count": counts}
        ops = {"count": "sum"}
        for field, cells in field_cells.items():
            ids = np.asarray(cells, dtype=np.int64)
            columns[f"sum:{field}"] = scatter_sum(ids, field_vals[field], n)
            columns[f"n:{field}"] = scatter_count(ids, n)
            ops[f"sum:{field}"] = "sum"
            ops[f"n:{field}"] = "sum"
        return CellTable(
            n, columns, ops, type(instance).__name__, rows=int(counts.sum())
        )

    def _cell_dicts(self, table: CellTable, fields: list[str]) -> list[dict]:
        sums = {f: table.columns[f"sum:{f}"].tolist() for f in fields}
        present = {f: table.columns[f"n:{f}"].tolist() for f in fields}
        return [
            {f: sums[f][c] for f in fields if present[f][c]}
            for c in range(table.n_cells)
        ]

    def finalize(self, table: CellTable) -> list:
        counts = table.columns["count"].tolist()
        fields = sorted(
            name[4:] for name in table.columns if name.startswith("sum:")
        )
        features = []
        for count, sums in zip(counts, self._cell_dicts(table, fields)):
            if not count:
                features.append(None)
            else:
                features.append(
                    {f: round(total / count, 9) for f, total in sums.items()}
                )
        return features
