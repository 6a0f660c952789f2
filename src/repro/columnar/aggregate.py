"""Columnar extraction kernels: SoA cell aggregation for CellAggExtractor.

The scalar extraction path walks every cell of every per-partition partial
collective instance in Python — one ``local`` call, one ``Entry`` rebuild,
and (at merge time) two structure-equality checks per cell.  This module
replaces those loops with a :class:`CellTable`: a structure-of-arrays
partial holding dense numpy value/count columns keyed by cell id, built
with scatter-add kernels (``np.bincount`` for sums and counts) and merged
with elementwise column ops.

An :class:`AggSpec` is the columnar compilation of one extractor's
``local``/``merge``/``finalize`` triple:

* :meth:`AggSpec.build` — one partition-partial instance → its CellTable
  (the vectorized ``local`` + within-partition ``merge``);
* :meth:`CellTable.merge` — the vectorized cross-partition ``merge``;
* :meth:`AggSpec.finalize` — merged CellTable → per-cell feature list.

``build`` never declines, so an extractor with a spec reduces CellTables
and nothing else: a ``(cell, trajectory)`` pair the array kernel cannot
decide — an interval-valued entry time, a non-envelope transit cell — is
computed inside the kernel with the scalar helpers the extractor's
``local`` calls and scattered with the rest.

Exactness contract: every kernel reproduces the scalar path bit-for-bit,
not just approximately.  The load-bearing facts: ``np.bincount``
accumulates its weights *sequentially in input order* (pairs are emitted
cell-major, so within-cell order equals the scalar value-scan order);
per-trajectory segment distances are computed with the same scalar
``haversine_distance`` calls, once per trajectory; and portion lengths
are summed with Python's sequential ``sum`` per *unique* portion (numpy's
pairwise-summation reductions — including ``reduceat`` — associate
differently and are deliberately avoided); a scalar-computed pair keeps
its position in that order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, NamedTuple, Sequence

import numpy as np

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
    "ScanWork",
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


class ScanWork(NamedTuple):
    """Counted work behind a fused-scan partial, summed along the reduce.

    A process worker's counters cannot reach the driver's ``LoadStats`` /
    ``AllocationStats``, so they travel *with* the partial and are noted
    once, driver-side — exact on every backend.  ``records``: rows the
    extent mask admitted; ``rows_decoded``: payloads unpickled;
    ``quarantined``: names of blocks skipped under ``on_corrupt``.
    """

    blocks: int = 0
    rows_scanned: int = 0
    records: int = 0
    rows_decoded: int = 0
    nbytes: int = 0
    instances: int = 0
    candidate_tests: int = 0
    exact_tests: int = 0
    allocations: int = 0
    quarantined: tuple = ()

    def __add__(self, other: "ScanWork") -> "ScanWork":  # type: ignore[override]
        return ScanWork(*[a + b for a, b in zip(self, other)])


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
    per-instance partials were folded in.  ``work`` is the
    :class:`ScanWork` of a table a fused block scan produced (``None`` for
    one built from a converted instance).
    """

    __slots__ = ("n_cells", "columns", "ops", "kind", "rows", "partials", "work")

    def __init__(
        self,
        n_cells: int,
        columns: dict,
        ops: dict,
        kind: str,
        rows: int = 0,
        partials: int = 1,
        work: ScanWork | None = None,
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
        self.work = work

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
            work=self.work + other.work if self.work and other.work else None,
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


def _pair_layout(entries, type_check) -> tuple[list[int], dict]:
    """Cell-major (cell, value) pair layout plus a per-value grouping.

    Returns ``(pair_cells, groups)`` where ``pair_cells[p]`` is the cell
    of pair ``p`` (pairs enumerate cells in order, values in cell order —
    the exact scan order of the scalar path) and ``groups`` maps
    ``id(value)`` to ``(value, positions)`` for per-trajectory vectorized
    computation scattered back by pair position.
    """
    pair_cells: list[int] = []
    groups: dict[int, tuple[Any, list[int]]] = {}
    for cell, entry in enumerate(entries):
        for value in entry.value:
            type_check(value)
            group = groups.get(id(value))
            if group is None:
                groups[id(value)] = (value, [len(pair_cells)])
            else:
                group[1].append(len(pair_cells))
            pair_cells.append(cell)
    return pair_cells, groups


def _is_instant(traj: Trajectory) -> bool:
    """Whether every entry time of the trajectory is an instant.

    The searchsorted window trick below models entry durations as points;
    interval-valued entries would make closed-interval ``intersects``
    membership non-contiguous in general, so the kernels compute such a
    trajectory's pairs one by one.
    """
    return all(e.temporal.end == e.temporal.start for e in traj.entries)


def _segment_meters(traj: Trajectory) -> list[float]:
    """Per-consecutive-pair haversine distances, via the scalar function.

    Computed once per trajectory and reused across every cell the
    trajectory was allocated to — same floats as
    ``Trajectory.length_meters`` summing them would see.
    """
    entries = traj.entries
    return [
        haversine_distance(a.spatial.x, a.spatial.y, b.spatial.x, b.spatial.y)
        for a, b in zip(entries, entries[1:])
    ]


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

    def from_cells(self, cells, n_cells: int, kind: str, work=None) -> CellTable:
        """The partial of one allocation, from its cell id per pair alone.

        A spec has this method only if its partial needs no instance payload
        and merges by integer addition (no fixed merge order): the two
        things :class:`~repro.core.pipeline.Pipeline`'s fused scan needs.
        """
        counts = {"count": scatter_count(cells, n_cells)}
        return CellTable(n_cells, counts, {"count": "sum"}, kind, len(cells), work=work)

    def finalize(self, table: CellTable) -> list:
        return table.columns["count"].tolist()


class WholeTrajSpeedSpec(AggSpec):
    """Vectorizes ``SmSpeedExtractor``: whole-trajectory mean speed.

    A trajectory's speed is cell-independent, so it is computed once (with
    the same ``average_speed_*`` call the scalar path makes per cell) and
    scattered to every cell holding the trajectory.
    """

    def __init__(self, unit: str, type_error: str):
        self.unit = unit
        self.type_error = type_error

    def _check(self, value) -> None:
        if not isinstance(value, Trajectory):
            raise TypeError(self.type_error)

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        pair_cells, groups = _pair_layout(entries, self._check)
        pair_cell = np.asarray(pair_cells, dtype=np.int64)
        speeds = np.empty(len(pair_cells))
        kmh = self.unit == "kmh"
        for traj, positions in groups.values():
            speed = traj.average_speed_kmh() if kmh else traj.average_speed_ms()
            speeds[positions] = speed
        return CellTable(
            n,
            {
                "total": scatter_sum(pair_cell, speeds, n),
                "count": scatter_count(pair_cell, n),
            },
            {"total": "sum", "count": "sum"},
            type(instance).__name__,
            rows=len(pair_cells),
        )

    def finalize(self, table: CellTable) -> list:
        totals = table.columns["total"].tolist()
        counts = table.columns["count"].tolist()
        return [t / c if c else None for t, c in zip(totals, counts)]


class PortionSpeedSpec(AggSpec):
    """Vectorizes the sub-trajectory speed extractors (Ts / Raster).

    Per cell, each trajectory contributes the average speed of its portion
    inside the cell's duration, skipping portions with fewer than two
    points.  Timestamps are sorted, so a closed time window keeps a
    contiguous entry slice ``[i, j]``: ``i``/``j`` come from a vectorized
    ``searchsorted`` over all of a trajectory's cells at once, and the
    portion length is the sequential ``sum`` of precomputed per-segment
    haversine distances — evaluated once per *unique* portion, since
    e.g. every spatial cell of one raster time slot shares the slice.
    """

    def __init__(self, unit: str, type_error: str, count_vehicles: bool = False):
        self.unit = unit
        self.type_error = type_error
        self.count_vehicles = count_vehicles

    def _check(self, value) -> None:
        if not isinstance(value, Trajectory):
            raise TypeError(self.type_error)

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        starts = np.fromiter((e.temporal.start for e in entries), float, count=n)
        ends = np.fromiter((e.temporal.end for e in entries), float, count=n)
        pair_cells, groups = _pair_layout(entries, self._check)
        pair_cell = np.asarray(pair_cells, dtype=np.int64)
        speeds = np.zeros(len(pair_cells))
        kept = np.zeros(len(pair_cells), dtype=bool)
        kmh = self.unit == "kmh"
        for traj, positions in groups.values():
            if not _is_instant(traj):
                # Interval entry times: these pairs, and only these, take
                # the scalar helpers ``local`` calls.
                for p in positions:
                    portion = traj.sub_trajectory(entries[pair_cells[p]].temporal)
                    if portion is not None and len(portion.entries) >= 2:
                        speeds[p] = (
                            portion.average_speed_kmh() if kmh else portion.average_speed_ms()
                        )
                        kept[p] = True
                continue
            ts_list = [e.temporal.start for e in traj.entries]
            ts = np.asarray(ts_list)
            pos = np.asarray(positions, dtype=np.int64)
            cells = pair_cell[pos]
            lo = np.searchsorted(ts, starts[cells], side="left")
            hi = np.searchsorted(ts, ends[cells], side="right") - 1
            seg: list[float] | None = None
            portion_speed: dict[tuple[int, int], float] = {}
            for p, i, j in zip(positions, lo.tolist(), hi.tolist()):
                if j - i < 1:
                    continue  # portion missing or single-point: skipped
                speed = portion_speed.get((i, j))
                if speed is None:
                    if seg is None:
                        seg = _segment_meters(traj)
                    elapsed = ts_list[j] - ts_list[i]
                    speed = sum(seg[i:j]) / elapsed if elapsed > 0 else 0.0
                    if kmh:
                        speed = speed * 3.6
                    portion_speed[(i, j)] = speed
                speeds[p] = speed
                kept[p] = True
        in_cell = pair_cell[kept]
        columns = {
            "total": scatter_sum(in_cell, speeds[kept], n),
            "count": scatter_count(in_cell, n),
        }
        ops = {"total": "sum", "count": "sum"}
        if self.count_vehicles:
            columns["vehicles"] = cell_counts(entries, n)
            ops["vehicles"] = "sum"
        return CellTable(
            n, columns, ops, type(instance).__name__, rows=len(pair_cells)
        )

    def finalize(self, table: CellTable) -> list:
        totals = table.columns["total"].tolist()
        counts = table.columns["count"].tolist()
        means = [t / c if c else None for t, c in zip(totals, counts)]
        if not self.count_vehicles:
            return means
        vehicles = table.columns["vehicles"].tolist()
        return list(zip(vehicles, means))


class TransitSpec(AggSpec):
    """Vectorizes ``RasterTransitExtractor``: per-cell in/out flow.

    Over an envelope spatial cell (the regular-raster case) the temporal
    window gives a contiguous timestamp slice, and the in-cell test over
    that slice is a vectorized closed-bounds containment — identical
    comparisons to ``Envelope.contains_point``.  A pair with a
    non-envelope cell, or an interval-valued trajectory, runs the
    ``intersects`` tests of the extractor's ``local`` entry by entry.
    """

    def __init__(self, type_error: str):
        self.type_error = type_error

    def build(self, instance) -> CellTable:
        entries = instance.entries
        n = len(entries)
        is_box = [isinstance(e.spatial, Envelope) for e in entries]
        boxes = [e.spatial.envelope for e in entries]
        min_x = np.fromiter((b.min_x for b in boxes), float, count=n)
        max_x = np.fromiter((b.max_x for b in boxes), float, count=n)
        min_y = np.fromiter((b.min_y for b in boxes), float, count=n)
        max_y = np.fromiter((b.max_y for b in boxes), float, count=n)
        starts = np.fromiter((e.temporal.start for e in entries), float, count=n)
        ends = np.fromiter((e.temporal.end for e in entries), float, count=n)

        def check(value) -> None:
            if not isinstance(value, (Event, Trajectory)):
                raise TypeError(self.type_error)

        pair_cells, groups = _pair_layout(entries, check)
        inflow = np.zeros(n, dtype=np.int64)
        outflow = np.zeros(n, dtype=np.int64)
        pair_cell = np.asarray(pair_cells, dtype=np.int64)
        rows = len(pair_cells)
        for traj, positions in groups.values():
            if isinstance(traj, Event):
                continue  # events carry no motion (scalar path skips them too)
            cells = pair_cell[np.asarray(positions, dtype=np.int64)]
            instant = _is_instant(traj)
            lo = hi = cells  # (an interval trajectory's pairs read no slice)
            if instant:
                ts_list = [e.temporal.start for e in traj.entries]
                ts = np.asarray(ts_list)
                xs = np.fromiter((e.spatial.x for e in traj.entries), float, count=len(ts))
                ys = np.fromiter((e.spatial.y for e in traj.entries), float, count=len(ts))
                lo = np.searchsorted(ts, starts[cells], side="left")
                hi = np.searchsorted(ts, ends[cells], side="right") - 1
            t_first = traj.entries[0].temporal.start
            t_last = traj.entries[-1].temporal.start
            for c, i, j in zip(cells.tolist(), lo.tolist(), hi.tolist()):
                if instant and is_box[c]:
                    if j < i:
                        continue  # no points inside the cell's duration
                    xw = xs[i : j + 1]
                    yw = ys[i : j + 1]
                    inside = (xw >= min_x[c]) & (xw <= max_x[c])
                    inside &= (yw >= min_y[c]) & (yw <= max_y[c])
                    if not inside.any():
                        continue
                    first_in = ts_list[i + int(inside.argmax())]
                    last_in = ts_list[i + len(inside) - 1 - int(inside[::-1].argmax())]
                else:
                    cell = entries[c]
                    inside_times = [
                        e.temporal.start
                        for e in traj.entries
                        if cell.temporal.intersects(e.temporal)
                        and cell.spatial.intersects(e.spatial)
                    ]
                    if not inside_times:
                        continue
                    first_in, last_in = min(inside_times), max(inside_times)
                if first_in > t_first:
                    inflow[c] += 1
                if last_in < t_last:
                    outflow[c] += 1
        return CellTable(
            n,
            {"inflow": inflow, "outflow": outflow},
            {"inflow": "sum", "outflow": "sum"},
            type(instance).__name__,
            rows=rows,
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
