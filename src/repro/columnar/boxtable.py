"""The BoxTable — structure-of-arrays ST extents for one partition.

A BoxTable is the columnar mirror of ``[inst.st_box() for inst in
partition]``: six float64 columns (``xmin/ymin/tmin/xmax/ymax/tmax``) plus
a row→instance indirection, extracted once per partition so every
subsequent box test over the partition is a handful of numpy comparisons
instead of a Python loop over ``STBox`` objects.

``box_exact`` additionally marks the rows whose MBR *is* their shape
(single-entry instances with Point or Envelope geometry): for those rows a
box-intersection hit is already the exact selection predicate, so the
per-instance refinement pass skips them entirely: exact geometry tests run
only on the vectorized candidate set, and only for rows that need them.

The table is also the currency of the *write* path: :meth:`from_instances`
is the one pass that asks a record for its extent; partitioner fits and
routing (:meth:`centers`), per-block slices (:meth:`extents`), the block
encoder's columns and the metadata MBR (:meth:`bounds`) read the columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.index.boxes import STBox
from repro.instances.base import Instance


class BoxTable:
    """Columnar (x, y, t) extents of one partition's instances."""

    __slots__ = (
        "xmin", "ymin", "tmin", "xmax", "ymax", "tmax", "rows", "box_exact"
    )

    @property
    def columns(self) -> tuple:
        """The six extent columns, in on-disk order."""
        return (self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax)

    def __init__(self, xmin, ymin, tmin, xmax, ymax, tmax, rows, box_exact):
        self.xmin = xmin
        self.ymin = ymin
        self.tmin = tmin
        self.xmax = xmax
        self.ymax = ymax
        self.tmax = tmax
        #: Row → instance indirection (row i's columns describe rows[i]);
        #: ``None`` on a table of extents alone (see :meth:`extents`).
        self.rows = rows
        #: True where the instance's MBR equals its shape, so the box test
        #: is exact and no scalar refinement is needed.
        self.box_exact = box_exact

    def __len__(self) -> int:
        return len(self.xmin)

    @classmethod
    def from_instances(cls, instances: Sequence[Instance]) -> "BoxTable":
        """Extract the six extent columns in one pass over the partition."""
        n = len(instances)
        xmin = np.empty(n, dtype=np.float64)
        ymin = np.empty(n, dtype=np.float64)
        tmin = np.empty(n, dtype=np.float64)
        xmax = np.empty(n, dtype=np.float64)
        ymax = np.empty(n, dtype=np.float64)
        tmax = np.empty(n, dtype=np.float64)
        box_exact = np.zeros(n, dtype=bool)
        rows = list(instances)
        for i, inst in enumerate(rows):
            xmin[i], ymin[i], tmin[i], xmax[i], ymax[i], tmax[i] = inst.st_bounds()
            entries = inst.entries
            box_exact[i] = len(entries) == 1 and isinstance(
                entries[0].spatial, (Point, Envelope)
            )
        return cls(xmin, ymin, tmin, xmax, ymax, tmax, rows, box_exact)

    @classmethod
    def concat(cls, tables: Sequence["BoxTable"], rows) -> "BoxTable":
        """``tables`` stacked in order, with ``rows`` as the new indirection."""
        return cls(
            *(np.concatenate(cs) for cs in zip(*(t.columns for t in tables))),
            rows,
            np.concatenate([t.box_exact for t in tables]),
        )

    def extents(self, idx) -> "BoxTable":
        """Rows ``idx`` (an index array), in that order, as a new table of
        extents alone — no row indirection, so none of ``rows`` is touched."""
        return BoxTable(*(c[idx] for c in self.columns), None, self.box_exact[idx])

    def take(self, idx) -> "BoxTable":
        """:meth:`extents` of ``idx`` with their ``rows`` alongside."""
        table = self.extents(idx)
        table.rows = [self.rows[i] for i in idx.tolist()]
        return table

    def centers(self):
        """Per-row ``(x, y, t)`` midpoints — ``(min + max) / 2.0``, the exact
        arithmetic of ``Envelope.centroid`` / ``Duration.center``, so a cut
        fitted or a row routed on them agrees bit for bit with the scalar path."""
        return (
            (self.xmin + self.xmax) / 2.0,
            (self.ymin + self.ymax) / 2.0,
            (self.tmin + self.tmax) / 2.0,
        )

    def bounds(self) -> STBox:
        """The MBR of every row (the table must not be empty).

        Each bound is the *first* row value equal to the column's min/max,
        as the left fold of ``STBox.merge_all`` over the rows' boxes keeps
        it, so even the sign of a zero bound matches (numpy's own reduction
        may return either of ``-0.0`` and ``0.0``).
        """
        cols = self.columns
        mins = [float(c[np.argmax(c == c.min())]) for c in cols[:3]]
        return STBox(mins, [float(c[np.argmax(c == c.max())]) for c in cols[3:]])

    # -- kernels ------------------------------------------------------------------

    def intersects_box(self, box: STBox):
        """Vectorized closed-interval ST-range predicate: one bool per row.

        Mirrors ``STBox.intersects`` (closed on every side), so a query
        value exactly on a row's boundary matches — the same semantics the
        metadata pruner uses.
        """
        if box.ndim != 3:
            raise ValueError("BoxTable queries need a 3-d (x, y, t) box")
        (qx0, qy0, qt0), (qx1, qy1, qt1) = box.mins, box.maxs
        return (
            (self.xmin <= qx1)
            & (self.xmax >= qx0)
            & (self.ymin <= qy1)
            & (self.ymax >= qy0)
            & (self.tmin <= qt1)
            & (self.tmax >= qt0)
        )

    def candidate_rows(self, box: STBox):
        """Sorted row indices whose boxes intersect the query box."""
        return np.nonzero(self.intersects_box(box))[0]

    def coords(self):
        """(mins, maxs) as two (n, 3) arrays in (x, y, t) order."""
        mins = np.stack((self.xmin, self.ymin, self.tmin), axis=1)
        maxs = np.stack((self.xmax, self.ymax, self.tmax), axis=1)
        return mins, maxs


def intersects_box(table: BoxTable, box: STBox):
    """Module-level alias of :meth:`BoxTable.intersects_box`."""
    return table.intersects_box(box)
