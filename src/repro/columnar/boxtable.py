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

    def __init__(self, xmin, ymin, tmin, xmax, ymax, tmax, rows, box_exact):
        self.xmin = xmin
        self.ymin = ymin
        self.tmin = tmin
        self.xmax = xmax
        self.ymax = ymax
        self.tmax = tmax
        #: Row → instance indirection (row i's columns describe rows[i]).
        self.rows = rows
        #: True where the instance's MBR equals its shape, so the box test
        #: is exact and no scalar refinement is needed.
        self.box_exact = box_exact

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the table's own storage, in bytes.

        Counts the six extent columns, the ``box_exact`` mask, and the
        ``rows`` indirection list (8 bytes per reference).  The instances
        themselves are *not* counted: they belong to the partition, which
        outlives the table.  This is what byte-budgeted caches charge per
        entry.
        """
        columns = (self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax)
        return sum(int(c.nbytes) for c in columns) + int(self.box_exact.nbytes) + 8 * len(self.rows)

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
