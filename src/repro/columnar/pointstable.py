"""The PointsTable — ragged point columns of one partition's trajectories.

Where a :class:`~repro.columnar.boxtable.BoxTable` mirrors each instance's
*extent*, a PointsTable mirrors each trajectory's *shape*: four flat
float64 columns (``x, y, t_start, t_end``, one value per trajectory entry)
plus per-row ``offsets``, extracted in the same single pass that yields
every row's ST extent.  Rows that are not trajectories own an empty point
range; their extent comes from ``Instance.st_bounds()``.

Two kernels run on it:

* :meth:`PointsTable.rows_with_point_in` — "does any point of the row fall
  in this ST range", the exact selection predicate for trajectories;
* :meth:`PointsTable.intersects_boxes` — the exact-refinement kernel of
  singular→collective allocation: one verdict per ``(row, cell box)``
  candidate pair, evaluating the predicate of the ``Trajectory`` branch of
  ``repro.core.converters.base._matches_cell`` with array operations.  The
  float expressions are the scalar ones in the same operation order
  (numpy evaluates each ufunc separately, so nothing is fused), which is
  what makes the verdicts bit-for-bit the scalar ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.columnar.packed_rtree import _concat_ranges
from repro.instances.base import Instance
from repro.instances.trajectory import Trajectory

#: Upper bound on the ``(pair, point)`` rows one refinement step expands.
#: The kernel's working set is a few dozen temporaries of this length
#: (≈ 16 MiB), however long the trajectories and however many candidate
#: cells each has; a single pair is never split, so one trajectory longer
#: than this is processed on its own.
REFINE_CHUNK_POINTS = 1 << 16

# Corner k of a box is (x-column, y-column) into the stacked
# (x0, y0, x1, y1) array — counter-clockwise from the minimum, the order of
# ``Envelope.corners``; edge k runs from corner k to corner k + 1.
_CORNERS = ((0, 1), (2, 1), (2, 3), (0, 3))


def _orient(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b - a) × (c - a): ``segments_intersect``'s
    ``orient`` (a NaN product counts as collinear there, and here)."""
    val = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (val > 0).astype(np.int8) - (val < 0)


def _within(a, b, v):
    """``min(a, b) <= v <= max(a, b)`` — one axis of ``on_segment``."""
    return (np.minimum(a, b) <= v) & (v <= np.maximum(a, b))


def _segments_cross_boxes(ax, ay, bx, by, box):
    """Does segment AB meet any of the four edges of its box?

    ``box`` is the stacked ``(x0, y0, x1, y1)`` array, one column per
    segment.  This is ``segments_intersect(A, B, corner_k, corner_k+1)``
    for the four edges: the general straddle test plus its four
    collinear / ``on_segment`` cases.
    """
    corners = [(box[i], box[j]) for i, j in _CORNERS]
    # Each corner ends one edge and starts the next: its orientation about
    # AB and its on-AB test are computed once and used by both.
    about_ab = [_orient(ax, ay, bx, by, cx, cy) for cx, cy in corners]
    on_ab = [
        (o == 0) & _within(ax, bx, cx) & _within(ay, by, cy)
        for o, (cx, cy) in zip(about_ab, corners)
    ]
    hit = np.zeros(len(ax), dtype=bool)
    for k in range(4):
        nxt = (k + 1) % 4
        (px, py), (qx, qy) = corners[k], corners[nxt]
        a_side = _orient(px, py, qx, qy, ax, ay)
        b_side = _orient(px, py, qx, qy, bx, by)
        hit |= (about_ab[k] != about_ab[nxt]) & (a_side != b_side)
        hit |= on_ab[k] | on_ab[nxt]
        hit |= (a_side == 0) & _within(px, qx, ax) & _within(py, qy, ay)
        hit |= (b_side == 0) & _within(px, qx, bx) & _within(py, qy, by)
    return hit


class PointsTable:
    """Flat point columns + per-row offsets of one partition's trajectories."""

    __slots__ = ("x", "y", "t_start", "t_end", "offsets", "extents")

    def __init__(self, x, y, t_start, t_end, offsets, extents):
        self.x = x
        self.y = y
        self.t_start = t_start
        self.t_end = t_end
        #: Row i's points are ``[offsets[i], offsets[i + 1])``; the range is
        #: empty exactly when row i is not a trajectory.
        self.offsets = offsets
        #: ``(6, n)`` ST extents ``(xmin, ymin, tmin, xmax, ymax, tmax)`` of
        #: every row — ``st_bounds()`` values, trajectory or not.
        self.extents = extents

    @property
    def is_trajectory(self):
        """True for the rows that own points."""
        return np.diff(self.offsets) > 0

    @classmethod
    def from_instances(cls, instances: Sequence[Instance]) -> "PointsTable":
        """Extract point columns and extents in one pass over the partition."""
        n = len(instances)
        offsets = np.zeros(n + 1, dtype=np.int64)
        points: list[tuple] = []
        others: list[int] = []
        other_bounds: list[tuple] = []
        for i, inst in enumerate(instances):
            if isinstance(inst, Trajectory):
                entries = inst.entries
                offsets[i + 1] = len(entries)
                points.extend(
                    [
                        (e.spatial.x, e.spatial.y, e.temporal.start, e.temporal.end)
                        for e in entries
                    ]
                )
            else:
                others.append(i)
                other_bounds.append(inst.st_bounds())
        np.cumsum(offsets, out=offsets)
        pts = np.array(points, dtype=np.float64).reshape(-1, 4)
        extents = np.empty((6, n), dtype=np.float64)
        if others:
            extents[:, others] = np.array(other_bounds, dtype=np.float64).T
        if points:
            trajs = np.flatnonzero(np.diff(offsets))
            starts = offsets[trajs]
            extents[:3, trajs] = np.minimum.reduceat(pts[:, :3], starts).T
            extents[3:, trajs] = np.maximum.reduceat(pts[:, [0, 1, 3]], starts).T
        x, y, t_start, t_end = (np.ascontiguousarray(c) for c in pts.T)
        return cls(x, y, t_start, t_end, offsets, extents)

    def take(self, rows) -> "PointsTable":
        """The table of ``rows`` only, in that order."""
        lo, hi = self.offsets[rows], self.offsets[rows + 1]
        pts = _concat_ranges(lo, hi)
        offsets = np.concatenate(([0], np.cumsum(hi - lo)))
        columns = (self.x[pts], self.y[pts], self.t_start[pts], self.t_end[pts])
        return PointsTable(*columns, offsets, self.extents[:, rows])

    # -- kernels ------------------------------------------------------------------

    def _in_slot(self, idx, t0, t1):
        """``Duration.intersects`` of the entries ``idx`` with ``[t0, t1]``."""
        return ~((self.t_start[idx] > t1) | (self.t_end[idx] < t0))

    def _in_box(self, idx, x0, y0, x1, y1):
        """``Envelope.contains_point`` of the points ``idx`` (closed)."""
        px = self.x[idx]
        py = self.y[idx]
        return (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)

    def rows_with_point_in(self, x0, y0, t0, x1, y1, t1):
        """One bool per row: does any of its points fall in the ST range?

        The selection predicate ``Instance.intersects`` for trajectories
        (``any`` entry inside, closed on every side; ±inf leaves a
        dimension unbounded); rows without points are False.
        """
        every = slice(None)
        hit = self._in_slot(every, t0, t1) & self._in_box(every, x0, y0, x1, y1)
        hits = np.concatenate(([0], np.cumsum(hit)))
        return hits[self.offsets[1:]] > hits[self.offsets[:-1]]

    def intersects_boxes(self, rows, boxes, spatial: bool = True):
        """Exact trajectory↔cell verdict for each candidate pair.

        ``rows[k]`` is a trajectory row and ``boxes[:, k]`` the
        ``(x0, y0, t0, x1, y1, t1)`` box of its candidate cell (±inf on a
        dimension the cell leaves unbounded).  ``spatial=False`` is the
        cell without a geometry (time series): a segment whose time span
        overlaps the slot matches wherever it is.  The pairs×points
        expansion is processed :data:`REFINE_CHUNK_POINTS` rows at a time.
        """
        keep = np.zeros(len(rows), dtype=bool)
        ends = np.cumsum(self.offsets[rows + 1] - self.offsets[rows])
        start = 0
        while start < len(rows):
            done = ends[start - 1] if start else 0
            stop = int(np.searchsorted(ends, done + REFINE_CHUNK_POINTS, side="right"))
            stop = max(stop, start + 1)
            keep[start:stop] = self._refine(
                rows[start:stop], boxes[:, start:stop], spatial
            )
            start = stop
        return keep

    def _refine(self, rows, boxes, spatial: bool):
        """:meth:`intersects_boxes` for one chunk of pairs.

        Time first, space on what survives: element ``e`` of the expansion
        is point ``pt[e]`` seen from pair ``pair[e]``.
        """
        lo = self.offsets[rows]
        hi = self.offsets[rows + 1]
        pair = np.repeat(np.arange(len(rows)), hi - lo)
        pt = _concat_ranges(lo, hi)
        x0, y0, t0, x1, y1, t1 = boxes
        keep = np.zeros(len(rows), dtype=bool)

        # Any sample inside the cell while the slot is open.
        e = np.flatnonzero(self._in_slot(pt, t0[pair], t1[pair]))
        if spatial:
            p = pair[e]
            e = e[self._in_box(pt[e], x0[p], y0[p], x1[p], y1[p])]
        keep[pair[e]] = True

        # Consecutive segments of the pairs still undecided: element a
        # starts one unless it is the last point of its pair.
        last = np.zeros(len(pt), dtype=bool)
        last[np.cumsum(hi - lo) - 1] = True
        a = np.flatnonzero(~last & ~keep[pair])
        ta = self.t_start[pt[a]]
        span_end = np.maximum(ta, self.t_end[pt[a + 1]])
        p = pair[a]
        a = a[~((ta > t1[p]) | (span_end < t0[p]))]
        if not spatial:
            keep[pair[a]] = True
            return keep
        ia, ib, p = pt[a], pt[a + 1], pair[a]
        ax, ay, bx, by = self.x[ia], self.y[ia], self.x[ib], self.y[ib]
        x0, y0, x1, y1 = x0[p], y0[p], x1[p], y1[p]
        # Stationary segments are their (already tested) points; the rest
        # must at least overlap the cell with their MBR.
        live = ~((ax == bx) & (ay == by)) & ~(
            (x0 > np.maximum(ax, bx))
            | (x1 < np.minimum(ax, bx))
            | (y0 > np.maximum(ay, by))
            | (y1 < np.minimum(ay, by))
        )
        # An endpoint inside the cell decides it (its own timestamp may
        # miss the slot — the segment's span does not).
        ends_inside = self._in_box(ia, x0, y0, x1, y1) | self._in_box(ib, x0, y0, x1, y1)
        keep[p[live & ends_inside]] = True
        s = np.flatnonzero(live & ~ends_inside)
        crossing = _segments_cross_boxes(
            ax[s], ay[s], bx[s], by[s], np.stack((x0[s], y0[s], x1[s], y1[s]))
        )
        keep[p[s[crossing]]] = True
        return keep
