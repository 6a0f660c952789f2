"""STR bulk-loaded R-tree packed into per-level coordinate arrays.

The system's one R-tree.  The paper uses R-trees in three places — the
per-partition 3-d selection indexes (§3.1), the index over *structure
cells* broadcast for singular→collective conversion (§4.2) and the
road-segment index of HMM map matching (§3.2.2) — and all three only ever
ask "which rows intersect this box".  Each level's MBRs are stored as
``(m, d)`` min/max arrays plus child-range arrays, so a query descends the
tree with one vectorized intersection test per level instead of one Python
call per node.  Packing is the Sort-Tile-Recursive slab recursion of
Leutenegger et al. (the same STR the paper's partitioner is named after),
implemented over ``argsort`` index arrays.

The candidate *set* of a query is a pure function of the boxes — MBR
intersection is deterministic — while probe counts (``node_tests`` /
``entry_tests``) depend on tree shape; parity suites compare rows and
``stats.candidates`` against a brute-force scan.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.index.boxes import STBox


class RTreeStats:
    """Counters updated by every query; cheap enough to always keep on."""

    __slots__ = ("queries", "node_tests", "entry_tests", "candidates")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.queries = 0
        self.node_tests = 0
        self.entry_tests = 0
        # Rows returned across all queries.  Unlike node/entry test
        # counts, this is a pure function of the data and the queries (not
        # of tree shape), so the parity suites compare it directly.
        self.candidates = 0

    def __repr__(self) -> str:
        return (
            f"RTreeStats(queries={self.queries}, node_tests={self.node_tests}, "
            f"entry_tests={self.entry_tests}, candidates={self.candidates})"
        )


def _str_order(centers, capacity: int):
    """STR packing: (row order, leaf group start offsets) for ``centers``.

    The classic slab recursion: sort by the current dimension, split into
    ``ceil(n_groups ** (1/(d-dim)))`` slabs, recurse into the next
    dimension per slab.
    """
    ndim = centers.shape[1]
    groups: list = []

    def tile(idx, dim: int) -> None:
        n = len(idx)
        if n <= capacity:
            groups.append(idx)
            return
        if dim >= ndim:
            for i in range(0, n, capacity):
                groups.append(idx[i : i + capacity])
            return
        n_groups = math.ceil(n / capacity)
        n_slabs = max(1, math.ceil(n_groups ** (1.0 / (ndim - dim))))
        slab_size = math.ceil(n / n_slabs)
        idx = idx[np.argsort(centers[idx, dim], kind="stable")]
        for i in range(0, n, slab_size):
            tile(idx[i : i + slab_size], dim + 1)

    tile(np.arange(len(centers), dtype=np.int64), 0)
    order = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
    starts = np.zeros(len(groups), dtype=np.int64)
    if groups:
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        starts[1:] = np.cumsum(sizes)[:-1]
    return order, starts


def _concat_ranges(starts, ends):
    """Concatenate ``arange(s, e)`` for each (s, e) pair, vectorized."""
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    offsets[1:] = np.cumsum(counts)[:-1]
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class _Level:
    """One tree level: node MBR arrays + child ranges into the level below."""

    __slots__ = ("mins", "maxs", "starts", "ends")

    def __init__(self, mins, maxs, starts, ends):
        self.mins = mins
        self.maxs = maxs
        self.starts = starts
        self.ends = ends


class PackedRTree:
    """A static R-tree over ``(n, d)`` box arrays, queried level-at-a-time.

    ``query_rows`` returns *row indices* into the arrays the tree was
    built from (callers keep their own payload indirection, e.g. a
    :class:`~repro.columnar.boxtable.BoxTable`'s ``rows`` list).
    """

    def __init__(self, mins, maxs, capacity: int = 16):
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 2:
            raise ValueError("mins/maxs must be matching (n, d) arrays")
        self._size, self._ndim = mins.shape
        self._capacity = capacity
        self.stats = RTreeStats()
        if self._size == 0:
            self._order = np.empty(0, dtype=np.int64)
            self._emins = mins
            self._emaxs = maxs
            self._levels: list[_Level] = []
            return
        order, starts = _str_order((mins + maxs) / 2.0, capacity)
        self._order = order
        # Entry arrays reordered into packed (leaf-contiguous) position.
        self._emins = mins[order]
        self._emaxs = maxs[order]
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1] = self._size
        levels = [
            _Level(
                np.minimum.reduceat(self._emins, starts, axis=0),
                np.maximum.reduceat(self._emaxs, starts, axis=0),
                starts,
                ends,
            )
        ]
        while len(levels[-1].mins) > 1:
            level = levels[-1]
            order, starts = _str_order((level.mins + level.maxs) / 2.0, capacity)
            # Permute this level so each parent's children are contiguous;
            # the per-node child ranges travel with the permutation.
            levels[-1] = _Level(
                level.mins[order], level.maxs[order],
                level.starts[order], level.ends[order],
            )
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = len(order)
            levels.append(
                _Level(
                    np.minimum.reduceat(levels[-1].mins, starts, axis=0),
                    np.maximum.reduceat(levels[-1].maxs, starts, axis=0),
                    starts,
                    ends,
                )
            )
        self._levels = levels

    def __getstate__(self) -> dict:
        # Probe counters are one process's observations, not part of the
        # index: a tree inside a broadcast structure must pickle the same
        # before and after it is queried (strict mode, REPRO109).
        return {**self.__dict__, "stats": RTreeStats()}

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._ndim

    @property
    def height(self) -> int:
        """Number of levels; 0 for an empty tree."""
        return len(self._levels)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the packed arrays, in bytes.

        Sums the entry arrays (reordered mins/maxs plus the row-order
        permutation) and every level's MBR + child-range arrays — the
        whole tree is arrays, so this is exact, and it is the per-entry
        charge byte-budgeted index caches account for.
        """
        total = int(self._order.nbytes) + int(self._emins.nbytes) + int(self._emaxs.nbytes)
        for level in self._levels:
            total += sum(
                int(a.nbytes)
                for a in (level.mins, level.maxs, level.starts, level.ends)
            )
        return total

    # -- queries ------------------------------------------------------------------

    def query_rows(self, box: STBox):
        """Sorted row indices whose boxes intersect ``box``."""
        if self._size and box.ndim != self._ndim:
            raise ValueError(
                f"query box has {box.ndim} dimensions, index has {self._ndim}"
            )
        return self.query_coords(
            np.asarray(box.mins, dtype=np.float64),
            np.asarray(box.maxs, dtype=np.float64),
        )

    def query_coords(self, qmin, qmax):
        """:meth:`query_rows` on raw ``(d,)`` coordinate arrays (no STBox)."""
        self.stats.queries += 1
        if self._size == 0:
            return np.empty(0, dtype=np.int64)
        sel = np.arange(len(self._levels[-1].mins), dtype=np.int64)
        for li in range(len(self._levels) - 1, 0, -1):
            level = self._levels[li]
            self.stats.node_tests += len(sel)
            hit = np.all(
                (level.mins[sel] <= qmax) & (level.maxs[sel] >= qmin), axis=1
            )
            nodes = sel[hit]
            sel = _concat_ranges(level.starts[nodes], level.ends[nodes])
        leaves = self._levels[0]
        self.stats.node_tests += len(sel)
        hit = np.all(
            (leaves.mins[sel] <= qmax) & (leaves.maxs[sel] >= qmin), axis=1
        )
        nodes = sel[hit]
        pos = _concat_ranges(leaves.starts[nodes], leaves.ends[nodes])
        self.stats.entry_tests += len(pos)
        emask = np.all(
            (self._emins[pos] <= qmax) & (self._emaxs[pos] >= qmin), axis=1
        )
        rows = self._order[pos[emask]]
        rows.sort()
        self.stats.candidates += len(rows)
        return rows

    def query_batch(self, boxes: Sequence[STBox]) -> list:
        """``query_rows`` for many boxes (one row-index array per box)."""
        return [self.query_rows(box) for box in boxes]

    def __repr__(self) -> str:
        return (
            f"PackedRTree(size={self._size}, ndim={self._ndim}, "
            f"height={self.height}, capacity={self._capacity})"
        )


def packed_tree_from_boxes(boxes: Sequence[STBox], capacity: int = 16) -> PackedRTree:
    """Build a PackedRTree from a sequence of same-dimension ``STBox``es."""
    if not boxes:
        return PackedRTree(
            np.empty((0, 1), dtype=np.float64),
            np.empty((0, 1), dtype=np.float64),
            capacity,
        )
    mins = np.array([b.mins for b in boxes], dtype=np.float64)
    maxs = np.array([b.maxs for b in boxes], dtype=np.float64)
    return PackedRTree(mins, maxs, capacity)
