"""STR-bulk-loaded R-tree over N-dimensional boxes.

The paper uses R-trees in three places.  Two of them — the per-partition
3-d selection indexes (§3.1) and the index over *structure cells*
broadcast for singular→collective conversion (§4.2) — only ever ask "which
rows intersect this box" and run on the array-packed
:class:`~repro.columnar.packed_rtree.PackedRTree`.  This node-object tree
carries arbitrary payloads and answers k-nearest-neighbour queries, which
is what the third place needs: the road-segment index accelerating
candidate search in HMM map matching (§3.2.2).

Bulk loading uses the Sort-Tile-Recursive packing of Leutenegger et al.
(the same STR the paper's partitioner is named after): items are sorted by
center coordinate and recursively tiled into slabs so every leaf holds
roughly ``capacity`` entries.  The tree also counts intersection tests via
``stats`` so benchmarks can report the pruning factor, not just wall-clock.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.index.boxes import STBox

T = TypeVar("T")


class _Node:
    __slots__ = ("box", "children", "entries")

    def __init__(
        self,
        box: STBox,
        children: list["_Node"] | None = None,
        entries: list[tuple[STBox, Any]] | None = None,
    ):
        self.box = box
        self.children = children
        self.entries = entries

    @property
    def is_leaf(self) -> bool:
        """True for leaf nodes (holding entries)."""
        return self.entries is not None


class RTreeStats:
    """Counters updated by every query; cheap enough to always keep on."""

    __slots__ = ("queries", "node_tests", "entry_tests", "candidates")

    def __init__(self) -> None:
        self.queries = 0
        self.node_tests = 0
        self.entry_tests = 0
        # Entries returned across all queries.  Unlike node/entry test
        # counts, this is a pure function of the data and the queries (not
        # of tree shape), so scalar and packed-columnar indexes report
        # identical values — the parity suites compare it directly.
        self.candidates = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.queries = 0
        self.node_tests = 0
        self.entry_tests = 0
        self.candidates = 0

    def __repr__(self) -> str:
        return (
            f"RTreeStats(queries={self.queries}, node_tests={self.node_tests}, "
            f"entry_tests={self.entry_tests}, candidates={self.candidates})"
        )


class RTree(Generic[T]):
    """A static (bulk-loaded) R-tree.

    Construction is via :meth:`build`; the tree is immutable afterwards,
    matching the paper's usage where indexes are built once per partition
    or broadcast once per conversion and never updated.
    """

    def __init__(self, root: _Node | None, ndim: int, size: int, capacity: int):
        self._root = root
        self._ndim = ndim
        self._size = size
        self._capacity = capacity
        self.stats = RTreeStats()

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        items: Iterable[tuple[STBox, T]],
        capacity: int = 16,
    ) -> "RTree[T]":
        """Bulk-load an R-tree from ``(box, payload)`` pairs.

        ``capacity`` bounds both leaf fan-out and internal fan-out.  An
        empty input yields an empty tree whose queries return nothing.
        """
        if capacity < 2:
            raise ValueError("node capacity must be at least 2")
        entries = list(items)
        if not entries:
            return cls(None, 0, 0, capacity)
        ndim = entries[0][0].ndim
        for box, _ in entries:
            if box.ndim != ndim:
                raise ValueError("all boxes must share the same dimensionality")
        leaves = cls._pack_leaves(entries, capacity, ndim)
        root = cls._build_upward(leaves, capacity, ndim)
        return cls(root, ndim, len(entries), capacity)

    @staticmethod
    def _str_tile(
        items: list,
        capacity: int,
        ndim: int,
        key_center: Callable[[Any], tuple[float, ...]],
        dim: int,
    ) -> list[list]:
        """Recursively sort-tile ``items`` into groups of <= ``capacity``."""
        if len(items) <= capacity:
            return [items]
        if dim >= ndim:
            # All dimensions consumed; chop sequentially.
            return [items[i : i + capacity] for i in range(0, len(items), capacity)]
        n_groups = math.ceil(len(items) / capacity)
        # Number of slabs along this dimension: the (ndim-dim)-th root of the
        # total group count, the classic STR slab calculation.
        n_slabs = max(1, math.ceil(n_groups ** (1.0 / (ndim - dim))))
        slab_size = math.ceil(len(items) / n_slabs)
        items = sorted(items, key=lambda item: key_center(item)[dim])
        groups: list[list] = []
        for i in range(0, len(items), slab_size):
            slab = items[i : i + slab_size]
            groups.extend(RTree._str_tile(slab, capacity, ndim, key_center, dim + 1))
        return groups

    @classmethod
    def _pack_leaves(
        cls,
        entries: list[tuple[STBox, T]],
        capacity: int,
        ndim: int,
    ) -> list[_Node]:
        groups = cls._str_tile(
            entries, capacity, ndim, lambda item: item[0].center(), 0
        )
        leaves = []
        for group in groups:
            box = STBox.merge_all([b for b, _ in group])
            leaves.append(_Node(box, entries=list(group)))
        return leaves

    @classmethod
    def _build_upward(
        cls, nodes: list[_Node], capacity: int, ndim: int
    ) -> _Node:
        while len(nodes) > 1:
            groups = cls._str_tile(
                nodes, capacity, ndim, lambda node: node.box.center(), 0
            )
            parents = []
            for group in groups:
                box = STBox.merge_all([n.box for n in group])
                parents.append(_Node(box, children=list(group)))
            nodes = parents
        return nodes[0]

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self._ndim

    @property
    def height(self) -> int:
        """Number of levels; 0 for an empty tree."""
        h = 0
        node = self._root
        while node is not None:
            h += 1
            node = None if node.is_leaf else node.children[0]
        return h

    #: Estimated per-node / per-entry heap cost used by :attr:`nbytes`.
    #: A ``_Node`` carries an ``STBox`` (two float tuples) plus slot
    #: pointers ≈ 200 bytes; an entry is an ``(STBox, payload)`` tuple
    #: whose box dominates ≈ 150 bytes (payloads belong to the caller and
    #: are not charged).
    _NODE_COST = 200
    _ENTRY_COST = 150

    @property
    def nbytes(self) -> int:
        """Estimated memory footprint of the tree's own storage, in bytes.

        Object trees have no exact byte count short of a heap walk; this
        counts nodes and entries once at documented per-item costs, which
        is stable, cheap, and accurate enough for cache byte budgets (the
        columnar structures report exact array sizes through the same
        attribute).
        """
        nodes = 0
        entries = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            nodes += 1
            if node.is_leaf:
                entries += len(node.entries)
            else:
                stack.extend(node.children)
        return nodes * self._NODE_COST + entries * self._ENTRY_COST

    def query(self, box: STBox) -> list[T]:
        """Return payloads whose boxes intersect ``box``."""
        return [payload for _, payload in self.query_entries(box)]

    def query_entries(self, box: STBox) -> list[tuple[STBox, T]]:
        """Return ``(box, payload)`` pairs intersecting the query box."""
        self.stats.queries += 1
        if self._root is None:
            return []
        if box.ndim != self._ndim:
            raise ValueError(
                f"query box has {box.ndim} dimensions, index has {self._ndim}"
            )
        results: list[tuple[STBox, T]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.stats.node_tests += 1
            if not node.box.intersects(box):
                continue
            if node.is_leaf:
                for entry_box, payload in node.entries:
                    self.stats.entry_tests += 1
                    if entry_box.intersects(box):
                        results.append((entry_box, payload))
            else:
                stack.extend(node.children)
        self.stats.candidates += len(results)
        return results

    def nearest(self, center: Sequence[float], k: int = 1) -> list[tuple[float, T]]:
        """Return the ``k`` entries nearest to a coordinate.

        Distance is Euclidean from the coordinate to each entry box (zero
        inside the box).  Used by map matching to shortlist candidate road
        segments; exactness is then re-established on the shortlist.
        """
        if self._root is None or k <= 0:
            return []
        if len(center) != self._ndim:
            raise ValueError("coordinate dimensionality mismatch")

        def box_distance(box: STBox) -> float:
            acc = 0.0
            for c, lo, hi in zip(center, box.mins, box.maxs):
                d = max(lo - c, c - hi, 0.0)
                acc += d * d
            return math.sqrt(acc)

        import heapq

        # Best-first search over (distance, tiebreak, node-or-entry).
        counter = 0
        heap: list[tuple[float, int, bool, Any]] = []
        heapq.heappush(heap, (box_distance(self._root.box), counter, False, self._root))
        results: list[tuple[float, T]] = []
        while heap and len(results) < k:
            dist, _, is_entry, item = heapq.heappop(heap)
            if is_entry:
                results.append((dist, item[1]))
                continue
            node = item
            if node.is_leaf:
                for entry in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap, (box_distance(entry[0]), counter, True, entry)
                    )
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap, (box_distance(child.box), counter, False, child)
                    )
        return results

    def all_entries(self) -> list[tuple[STBox, T]]:
        """Every (box, payload) pair in the tree, in leaf order."""
        if self._root is None:
            return []
        results = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                results.extend(node.entries)
            else:
                stack.extend(node.children)
        return results
