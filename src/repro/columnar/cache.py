"""Per-partition selection-index cache, keyed on partition identity.

The selector builds its per-partition index "on the fly" (Section 3.1) —
which meant a fresh R-tree per ``select()`` call even when the same
materialized partition is queried repeatedly in one pipeline.  This cache
keys indexes on the partition *list object* itself:

* the key is ``id(partition)`` and the entry keeps a strong reference to
  the list, so a hit is validated with ``entry.partition is partition`` —
  an ``id()`` reused after garbage collection can never alias a live
  entry;
* a repartition produces new list objects, so stale entries simply stop
  hitting; :func:`invalidate_partition_indexes` is additionally called on
  every repartition to release the strong references promptly (bounding
  memory, not correctness — a stale entry is unreachable, never wrong);
* the cache is a module-level singleton reached via in-function import
  from stage closures.  That keeps it out of the closure's captured cells
  (strict mode fingerprints captures before/after stages) and makes it
  naturally worker-local on the process backend: each worker re-imports
  the module and warms its own cache.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any, Callable, Hashable


#: Flat byte charge for cached values that do not report ``nbytes``.
_DEFAULT_ENTRY_COST = 256


def _value_nbytes(value: Any) -> int:
    """Byte charge for one cached index value.

    Every index the cache holds — :class:`~repro.columnar.boxtable.BoxTable`,
    :class:`~repro.columnar.packed_rtree.PackedRTree` — reports its own
    footprint through an ``nbytes`` attribute; anything else is charged a
    small flat cost so the accounting never under-reports to zero.
    """
    size = getattr(value, "nbytes", None)
    try:
        return int(size) if size is not None else _DEFAULT_ENTRY_COST
    except (TypeError, ValueError):
        return _DEFAULT_ENTRY_COST


class PartitionIndexCache:
    """Bounded LRU of per-partition indexes with identity validation.

    Two eviction knobs compose (either may be the binding one):

    * ``capacity`` — maximum entry count, the original bound;
    * ``max_bytes`` — maximum summed :func:`_value_nbytes` of the cached
      values (``None`` means unbounded).  This is the knob that lets a
      long-lived process — the ``repro serve`` daemon above all — enforce
      a real memory budget rather than hoping 64 entries happen to fit.

    Entries are evicted least-recently-used until both bounds hold; the
    most recent entry is always kept, even when it alone exceeds
    ``max_bytes`` — a cache that refuses the index it just built would
    force an immediate rebuild on the very next query.
    """

    def __init__(self, capacity: int = 64, max_bytes: int | None = None):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive (or None)")
        self._capacity = capacity
        self._max_bytes = max_bytes
        self._lock = Lock()
        self._entries: "OrderedDict[tuple, tuple[list, Any, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0

    @property
    def capacity(self) -> int:
        """Maximum entry count."""
        return self._capacity

    @property
    def max_bytes(self) -> int | None:
        """Byte budget for cached values (``None`` = unbounded)."""
        return self._max_bytes

    def configure(
        self, capacity: int | None = None, max_bytes: int | None | ellipsis = ...
    ) -> None:
        """Adjust the bounds in place (evicting immediately if needed).

        ``capacity=None`` leaves the count bound unchanged; ``max_bytes``
        uses ``...`` as the "unchanged" sentinel because ``None`` is a
        meaningful value (unbounded).
        """
        with self._lock:
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("cache capacity must be positive")
                self._capacity = capacity
            if max_bytes is not ...:
                if max_bytes is not None and max_bytes < 1:
                    raise ValueError("max_bytes must be positive (or None)")
                self._max_bytes = max_bytes
            self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._entries) > 1 and (
            len(self._entries) > self._capacity
            or (self._max_bytes is not None and self.bytes > self._max_bytes)
        ):
            _, (_, _, dropped) = self._entries.popitem(last=False)
            self.bytes -= dropped
            self.evictions += 1

    def get_or_build(
        self,
        partition: list,
        kind: Hashable,
        builder: Callable[[list], Any],
    ) -> tuple[Any, bool]:
        """Return ``(index, was_cached)`` for one partition and index kind.

        ``builder`` runs outside the lock; concurrent builders for the same
        key may race, in which case the last store wins (both values are
        equivalent — indexes are pure functions of the partition).
        """
        key = (id(partition), kind)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is partition:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[1], True
        value = builder(partition)
        size = _value_nbytes(value)
        with self._lock:
            self.misses += 1
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous[2]
            self._entries[key] = (partition, value, size)
            self.bytes += size
            self._evict_locked()
        return value, False

    def put(self, partition: list, kind: Hashable, value: Any) -> None:
        """Store a ready-made index for ``partition`` without building.

        The seeding entry point for indexes that arrive from outside the
        builder path — above all the mmapped BoxTables a v2 block hands
        back at decode time: the serve daemon plants them here so the
        first query over a freshly resident partition hits instead of
        re-extracting bounds instance-by-instance.  Counted as neither
        hit nor miss (no lookup happened).
        """
        key = (id(partition), kind)
        size = _value_nbytes(value)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous[2]
            self._entries[key] = (partition, value, size)
            self.bytes += size
            self._evict_locked()

    def clear(self) -> None:
        """Drop every entry (and the strong partition references)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide singleton behind every per-partition selection index.
_SELECTION_CACHE = PartitionIndexCache()


def selection_cache() -> PartitionIndexCache:
    """The process-wide per-partition selection-index cache."""
    return _SELECTION_CACHE


def invalidate_partition_indexes() -> None:
    """Drop all cached per-partition indexes (called on repartition)."""
    _SELECTION_CACHE.clear()


def configure_selection_cache(
    capacity: int | None = None, max_bytes: int | None | ellipsis = ...
) -> PartitionIndexCache:
    """Rebound the process-wide selection-index cache; returns it.

    The ``repro serve`` daemon calls this at startup to put the shared
    index tier under an explicit byte budget.
    """
    _SELECTION_CACHE.configure(capacity=capacity, max_bytes=max_bytes)
    return _SELECTION_CACHE


def partition_boxtable(partition: list):
    """The partition's BoxTable, cached: ``(table, was_cached)``."""
    from repro.columnar.boxtable import BoxTable

    return _SELECTION_CACHE.get_or_build(partition, "boxtable", BoxTable.from_instances)


def seed_partition_boxtable(partition: list, table) -> None:
    """Plant a ready-made BoxTable for ``partition`` (v2 mmapped columns).

    Subsequent :func:`partition_boxtable` calls for the *same list object*
    hit immediately; :func:`partition_packed_tree` then builds its tree
    over the seeded (mmapped) coordinates rather than re-extracted ones.
    """
    _SELECTION_CACHE.put(partition, "boxtable", table)


def partition_packed_tree(partition: list, capacity: int = 32):
    """The partition's packed R-tree over its BoxTable, cached.

    Returns ``(table, tree, was_cached)`` where ``was_cached`` reflects the
    tree entry (the table may have been cached earlier by an unindexed
    selection).
    """
    from repro.columnar.packed_rtree import PackedRTree

    table, _ = partition_boxtable(partition)

    def build(_p: list):
        mins, maxs = table.coords()
        return PackedRTree(mins, maxs, capacity=capacity)

    tree, hit = _SELECTION_CACHE.get_or_build(partition, ("packed", capacity), build)
    return table, tree, hit
