"""The server-wide, byte-bounded LRU result cache.

The serve daemon's answer tier, above its resident blocks
(:class:`~repro.serve.server.DatasetState`): the blocks amortize open
and decode across queries that touch them, this cache the *whole answer*
across repeats of the same canonical query.  Entries are keyed on
:func:`repro.serve.protocol.query_cache_key` (canonical ``st_query_box``
+ dataset generation), so invalidation on append/repartition is free: the
generation bump changes every future key, and the stale entries age out
through the byte-budgeted LRU sweep (or are dropped eagerly by
:meth:`ResultCache.drop_stale_generations` when the server notices the
edit).

The cached value is the answer's ``records`` JSON array, already
rendered (:func:`repro.serve.protocol.records_fragment`): a hit splices
it into its response line and encodes nothing, and the byte charge is
its length (canonical JSON is ASCII) — the bytes held and a hit sends.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import Hashable


@dataclass
class CachedResult:
    """One cached answer: the rendered ``records`` array + accounting."""

    records: str
    count: int
    generation: int


class ResultCache:
    """Memory-bounded LRU over canonical-query keys; thread-safe.

    ``max_bytes`` bounds the summed byte charge of cached values.  The
    most recent entry survives even when it alone exceeds the budget, and
    there is no entry-count knob — results vary wildly in size, so bytes
    are the only honest bound.
    """

    def __init__(self, max_bytes: int = 64 << 20):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._lock = Lock()
        self._entries: "OrderedDict[Hashable, CachedResult]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: Hashable) -> CachedResult | None:
        """The entry for ``key`` (refreshing its recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, entry: CachedResult) -> None:
        """Store ``entry``, evicting LRU entries past the byte budget."""
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= len(previous.records)
            self._entries[key] = entry
            self.bytes += len(entry.records)
            while len(self._entries) > 1 and self.bytes > self.max_bytes:
                _, dropped = self._entries.popitem(last=False)
                self.bytes -= len(dropped.records)
                self.evictions += 1

    def drop_stale_generations(self, current: int) -> int:
        """Eagerly drop entries from generations other than ``current``.

        Correctness never needs this — stale generations stop *hitting*
        the moment the key changes — but a long-lived server should not
        let dead entries squat on the byte budget until LRU churn reaches
        them.  Returns the number dropped.
        """
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.generation != current
            ]
            for key in stale:
                self.bytes -= len(self._entries.pop(key).records)
            self.invalidations += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Counters for the ``stats`` op / trace export."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
