"""``Entry`` and the ``Instance`` base class.

Mirrors the Scala definitions of Section 3.2.1::

    class Entry[S <: Geometry, V](spatial: S, temporal: Duration, value: V)
    class Instance[S <: Geometry, V, D](entries: Array[Entry[S, V]], data: D)

Python being unityped, the S/V/D parameters become documentation-level
contracts enforced where they matter (e.g. a trajectory's entries must be
point-shaped and time-ordered).
"""

from __future__ import annotations

import hashlib
import math
import pickle
from typing import Any, Callable, Iterable, Sequence

from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.index.boxes import STBox
from repro.temporal.duration import Duration


class Entry:
    """One (geometry, duration, value) triple inside an instance."""

    __slots__ = ("spatial", "temporal", "value")

    def __init__(self, spatial: Geometry, temporal: Duration, value: Any = None):
        if not isinstance(spatial, Geometry):
            raise TypeError(f"spatial must be a Geometry, got {type(spatial).__name__}")
        if not isinstance(temporal, Duration):
            raise TypeError(
                f"temporal must be a Duration, got {type(temporal).__name__}"
            )
        self.spatial = spatial
        self.temporal = temporal
        self.value = value

    def with_value(self, value: Any) -> "Entry":
        """Copy with a replaced value field."""
        return Entry(self.spatial, self.temporal, value)

    def st_box(self) -> STBox:
        """The (x, y, t) bounding box."""
        return STBox.from_st(self.spatial.envelope, self.temporal)

    def intersects(self, spatial: Envelope | Geometry, temporal: Duration) -> bool:
        """True when the two geometries share any point."""
        return self.temporal.intersects(temporal) and self.spatial.intersects(
            spatial if isinstance(spatial, Geometry) else spatial
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return (
            self.spatial == other.spatial
            and self.temporal == other.temporal
            and self.value == other.value
        )

    def __repr__(self) -> str:
        return f"Entry({self.spatial!r}, {self.temporal!r}, value={self.value!r})"


class Instance:
    """Base class of the five ST instances.

    An instance offers uniform access to its ST extent (for indexing and
    selection) and the ``map_data`` "syntactic sugar" the paper gives
    application programmers for manipulating the data field in place.
    """

    __slots__ = ("entries", "data", "dup_primary")

    #: Overridden by subclasses; singular instances are atomic records,
    #: collective instances are structures of parallel cells.
    is_singular = True

    def __init__(self, entries: Sequence[Entry], data: Any = None):
        entries = tuple(entries)
        if not entries:
            raise ValueError(f"{type(self).__name__} needs at least one entry")
        self.entries = entries
        self.data = data
        # True on the original copy of an instance; duplicate-mode
        # partitioning (Algorithm 1's ``duplicate`` flag) marks the extra
        # per-partition replicas False so aggregate consumers can count
        # each instance exactly once while local-neighborhood consumers
        # (companion search) still see every copy.  Excluded from ``__eq__``:
        # a replica *is* its original, value-wise.
        self.dup_primary = True

    # -- ST extent -----------------------------------------------------------

    @property
    def spatial_extent(self) -> Envelope:
        """MBR of all entry geometries."""
        return Envelope.merge_all(e.spatial.envelope for e in self.entries)

    @property
    def temporal_extent(self) -> Duration:
        """Smallest duration covering all entry durations."""
        return Duration.merge_all(e.temporal for e in self.entries)

    def st_bounds(self) -> tuple[float, float, float, float, float, float]:
        """``(xmin, ymin, tmin, xmax, ymax, tmax)`` as plain floats.

        Exactly the values of ``spatial_extent``/``temporal_extent``, but
        without materializing an Envelope + Duration per call — the
        columnar extraction loops run this once per instance, where those
        allocations would dominate the whole vectorized pass.
        """
        xmin = ymin = tmin = math.inf
        xmax = ymax = tmax = -math.inf
        for e in self.entries:
            g = e.spatial
            if type(g) is Point:
                x = g.x
                y = g.y
                if x < xmin:
                    xmin = x
                if x > xmax:
                    xmax = x
                if y < ymin:
                    ymin = y
                if y > ymax:
                    ymax = y
            else:
                env = g.envelope
                if env.min_x < xmin:
                    xmin = env.min_x
                if env.max_x > xmax:
                    xmax = env.max_x
                if env.min_y < ymin:
                    ymin = env.min_y
                if env.max_y > ymax:
                    ymax = env.max_y
            t = e.temporal
            if t.start < tmin:
                tmin = t.start
            if t.end > tmax:
                tmax = t.end
        return xmin, ymin, tmin, xmax, ymax, tmax

    def st_box(self) -> STBox:
        """The (x, y, t) bounding box."""
        return STBox.from_st(self.spatial_extent, self.temporal_extent)

    def intersects(self, spatial: Envelope, temporal: Duration) -> bool:
        """True when *any* entry intersects the given ST range.

        This is the selection predicate of Section 3.1: a trajectory
        qualifies if any of its points falls in the range, an event if its
        single entry does.
        """
        if not self.temporal_extent.intersects(temporal):
            return False
        if not self.spatial_extent.intersects_envelope(spatial):
            return False
        return any(
            e.temporal.intersects(temporal) and e.spatial.intersects(spatial)
            for e in self.entries
        )

    # -- functional sugar ---------------------------------------------------------

    def map_data(self, f: Callable[[Any], Any]) -> "Instance":
        """Transform the data field, keeping entries unchanged (paper §3.2.2)."""
        return self._replace(entries=self.entries, data=f(self.data))

    def map_values(self, f: Callable[[Any], Any]) -> "Instance":
        """Transform every entry value, keeping geometry/duration unchanged."""
        return self._replace(
            entries=tuple(e.with_value(f(e.value)) for e in self.entries),
            data=self.data,
        )

    def _replace(self, entries: Iterable[Entry], data: Any) -> "Instance":
        """Rebuild the same concrete type with new contents."""
        clone = object.__new__(type(self))
        Instance.__init__(clone, tuple(entries), data)
        clone.dup_primary = self.dup_primary
        return clone

    def replica(self) -> "Instance":
        """A shallow copy marked as a non-primary duplicate.

        Used by duplicate-mode partitioning for the extra copies routed to
        secondary partitions; see :attr:`dup_primary`.
        """
        clone = self._replace(self.entries, self.data)
        clone.dup_primary = False
        return clone

    def identity(self) -> bytes:
        """A stable value-identity key, independent of the replica flag.

        Two instances that compare ``==`` produce the same digest (modulo
        pickle canonicalization of the ``data`` payload), so this is the
        natural ``distinct_by`` key for collapsing duplicate-mode replicas
        driver-side or across partitions.
        """
        payload = pickle.dumps(
            (
                type(self).__name__,
                tuple(
                    (
                        e.spatial.envelope.min_x,
                        e.spatial.envelope.min_y,
                        e.spatial.envelope.max_x,
                        e.spatial.envelope.max_y,
                        e.temporal.start,
                        e.temporal.end,
                        e.value,
                    )
                    for e in self.entries
                ),
                self.data,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return hashlib.blake2b(payload, digest_size=16).digest()

    # -- value semantics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.entries == other.entries and self.data == other.data

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self.entries)}, data={self.data!r})"
        )
