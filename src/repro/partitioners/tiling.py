"""Shared tiling machinery for the boundary-based partitioners."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.geometry.envelope import Envelope
from repro.partitioners.base import UNBOUNDED


def equal_count_cuts(values, k: int) -> list[float]:
    """``k - 1`` cut points splitting sorted ``values`` into equal-count runs.

    The cuts are sample quantiles; duplicates are allowed (heavily skewed
    samples can repeat a cut, producing empty middle partitions — the same
    degradation real sampled partitioners exhibit).
    """
    if k < 1:
        raise ValueError("cut count k must be at least 1")
    ordered = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    if not len(ordered) or k == 1:
        return []
    return ordered[[i * len(ordered) // k for i in range(1, k)]].tolist()


def bucket_of(cuts: Sequence[float], value: float) -> int:
    """Index of the bucket ``value`` falls into given sorted cut points.

    Half-open convention: bucket ``i`` covers ``[cuts[i-1], cuts[i])`` with
    the outer buckets unbounded, so assignment is total.
    """
    return bisect_right(cuts, value)


def bucket_of_batch(cuts: Sequence[float], values):
    """Vectorized :func:`bucket_of` over a float array of values.

    ``np.searchsorted(cuts, v, side="right")`` computes exactly
    ``bisect_right(cuts, v)`` per element, so batch and scalar assignment
    agree on every input, cut-sitting values included.
    """
    values = np.asarray(values, dtype=np.float64)
    if not cuts:
        return np.zeros(len(values), dtype=np.int64)
    return np.searchsorted(
        np.asarray(cuts, dtype=np.float64), values, side="right"
    ).astype(np.int64)


def buckets_overlapping(cuts: Sequence[float], lo: float, hi: float) -> range:
    """Indices of all buckets overlapped by the closed interval [lo, hi]."""
    first = bisect_right(cuts, lo)
    last = bisect_right(cuts, hi)
    # A closed interval touching a cut exactly also overlaps the bucket
    # below the cut (cuts themselves belong to the upper bucket).
    if first > 0 and lo == cuts[first - 1]:
        first -= 1
    return range(first, last + 1)


def bucket_interval(cuts: Sequence[float], index: int) -> tuple[float, float]:
    """The (lo, hi) extent of a bucket, using UNBOUNDED at the edges."""
    lo = cuts[index - 1] if index > 0 else -UNBOUNDED
    hi = cuts[index] if index < len(cuts) else UNBOUNDED
    return (lo, hi)


class Str2D:
    """A fitted 2-d sort-tile-recursive tiling.

    Implements the STR packing of Leutenegger et al.: points are split into
    ``ceil(sqrt(n))`` equal-count slabs along x, and each slab into rows
    along y.  The tiling covers the whole plane (outer cells stretch to
    UNBOUNDED) so assignment is total.
    """

    def __init__(self, xs, ys, n: int):
        if n < 1:
            raise ValueError("target partition count must be positive")
        if not len(xs):
            raise ValueError("cannot fit STR tiling on an empty sample")
        kx = max(1, math.ceil(math.sqrt(n)))
        ky = max(1, math.ceil(n / kx))
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        self.x_cuts = equal_count_cuts(xs, kx)
        # Slab membership comes from the cuts (not from even slicing) so
        # assignment and fitting agree exactly at duplicated cut values.
        slabs = bucket_of_batch(self.x_cuts, xs)
        self.y_cuts_per_slab: list[list[float]] = [
            equal_count_cuts(ys[slabs == slab], ky)
            for slab in range(len(self.x_cuts) + 1)
        ]
        self._offsets = [0]
        for cuts in self.y_cuts_per_slab:
            self._offsets.append(self._offsets[-1] + len(cuts) + 1)

    @property
    def cell_count(self) -> int:
        """Total number of tiling cells."""
        return self._offsets[-1]

    def cell_of(self, x: float, y: float) -> int:
        """Cell index containing the point (total over the plane)."""
        slab = bucket_of(self.x_cuts, x)
        row = bucket_of(self.y_cuts_per_slab[slab], y)
        return self._offsets[slab] + row

    def cells_of_batch(self, xs, ys):
        """Vectorized :meth:`cell_of` over coordinate arrays.

        One searchsorted over the x cuts picks each point's slab, then one
        searchsorted per *distinct occupied slab* places the points within
        it — the ragged ``y_cuts_per_slab`` lists prevent a single 2-d
        searchsorted, but the slab count is ~sqrt(num_partitions), so the
        Python loop is over slabs, never points.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        slabs = bucket_of_batch(self.x_cuts, xs)
        cells = np.empty(len(xs), dtype=np.int64)
        offsets = np.asarray(self._offsets, dtype=np.int64)
        for slab in np.unique(slabs):
            mask = slabs == slab
            rows = bucket_of_batch(self.y_cuts_per_slab[slab], ys[mask])
            cells[mask] = offsets[slab] + rows
        return cells

    def cells_overlapping(self, env: Envelope) -> list[int]:
        """All cell indices overlapped by the envelope."""
        cells = []
        for slab in buckets_overlapping(self.x_cuts, env.min_x, env.max_x):
            y_cuts = self.y_cuts_per_slab[slab]
            for row in buckets_overlapping(y_cuts, env.min_y, env.max_y):
                cells.append(self._offsets[slab] + row)
        return cells

    def cell_envelope(self, cell: int) -> Envelope:
        """The cell's rectangle (UNBOUNDED at outer edges)."""
        if not 0 <= cell < self.cell_count:
            raise IndexError(f"cell {cell} out of range")
        slab = 0
        while self._offsets[slab + 1] <= cell:
            slab += 1
        row = cell - self._offsets[slab]
        x_lo, x_hi = bucket_interval(self.x_cuts, slab)
        y_lo, y_hi = bucket_interval(self.y_cuts_per_slab[slab], row)
        return Envelope(x_lo, y_lo, x_hi, y_hi)
