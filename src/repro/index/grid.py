"""Regular-grid index with the analytic cell-range shortcut.

This implements the paper's "conversion with regular structures"
optimization (Section 4.2): when a collective structure's cells all have
the same size and densely tile the space, the cells an instance's MBR can
intersect are computed arithmetically —

    [max(0, (q_min - d_min) / d_interval), min(n-1, (q_max - d_min) / d_interval)]

per dimension — so no per-cell iteration is needed.  ``GridIndex``
generalizes this to 1-d (time series), 2-d (spatial map), and 3-d (raster)
regular structures.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Sequence

import numpy as np

from repro.index.boxes import STBox


class GridIndex:
    """Analytic index over a dense regular grid of cells.

    Parameters
    ----------
    extent:
        The N-d box the grid tiles.
    shape:
        Cells per dimension, e.g. ``(24,)`` for hourly slots, ``(32, 32)``
        for a spatial grid, ``(10, 10, 24)`` for a raster.

    Cell ids are flattened C-order (last dimension fastest), matching
    :func:`numpy.ravel_multi_index` conventions so callers can cross-check.
    """

    def __init__(self, extent: STBox, shape: Sequence[int]):
        if len(shape) != extent.ndim:
            raise ValueError("shape must match extent dimensionality")
        if any(n <= 0 for n in shape):
            raise ValueError("grid shape entries must be positive")
        self.extent = extent
        self.shape = tuple(int(n) for n in shape)
        self._steps = tuple(
            (hi - lo) / n for lo, hi, n in zip(extent.mins, extent.maxs, self.shape)
        )
        if any(step <= 0 for step in self._steps):
            raise ValueError("extent must have positive length in every dimension")

    @property
    def n_cells(self) -> int:
        """Number of structure cells."""
        return math.prod(self.shape)

    def cell_box(self, cell_id: int) -> STBox:
        """Return the box of a flattened cell id."""
        idx = self.unflatten(cell_id)
        mins = tuple(
            lo + i * step
            for lo, i, step in zip(self.extent.mins, idx, self._steps)
        )
        maxs = tuple(m + step for m, step in zip(mins, self._steps))
        return STBox(mins, maxs)

    def all_cell_boxes(self) -> list[STBox]:
        """Every cell's box, in flattened-id order."""
        return [self.cell_box(i) for i in range(self.n_cells)]

    def flatten(self, idx: Sequence[int]) -> int:
        """Multi-index to flattened C-order cell id."""
        flat = 0
        for i, n in zip(idx, self.shape):
            flat = flat * n + i
        return flat

    def unflatten(self, cell_id: int) -> tuple[int, ...]:
        """Flattened cell id to multi-index."""
        if not 0 <= cell_id < self.n_cells:
            raise IndexError(f"cell id {cell_id} out of range")
        idx = []
        for n in reversed(self.shape):
            idx.append(cell_id % n)
            cell_id //= n
        return tuple(reversed(idx))

    def _dim_range(self, dim: int, q_min: float, q_max: float) -> range:
        """Indices along one dimension whose cells may intersect [q_min, q_max].

        This is the paper's formula with closed-boundary care: a query value
        exactly on a cell boundary matches both neighboring cells, mirroring
        the closed-interval semantics of ``Envelope`` and ``Duration``.
        """
        lo = self.extent.mins[dim]
        step = self._steps[dim]
        n = self.shape[dim]
        first = math.floor((q_min - lo) / step)
        last = math.floor((q_max - lo) / step)
        # Boundary-touching queries include the cell below the boundary.
        if q_min > lo and (q_min - lo) / step == float(first):
            first -= 1
        first = max(0, first)
        last = min(n - 1, last)
        if first > last:
            return range(0)
        return range(first, last + 1)

    def candidate_cells(self, box: STBox) -> list[int]:
        """Flattened ids of cells whose boxes intersect the query box.

        For MBR-equals-shape instances (points, rectangles, durations) this
        is exact; for general shapes it is a superset the caller refines
        with exact intersection tests — exactly the two-phase plan of
        Section 4.2.
        """
        if box.ndim != self.extent.ndim:
            raise ValueError("query box dimensionality mismatch")
        if not box.intersects(self.extent):
            return []
        ranges = [
            self._dim_range(d, box.mins[d], box.maxs[d])
            for d in range(self.extent.ndim)
        ]
        return [self.flatten(idx) for idx in product(*ranges)]

    def candidate_ranges_batch(self, mins, maxs):
        """Vectorized :meth:`_dim_range` over ``(n, ndim)`` query arrays.

        Returns ``(firsts, lasts)`` int64 arrays of shape ``(n, ndim)``:
        per row and dimension, the inclusive index range of cells the query
        box may intersect.  An empty result (non-intersecting query, or an
        inverted per-dimension range) is signaled by ``first > last`` in at
        least one dimension — callers must check before enumerating.

        The arithmetic replicates :meth:`_dim_range` exactly in float64 —
        same floor, same boundary-touch decrement, same clamps — so
        enumerating ``product(range(f, l+1)...)`` yields the identical cell
        list to :meth:`candidate_cells`.
        """
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        ndim = self.extent.ndim
        if mins.ndim != 2 or mins.shape[1] != ndim or mins.shape != maxs.shape:
            raise ValueError("query arrays must be matching (n, ndim) arrays")
        n_rows = mins.shape[0]
        firsts = np.empty((n_rows, ndim), dtype=np.int64)
        lasts = np.empty((n_rows, ndim), dtype=np.int64)
        # candidate_cells() returns [] for queries missing the extent before
        # running _dim_range at all; mirror that with a mask applied last.
        alive = np.ones(n_rows, dtype=bool)
        for d in range(ndim):
            lo = self.extent.mins[d]
            hi = self.extent.maxs[d]
            step = self._steps[d]
            n = self.shape[d]
            alive &= (mins[:, d] <= hi) & (maxs[:, d] >= lo)
            dmin = (mins[:, d] - lo) / step
            first = np.floor(dmin)
            first -= (mins[:, d] > lo) & (dmin == first)
            last = np.floor((maxs[:, d] - lo) / step)
            # Clamp in float64 before the int cast: query coordinates reach
            # the +-1e18 unbounded-query sentinels, which overflow int64
            # after division by small steps.
            firsts[:, d] = np.clip(first, 0.0, float(n)).astype(np.int64)
            lasts[:, d] = np.clip(last, -1.0, float(n - 1)).astype(np.int64)
        firsts[~alive, 0] = 1
        lasts[~alive, 0] = 0
        return firsts, lasts

    def cell_of_point(self, coords: Sequence[float]) -> int | None:
        """The single cell containing a point, or ``None`` when outside.

        Boundary points are assigned to the higher cell except at the
        extent's own max boundary, where they fall back to the last cell —
        so the mapping is total over the extent.
        """
        if len(coords) != self.extent.ndim:
            raise ValueError("coordinate dimensionality mismatch")
        idx = []
        for d, c in enumerate(coords):
            lo = self.extent.mins[d]
            hi = self.extent.maxs[d]
            if c < lo or c > hi:
                return None
            i = int((c - lo) / self._steps[d])
            idx.append(min(i, self.shape[d] - 1))
        return self.flatten(idx)
