"""The T-STR partitioner — Algorithm 1 of the paper.

T-STR decouples the temporal and spatial dimensions: the sample is first
split along time into ``gt`` equal-count slices, then each slice is tiled
spatially with 2-d STR into ``gs`` cells, yielding ``gt * gs`` partitions
whose records are both time-local and space-local.  The temporal-first
order also matches the paper's efficiency argument: the cheap 1-d temporal
split chunks the data so the expensive spatial sorts run on smaller inputs
(in parallel on a real cluster).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner
from repro.partitioners.tiling import (
    Str2D,
    bucket_interval,
    bucket_of,
    bucket_of_batch,
    buckets_overlapping,
    equal_count_cuts,
)


class TSTRPartitioner(STPartitioner):
    """Temporal split into ``gt`` slices, then 2-d STR into ``gs`` per slice.

    Parameters mirror the paper's ``TSTRPartitioner(gt, gs)`` where gt and
    gs are the temporal and spatial granularities.
    """

    def __init__(self, gt: int, gs: int):
        super().__init__()
        if gt < 1 or gs < 1:
            raise ValueError("granularities must be positive")
        self.gt = gt
        self.gs = gs
        self._t_cuts: list[float] | None = None
        self._tilings: list[Str2D] | None = None
        self._offsets: list[int] | None = None

    def fit(self, sample: Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        if not sample:
            raise ValueError("cannot fit on an empty sample")
        reps = [
            (inst.spatial_extent.centroid(), inst.temporal_extent.center)
            for inst in sample
        ]
        self._t_cuts = equal_count_cuts([t for _, t in reps], self.gt)
        slice_count = len(self._t_cuts) + 1
        slices: list[list[tuple[float, float]]] = [[] for _ in range(slice_count)]
        for center, t in reps:
            slices[bucket_of(self._t_cuts, t)].append((center.x, center.y))
        self._tilings = []
        self._offsets = [0]
        for slice_points in slices:
            if slice_points:
                tiling = Str2D(slice_points, self.gs)
            else:
                # Degenerate slice (all sample timestamps equal): one cell.
                tiling = Str2D([(0.0, 0.0)], 1)
            self._tilings.append(tiling)
            self._offsets.append(self._offsets[-1] + tiling.cell_count)
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return self._offsets[-1]

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        t_slice = bucket_of(self._t_cuts, instance.temporal_extent.center)
        center = instance.spatial_extent.centroid()
        return self._offsets[t_slice] + self._tilings[t_slice].cell_of(
            center.x, center.y
        )

    def assign_batch(self, instances: Sequence[Instance]) -> list[int]:
        """Vectorized :meth:`assign` (see STPartitioner for the contract).

        Representative (x, y, t) centers are extracted in one Python pass,
        then each instance's temporal slice and spatial cell come from
        searchsorted kernels — the same arithmetic as :meth:`assign`, so
        the two agree on every input including cut-sitting centers.
        """
        self._require_fitted()
        ts = np.empty(len(instances), dtype=np.float64)
        xs = np.empty(len(instances), dtype=np.float64)
        ys = np.empty(len(instances), dtype=np.float64)
        for i, inst in enumerate(instances):
            bx0, by0, bt0, bx1, by1, bt1 = inst.st_bounds()
            ts[i] = (bt0 + bt1) / 2.0
            xs[i] = (bx0 + bx1) / 2.0
            ys[i] = (by0 + by1) / 2.0
        t_slices = bucket_of_batch(self._t_cuts, ts)
        pids = np.empty(len(instances), dtype=np.int64)
        for t_slice in np.unique(t_slices):
            mask = t_slices == t_slice
            cells = self._tilings[t_slice].cells_of_batch(xs[mask], ys[mask])
            pids[mask] = self._offsets[t_slice] + cells
        return pids.tolist()

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        dur = instance.temporal_extent
        env = instance.spatial_extent
        pids = []
        for t_slice in buckets_overlapping(self._t_cuts, dur.start, dur.end):
            base = self._offsets[t_slice]
            for cell in self._tilings[t_slice].cells_overlapping(env):
                pids.append(base + cell)
        return sorted(pids)

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        boxes = []
        for t_slice, tiling in enumerate(self._tilings):
            t_lo, t_hi = bucket_interval(self._t_cuts, t_slice)
            for cell in range(tiling.cell_count):
                env = tiling.cell_envelope(cell)
                boxes.append(
                    STBox(
                        (env.min_x, env.min_y, t_lo),
                        (env.max_x, env.max_y, t_hi),
                    )
                )
        return boxes
