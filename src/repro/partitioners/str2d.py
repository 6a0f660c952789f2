"""Classic 2-d sort-tile-recursive partitioner."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED
from repro.partitioners.tiling import Str2D


class STRPartitioner(STPartitioner):
    """Spatial-only STR tiling [Leutenegger et al. 1997].

    Preserves spatial proximity and balances load over space, but ignores
    time entirely — the weakness the T-STR partitioner fixes (Table 6
    compares them head-to-head).
    """

    def __init__(self, num_partitions: int):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        self._target = num_partitions
        self._tiling: Str2D | None = None

    def fit(self, sample: Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        if not sample:
            raise ValueError("cannot fit on an empty sample")
        centers = [
            (c.x, c.y)
            for c in (inst.spatial_extent.centroid() for inst in sample)
        ]
        self._tiling = Str2D(centers, self._target)
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return self._tiling.cell_count

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        center = instance.spatial_extent.centroid()
        return self._tiling.cell_of(center.x, center.y)

    def assign_batch(self, instances: Sequence[Instance]) -> list[int]:
        """Vectorized :meth:`assign` (see STPartitioner for the contract)."""
        self._require_fitted()
        xs = np.empty(len(instances), dtype=np.float64)
        ys = np.empty(len(instances), dtype=np.float64)
        for i, inst in enumerate(instances):
            bx0, by0, _bt0, bx1, by1, _bt1 = inst.st_bounds()
            xs[i] = (bx0 + bx1) / 2.0
            ys[i] = (by0 + by1) / 2.0
        return self._tiling.cells_of_batch(xs, ys).tolist()

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        return sorted(self._tiling.cells_overlapping(instance.spatial_extent))

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        boxes = []
        for cell in range(self._tiling.cell_count):
            env = self._tiling.cell_envelope(cell)
            boxes.append(
                STBox(
                    (env.min_x, env.min_y, -UNBOUNDED),
                    (env.max_x, env.max_y, UNBOUNDED),
                )
            )
        return boxes
