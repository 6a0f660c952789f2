"""Quadtree-based spatial partitioner."""

from __future__ import annotations

import math
from typing import Sequence

from repro.columnar.boxtable import BoxTable
from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox
from repro.index.quadtree import QuadTree
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED, fit_table


class QuadTreePartitioner(STPartitioner):
    """Partition regions are the leaves of a quadtree over a sample.

    Like STR, quadtree partitioning preserves spatial locality only; unlike
    STR, cell sizes adapt to density (dense hotspots split deeper), at the
    cost of a leaf count that only approximates the requested target.
    """

    def __init__(self, num_partitions: int):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        self._target = num_partitions
        self._leaves: list[Envelope] | None = None
        self._leaf_index: dict[Envelope, int] | None = None
        self._tree: QuadTree | None = None

    def fit(self, sample: BoxTable | Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        xs, ys, _ = fit_table(sample).centers()
        centers = list(zip(xs.tolist(), ys.tolist()))
        # A leaf splits at > capacity points, and a split produces 4 leaves;
        # sizing capacity this way lands the leaf count near the target.
        capacity = max(1, math.ceil(len(centers) / self._target))
        self._tree = QuadTree.build(centers, capacity=capacity)
        self._leaves = self._tree.leaves()
        self._leaf_index = {leaf: i for i, leaf in enumerate(self._leaves)}
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return len(self._leaves)

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        center = instance.spatial_extent.centroid()
        leaf = self._tree.leaf_for(center.x, center.y)
        return self._leaf_index[leaf]

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        env = instance.spatial_extent
        hits = [
            i for i, leaf in enumerate(self._leaves) if leaf.intersects_envelope(env)
        ]
        if not hits:
            # Instance lies entirely outside the fitted tree bounds; fall
            # back to the clamped primary assignment so routing stays total.
            hits = [self.assign(instance)]
        return hits

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        return [
            STBox(
                (leaf.min_x, leaf.min_y, -UNBOUNDED),
                (leaf.max_x, leaf.max_y, UNBOUNDED),
            )
            for leaf in self._leaves
        ]
