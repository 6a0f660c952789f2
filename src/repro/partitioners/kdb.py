"""K-D-B style partitioner (GeoSpark baseline).

GeoSpark's default spatial partitioning recursively splits space at the
median of alternating dimensions.  It balances record counts over *space*
but, like STR and quadtree, is blind to time — the property the paper's
Table 5 comparison isolates.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.columnar.boxtable import BoxTable
from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED, fit_table


class _KDNode:
    __slots__ = ("dim", "cut", "left", "right", "pid")

    def __init__(self, dim=None, cut=None, left=None, right=None, pid=None):
        self.dim = dim
        self.cut = cut
        self.left = left
        self.right = right
        self.pid = pid

    @property
    def is_leaf(self) -> bool:
        """True for leaf nodes (holding a partition id)."""
        return self.pid is not None


class KDBPartitioner(STPartitioner):
    """Median splits alternating x / y until ~``num_partitions`` leaves."""

    def __init__(self, num_partitions: int):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        self._target = num_partitions
        self._root: _KDNode | None = None
        self._bounds: list[tuple[float, float, float, float]] | None = None

    def fit(self, sample: BoxTable | Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        xs, ys, _ = fit_table(sample).centers()
        centers = list(zip(xs.tolist(), ys.tolist()))
        depth = max(0, math.ceil(math.log2(self._target)))
        self._bounds = []
        self._root = self._build(centers, 0, depth)
        self._fitted = True

    def _build(
        self,
        points: list[tuple[float, float]],
        depth: int,
        max_depth: int,
        region: tuple[float, float, float, float] = (
            -UNBOUNDED,
            -UNBOUNDED,
            UNBOUNDED,
            UNBOUNDED,
        ),
    ) -> _KDNode:
        if depth >= max_depth or len(points) <= 1:
            pid = len(self._bounds)
            self._bounds.append(region)
            return _KDNode(pid=pid)
        dim = depth % 2
        ordered = sorted(points, key=lambda p: p[dim])
        cut = ordered[len(ordered) // 2][dim]
        left_pts = [p for p in points if p[dim] < cut]
        right_pts = [p for p in points if p[dim] >= cut]
        if not left_pts or not right_pts:
            # All sample points identical along this dim; stop splitting.
            pid = len(self._bounds)
            self._bounds.append(region)
            return _KDNode(pid=pid)
        min_x, min_y, max_x, max_y = region
        if dim == 0:
            left_region = (min_x, min_y, cut, max_y)
            right_region = (cut, min_y, max_x, max_y)
        else:
            left_region = (min_x, min_y, max_x, cut)
            right_region = (min_x, cut, max_x, max_y)
        return _KDNode(
            dim=dim,
            cut=cut,
            left=self._build(left_pts, depth + 1, max_depth, left_region),
            right=self._build(right_pts, depth + 1, max_depth, right_region),
        )

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return len(self._bounds)

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        center = instance.spatial_extent.centroid()
        coords = (center.x, center.y)
        node = self._root
        while not node.is_leaf:
            node = node.left if coords[node.dim] < node.cut else node.right
        return node.pid

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        return [
            STBox((min_x, min_y, -UNBOUNDED), (max_x, max_y, UNBOUNDED))
            for min_x, min_y, max_x, max_y in self._bounds
        ]
