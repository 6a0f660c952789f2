"""Temporal-percentile partitioner."""

from __future__ import annotations

from typing import Sequence

from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED
from repro.partitioners.tiling import (
    bucket_interval,
    bucket_of,
    bucket_of_batch,
    buckets_overlapping,
    equal_count_cuts,
)


class TBalancePartitioner(STPartitioner):
    """Equal-count temporal slices (the paper's T-balance partitioner).

    The paper implements this with Spark's ``approx_percentile``; here the
    cuts are exact sample quantiles, which is the same estimator without
    the sketching error.  Spatial locality is not preserved.
    """

    def __init__(self, num_partitions: int):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        self._n = num_partitions
        self._cuts: list[float] | None = None

    def fit(self, sample: Sequence[Instance]) -> None:
        """Learn partition boundaries from a sample (see STPartitioner)."""
        if not sample:
            raise ValueError("cannot fit on an empty sample")
        self._cuts = equal_count_cuts(
            [inst.temporal_extent.center for inst in sample], self._n
        )
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        self._require_fitted()
        return len(self._cuts) + 1

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        return bucket_of(self._cuts, instance.temporal_extent.center)

    def assign_batch(self, instances: Sequence[Instance]) -> list[int]:
        """Vectorized :meth:`assign` (see STPartitioner for the contract)."""
        self._require_fitted()
        centers = [
            (b[2] + b[5]) / 2.0 for b in (inst.st_bounds() for inst in instances)
        ]
        return bucket_of_batch(self._cuts, centers).tolist()

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        dur = instance.temporal_extent
        return list(buckets_overlapping(self._cuts, dur.start, dur.end))

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        boxes = []
        for i in range(self.num_partitions):
            t_lo, t_hi = bucket_interval(self._cuts, i)
            boxes.append(
                STBox(
                    (-UNBOUNDED, -UNBOUNDED, t_lo),
                    (UNBOUNDED, UNBOUNDED, t_hi),
                )
            )
        return boxes
