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

from repro.columnar.boxtable import BoxTable
from repro.instances.base import Instance
from repro.partitioners.keyed import KeyedSTRPartitioner
from repro.partitioners.tiling import bucket_interval, buckets_overlapping


def _temporal_center(instance: Instance) -> float:
    return instance.temporal_extent.center


class TSTRPartitioner(KeyedSTRPartitioner):
    """Temporal split into ``gt`` slices, then 2-d STR into ``gs`` per slice.

    Parameters mirror the paper's ``TSTRPartitioner(gt, gs)`` where gt and
    gs are the temporal and spatial granularities.  This is the keyed STR
    whose key is the temporal centre — read off the extent table's columns
    rather than record by record — and, the key being the time axis, whose
    slices bound their boxes in time and can be straddled by a duration.
    """

    def __init__(self, gt: int, gs: int):
        super().__init__(_temporal_center, gt, gs)
        self.gt = gt

    def _keys(self, table: BoxTable):
        return table.centers()[2]

    def _key_interval(self, key_slice: int) -> tuple[float, float]:
        return bucket_interval(self._cuts, key_slice)

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        self._require_fitted()
        dur = instance.temporal_extent
        env = instance.spatial_extent
        pids = []
        for t_slice in buckets_overlapping(self._cuts, dur.start, dur.end):
            base = self._offsets[t_slice]
            for cell in self._tilings[t_slice].cells_overlapping(env):
                pids.append(base + cell)
        return sorted(pids)
