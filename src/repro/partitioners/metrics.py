"""Partitioning quality metrics — Table 5's CV and OV.

* **CV** (coefficient of variation) = stddev / mean of partition record
  counts.  Smaller is better balanced.
* **OV** (overlap) = sum of per-partition ST MBR volumes over the volume of
  the global ST MBR.  An ST-aware partitioner produces tight, disjoint
  partitions whose volumes sum to ~1; a random partitioner's partitions
  each span (almost) the whole space, pushing OV toward the partition
  count.

Volumes are computed on *normalized* dimensions (each axis rescaled by the
global extent) so degrees and seconds combine meaningfully.
"""

from __future__ import annotations

from typing import Sequence

from repro.columnar.boxtable import BoxTable
from repro.engine.metrics import coefficient_of_variation
from repro.index.boxes import STBox
from repro.instances.base import Instance


def load_cv(partition_sizes: Sequence[int]) -> float:
    """Coefficient of variation of partition record counts."""
    return coefficient_of_variation(list(partition_sizes))


def partition_mbr(instances: Sequence[Instance]) -> STBox | None:
    """The ST MBR of a partition's actual contents (None when empty)."""
    if not instances:
        return None
    return BoxTable.from_instances(instances).bounds()


def _normalized_volume(box: STBox, global_box: STBox) -> float:
    """Product of per-axis lengths rescaled by the global lengths.

    Zero-length global axes (e.g. all data at one instant) are skipped, so
    the metric degrades gracefully instead of dividing by zero.
    """
    vol = 1.0
    for lo, hi, glo, ghi in zip(box.mins, box.maxs, global_box.mins, global_box.maxs):
        span = ghi - glo
        if span <= 0:
            continue
        vol *= (hi - lo) / span
    return vol


def load_ov(partitions: Sequence[Sequence[Instance]]) -> float:
    """Overlap metric over the actual contents of each partition.

    Measured on the data's own MBRs (not the theoretical partitioner
    boundaries), matching how the paper evaluates the layouts produced by
    systems that have no explicit boundary concept (native Spark).
    """
    mbrs = [partition_mbr(p) for p in partitions]
    mbrs = [m for m in mbrs if m is not None]
    if not mbrs:
        return 0.0
    global_box = STBox.merge_all(mbrs)
    return sum(_normalized_volume(m, global_box) for m in mbrs)


def evaluate_partitioning(partitions: Sequence[Sequence[Instance]]) -> dict:
    """CV + OV + size digest for one partition layout."""
    sizes = [len(p) for p in partitions]
    return {
        "partitions": len(partitions),
        "cv": load_cv(sizes),
        "ov": load_ov(partitions),
        "min_size": min(sizes) if sizes else 0,
        "max_size": max(sizes) if sizes else 0,
        "records": sum(sizes),
    }
