"""Classic 2-d sort-tile-recursive partitioner."""

from __future__ import annotations

import numpy as np

from repro.columnar.boxtable import BoxTable
from repro.instances.base import Instance
from repro.partitioners.keyed import KeyedSTRPartitioner


def _no_key(instance: Instance) -> float:
    return 0.0


class STRPartitioner(KeyedSTRPartitioner):
    """Spatial-only STR tiling [Leutenegger et al. 1997].

    Preserves spatial proximity and balances load over space, but ignores
    time entirely — the weakness the T-STR partitioner fixes (Table 6
    compares them head-to-head).  The keyed STR with a single key slice.
    """

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        super().__init__(_no_key, 1, num_partitions)

    def _keys(self, table: BoxTable):
        return np.zeros(len(table))
