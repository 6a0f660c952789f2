"""Temporal-percentile partitioner."""

from __future__ import annotations

from repro.partitioners.tstr import TSTRPartitioner


class TBalancePartitioner(TSTRPartitioner):
    """Equal-count temporal slices (the paper's T-balance partitioner).

    The paper implements this with Spark's ``approx_percentile``; here the
    cuts are exact sample quantiles, which is the same estimator without
    the sketching error.  Spatial locality is not preserved: this is T-STR
    with one spatial cell per slice.
    """

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        super().__init__(num_partitions, 1)
