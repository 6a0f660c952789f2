"""Record-level hash partitioner."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine.shuffle import stable_hash
from repro.index.boxes import STBox
from repro.instances.base import Instance
from repro.partitioners.base import STPartitioner, UNBOUNDED


def _canonical_key(instance: Instance) -> tuple:
    """A deterministic per-record key: data field + ST extent."""
    env = instance.spatial_extent
    dur = instance.temporal_extent
    return (
        repr(instance.data),
        env.min_x,
        env.min_y,
        env.max_x,
        env.max_y,
        dur.start,
        dur.end,
    )


class HashPartitioner(STPartitioner):
    """Random, balanced, ST-oblivious partitioning (paper Section 3.1).

    "Uses the hash value of each data entry as the partition key to ensure
    randomness and load balance at the data record level" — the right
    choice when the extraction logic needs no ST proximity.  Every
    partition's boundary is the full ST space, so the OV metric (Table 5)
    is maximal by construction.  Batched routing is the inherited scalar
    loop on purpose: ``stable_hash`` digests a canonical key per record, and
    an array form would silently change every record's placement.
    """

    def __init__(
        self,
        num_partitions: int,
        key_func: Callable[[Instance], object] | None = None,
    ):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        self._n = num_partitions
        self._key_func = key_func or _canonical_key

    def fit(self, sample: Sequence[Instance]) -> None:
        # Nothing to learn; fitting exists to satisfy the uniform lifecycle.
        """Learn partition boundaries from a sample (see STPartitioner)."""
        self._fitted = True

    @property
    def num_partitions(self) -> int:
        """Partition count; valid after fit()."""
        return self._n

    def assign(self, instance: Instance) -> int:
        """Partition id for an instance (see STPartitioner)."""
        self._require_fitted()
        return stable_hash(self._key_func(instance)) % self._n

    def assign_all(self, instance: Instance) -> list[int]:
        # Hash placement has no spatial boundaries to straddle.
        """All partitions overlapping the instance MBR (see STPartitioner)."""
        return [self.assign(instance)]

    def boundaries(self) -> list[STBox]:
        """One ST box per partition (see STPartitioner)."""
        self._require_fitted()
        full = STBox(
            (-UNBOUNDED, -UNBOUNDED, -UNBOUNDED),
            (UNBOUNDED, UNBOUNDED, UNBOUNDED),
        )
        return [full] * self._n
