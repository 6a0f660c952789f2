"""Partitioner contract."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.columnar.boxtable import BoxTable
from repro.index.boxes import STBox
from repro.instances.base import Instance

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.rdd import RDD

#: Sentinel magnitude used for dimensions a partitioner does not constrain
#: (e.g. the temporal extent of a purely spatial partitioner).  Finite so
#: boxes stay JSON-serializable and index-safe.
UNBOUNDED = 1.0e18

#: Seed of the fit sample :meth:`STPartitioner.partition` draws by default.
SAMPLE_SEED = 17


def as_table(instances: BoxTable | Sequence[Instance]) -> BoxTable:
    """``instances`` as their extent table — the door every ``fit`` and
    ``assign_batch`` enters by: a sequence is extracted here, once; a table
    (the write path's batch, a compaction's mmapped columns) passes through."""
    if isinstance(instances, BoxTable):
        return instances
    return BoxTable.from_instances(instances)


def fit_table(sample: BoxTable | Sequence[Instance]) -> BoxTable:
    """:func:`as_table` for a ``fit``: an empty sample has no cuts to offer."""
    table = as_table(sample)
    if not len(table):
        raise ValueError("cannot fit on an empty sample")
    return table


def _fan_out_batch(
    partition: list, assign_batch, assign_all
) -> list[tuple[int, Instance]]:
    """Batched duplicate-mode routing for one partition.

    One primary copy per instance (in its ``assign_batch`` partition) and
    one tagged replica per additional partition ``assign_all`` reports.
    Module-level so the process backend can ship the routing stage with
    stdlib pickle.
    """
    routed: list[tuple[int, Instance]] = []
    for inst, primary in zip(partition, assign_batch(partition)):
        for pid in assign_all(inst):
            routed.append((pid, inst if pid == primary else inst.replica()))
    return routed


def _same_partition(partition: list) -> list:
    return partition


def _routed_pid(pair: tuple[int, Instance]) -> int:
    return pair[0]


def _routed_instance(pair: tuple[int, Instance]) -> Instance:
    return pair[1]


class STPartitioner(ABC):
    """Learns boundaries from a sample, then assigns instances to partitions.

    Lifecycle::

        p = TSTRPartitioner(gt=8, gs=16)
        partitioned = p.partition(rdd)          # fit on a sample + shuffle

    or, when the caller manages sampling itself::

        p.fit(sample_instances)
        partitioned = rdd.shuffle_by(p.num_partitions, p.assign)

    After fitting, ``boundaries()`` exposes one ST box per partition; the
    on-disk metadata writer (Section 4.1) persists these next to the data.

    ``fit`` and ``assign_batch`` consume *extents*: a
    :class:`~repro.columnar.boxtable.BoxTable`, or a sequence of instances
    :func:`as_table` converts, whose centre columns carry the arithmetic of
    ``Envelope.centroid`` / ``Duration.center`` — cuts and routing match the
    scalar :meth:`assign` bit for bit.  A partitioner that needs more than
    extents (a record hash, a custom key) reads ``table.rows``.
    """

    def __init__(self) -> None:
        self._fitted = False

    # -- fitting ------------------------------------------------------------------

    @abstractmethod
    def fit(self, sample: BoxTable | Sequence[Instance]) -> None:
        """Compute partition boundaries from a sample (a table or instances)."""

    @property
    def is_fitted(self) -> bool:
        """True once fit() has run."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before assigning"
            )

    # -- assignment -----------------------------------------------------------------

    @property
    @abstractmethod
    def num_partitions(self) -> int:
        """Partition count; valid after :meth:`fit`."""

    @abstractmethod
    def assign(self, instance: Instance) -> int:
        """Partition id for an instance, by its representative ST center.

        Total: any instance maps to exactly one partition, including
        instances outside the fitted sample's extent.
        """

    def assign_all(self, instance: Instance) -> list[int]:
        """All partitions whose region overlaps the instance's ST MBR.

        Used when ``duplicate=True``: cross-boundary instances are copied
        into every overlapping partition so local-only computations (e.g.
        companion search) stay correct.  Always contains
        ``assign(instance)``.
        """
        self._require_fitted()
        box = instance.st_box()
        primary = self.assign(instance)
        hits = {
            pid
            for pid, bound in enumerate(self.boundaries())
            if bound.intersects(box)
        }
        hits.add(primary)
        return sorted(hits)

    def assign_batch(self, instances: BoxTable | Sequence[Instance]) -> list[int]:
        """Partition ids for many instances (or a table's rows) at once.

        Contract: elementwise identical to :meth:`assign` —
        ``assign_batch(xs) == [assign(x) for x in xs]`` for every input.
        Subclasses override with vectorized kernels; this default is the
        scalar loop, so overriding is purely a performance choice.
        """
        rows = instances.rows if isinstance(instances, BoxTable) else instances
        return [self.assign(inst) for inst in rows]

    @abstractmethod
    def boundaries(self) -> list[STBox]:
        """One 3-d (x, y, t) box per partition, jointly covering all space."""

    # -- execution ---------------------------------------------------------------------

    def partition(
        self,
        rdd: "RDD[Instance]",
        sample_fraction: float = 0.1,
        duplicate: bool = False,
        seed: int = SAMPLE_SEED,
    ) -> "RDD[Instance]":
        """Fit on a sample of ``rdd`` and shuffle it into balanced partitions.

        The sampling-then-assigning flow follows Section 3.1: boundaries are
        computed from a fraction of the data ("takes much shorter time and
        only induces minor degradation in load balance"), then every record
        is routed in parallel through :meth:`assign_batch` — one vectorized
        call per partition.  An empty ``rdd`` has nothing to fit on or
        route and is returned as is (unfitted).

        The input is evaluated once: where tasks share the driver's memory,
        the sample and the shuffle both read one privately persisted child
        of ``rdd`` (``rdd`` itself comes back as it went in, persisted or
        not).  A persist cache does not cross the process backend's pickle
        boundary, so there the lineage runs for the sample and again for
        the shuffle, as on any unpersisted RDD.
        """
        from repro.columnar.cache import invalidate_partition_indexes

        source = rdd
        if not rdd.is_cached and not rdd.ctx.backend.requires_serializable_tasks:
            rdd = rdd.map_partitions(_same_partition).persist()
        sample = [x for p in rdd.sample(sample_fraction, seed)._collect_partitions() for x in p]
        if not sample:
            sample = rdd.take(1000)
        if not sample:
            return source
        self.fit(sample)
        if getattr(rdd.ctx, "strict", False):
            from repro.engine.sanitizer import validate_partitioner

            validate_partitioner(self, sample)
        # The shuffle replaces every partition list; cached per-partition
        # selection indexes keyed on the old lists are released eagerly.
        invalidate_partition_indexes()
        if not duplicate:
            return rdd.shuffle_by_batch(self.num_partitions, self.assign_batch)
        # Duplicate mode (Algorithm 1's ``duplicate`` flag): the copy that
        # lands in ``assign(inst)``'s partition stays the primary; copies
        # routed to other overlapping partitions are tagged replicas
        # (``dup_primary=False``), so aggregates can skip them while
        # local-neighborhood operators still see every copy.  The closed
        # intervals of Duration/Envelope intersection mean an instance
        # sitting exactly on a cell boundary always fans out — without the
        # tag it would be double-counted downstream.
        assign_batch = self.assign_batch
        assign_all = self.assign_all
        routed = rdd.map_partitions(
            lambda part: _fan_out_batch(part, assign_batch, assign_all)
        )
        return routed.shuffle_by(self.num_partitions, _routed_pid).map(_routed_instance)

    def partition_with_info(
        self,
        rdd: "RDD[Instance]",
        sample_fraction: float = 0.1,
        duplicate: bool = False,
        seed: int = SAMPLE_SEED,
    ) -> tuple["RDD[Instance]", list[STBox]]:
        """Like :meth:`partition` but also return the partition boundaries —
        the ``stPartitionWithInfo`` of Section 4.1's code example."""
        partitioned = self.partition(rdd, sample_fraction, duplicate, seed)
        return partitioned, self.boundaries()
