"""Lazy partitioned collections with the Spark RDD API.

The transformation/action split, lineage-based evaluation, and
shuffle-at-stage-boundary semantics all mirror Spark:

* narrow transformations (``map``, ``filter``, ``flatMap``,
  ``mapPartitions``) chain lazily and are evaluated inside a single task;
* wide transformations (``reduceByKey``, ``groupByKey``, ``repartition``,
  ``shuffle_by``, ``sortBy``, ``join``) materialize their parent's output
  into hash buckets, metering the records that cross the boundary;
* ``reduceByKey`` and friends apply a map-side combine before bucketing, so
  the engine reproduces the classic ``reduceByKey`` <
  ``groupByKey().mapValues(sum)`` shuffle-volume gap the paper discusses in
  Section 2.2.

Actions evaluate the lineage through :meth:`EngineContext.run_stage`, which
retries failed tasks and records per-task metrics.
"""

from __future__ import annotations

import pickle
import random
from bisect import bisect_right
from collections import defaultdict
from threading import Lock
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

from repro.engine.context import EngineContext
from repro.engine.shuffle import hash_partition

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


def sampled_positions(split: int, n: int, fraction: float, seed: int) -> list[int]:
    """Positions :meth:`RDD.sample` keeps of partition ``split``'s ``n`` items —
    a function of position alone, so a caller holding the items in another
    form (the dataset writer's extent table) can draw the identical sample."""
    rng = random.Random(seed * 1_000_003 + split)
    return [i for i in range(n) if rng.random() < fraction]


def _identity_key(x: Any) -> Any:
    """Shuffle key for :meth:`RDD.distinct`: the element, or its bytes.

    Unhashable elements can't serve as combine-dict keys, so they are
    replaced by their pickled form (tagged to avoid colliding with a
    legitimate ``(marker, bytes)`` element).  Module-level so the process
    backend can ship it with stdlib pickle alone.
    """
    try:
        hash(x)
    except TypeError:
        return ("__repro_unhashable__", pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL))
    return x


class RDD(Generic[T]):
    """An immutable, lazily-evaluated, partitioned collection."""

    def __init__(self, ctx: EngineContext, num_partitions: int):
        if num_partitions < 1:
            raise ValueError("an RDD needs at least one partition")
        self.ctx = ctx
        self.num_partitions = num_partitions
        self._cache: dict[int, list] | None = None

    # -- construction (package-internal) ----------------------------------------

    @staticmethod
    def _from_collection(ctx: EngineContext, items: list, num_partitions: int) -> "RDD":
        size = len(items)
        partitions: list[list] = []
        for i in range(num_partitions):
            start = i * size // num_partitions
            end = (i + 1) * size // num_partitions
            partitions.append(items[start:end])
        return _SourceRDD(ctx, partitions)

    @staticmethod
    def _from_partitions(ctx: EngineContext, partitions: list[list]) -> "RDD":
        if not partitions:
            partitions = [[]]
        return _SourceRDD(ctx, partitions)

    # -- evaluation core ------------------------------------------------------------

    def _compute(self, split: int) -> list:
        raise NotImplementedError

    def _partition(self, split: int) -> list:
        """Materialize one partition, honoring the persist cache."""
        if self._cache is not None and split in self._cache:
            return self._cache[split]
        data = self._compute(split)
        if self._cache is not None:
            self._cache[split] = data
        return data

    def _collect_partitions(self) -> list[list]:
        """Run a stage over all partitions and return their contents."""
        if self.ctx.backend.requires_serializable_tasks and not self.ctx._worker_side:
            self._materialize_shuffle_deps()
        return self.ctx.run_stage(self.num_partitions, self._partition)

    def _materialize_shuffle_deps(self) -> None:
        """Materialize every shuffle in the lineage driver-side, deepest first.

        Process-pool workers each hold a *copy* of the lineage: if a
        shuffle's buckets were still lazy at dispatch, every worker would
        independently re-run the whole map side (and its shuffle counters
        would be lost with the worker's context copy).  Forcing shuffles
        bottom-up in the driver keeps exactly one map stage per shuffle —
        the same stage decomposition the pull-based evaluation performs —
        and ships the materialized buckets to workers as plain data.
        """
        ordered: list[_ShuffledRDD] = []
        seen: set[int] = set()

        def walk(rdd: "RDD") -> None:
            if id(rdd) in seen:
                return
            seen.add(id(rdd))
            for parent in rdd._parents():
                walk(parent)
            if isinstance(rdd, _ShuffledRDD):
                ordered.append(rdd)

        walk(self)
        for shuffled in ordered:  # post-order: dependencies before dependents
            shuffled._ensure_shuffled()

    # -- caching ------------------------------------------------------------------------

    def persist(self) -> "RDD[T]":
        """Keep computed partitions in memory for reuse (``cache`` alias)."""
        if self._cache is None:
            self._cache = {}
        return self

    cache = persist

    def unpersist(self) -> "RDD[T]":
        """Drop the partition cache."""
        self._cache = None
        return self

    @property
    def is_cached(self) -> bool:
        """True when persist() has been called."""
        return self._cache is not None

    def checkpoint(self, directory) -> "RDD[T]":
        """Materialize to disk and return a source RDD cut free of lineage.

        The Spark analog: long iterative lineages are truncated by writing
        partitions out and reading them back as a fresh source.  Partition
        layout is preserved; the files are plain pickles under
        ``directory``.
        """
        import pickle
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        partitions = self._collect_partitions()
        for i, partition in enumerate(partitions):
            (directory / f"checkpoint-{i:05d}.pkl").write_bytes(
                pickle.dumps(partition, protocol=pickle.HIGHEST_PROTOCOL)
            )
        restored = []
        for i in range(len(partitions)):
            restored.append(
                pickle.loads((directory / f"checkpoint-{i:05d}.pkl").read_bytes())
            )
        return RDD._from_partitions(self.ctx, restored)

    # -- narrow transformations ------------------------------------------------------

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        """Apply ``f`` to every element."""
        return _MapPartitionsRDD(self, lambda _, it: [f(x) for x in it])

    def filter(self, f: Callable[[T], bool]) -> "RDD[T]":
        """Keep elements where ``f`` is true."""
        return _MapPartitionsRDD(self, lambda _, it: [x for x in it if f(x)])

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Apply ``f`` and flatten the resulting iterables."""
        return _MapPartitionsRDD(
            self, lambda _, it: [y for x in it for y in f(x)]
        )

    def map_partitions(self, f: Callable[[list], Iterable[U]]) -> "RDD[U]":
        """Transform each partition's list as a whole."""
        return _MapPartitionsRDD(self, lambda _, it: list(f(it)))

    def map_partitions_with_index(
        self, f: Callable[[int, list], Iterable[U]]
    ) -> "RDD[U]":
        """Like map_partitions, with the partition index."""
        return _MapPartitionsRDD(self, lambda i, it: list(f(i, it)))

    def glom(self) -> "RDD[list]":
        """One element per partition: the partition's contents as a list."""
        return _MapPartitionsRDD(self, lambda _, it: [list(it)])

    def key_by(self, f: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        """Pair each element with ``f(element)`` as its key."""
        return self.map(lambda x: (f(x), x))

    def map_values(self, f: Callable[[V], U]) -> "RDD[tuple[K, U]]":
        """Transform the value of each (key, value) pair."""
        return self.map(lambda kv: (kv[0], f(kv[1])))

    def flat_map_values(self, f: Callable[[V], Iterable[U]]) -> "RDD[tuple[K, U]]":
        """Flat-map the value of each (key, value) pair, keeping keys."""
        return self.flat_map(lambda kv: [(kv[0], v) for v in f(kv[1])])

    def keys(self) -> "RDD[K]":
        """The keys of a pair RDD."""
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD[V]":
        """The values of a pair RDD."""
        return self.map(lambda kv: kv[1])

    def sample(self, fraction: float, seed: int = 17) -> "RDD[T]":
        """Bernoulli sample, deterministic per (seed, partition)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

        def sampler(split: int, items: list) -> list:
            return [items[i] for i in sampled_positions(split, len(items), fraction, seed)]

        return _MapPartitionsRDD(self, sampler)

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair each element with a global 0-based index.

        Like Spark, this needs a first pass to learn partition sizes, then
        a second pass to emit the offsets.
        """
        sizes = [len(p) for p in self._collect_partitions()]
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def indexer(split: int, items: list) -> list:
            base = offsets[split]
            return [(x, base + i) for i, x in enumerate(items)]

        return _MapPartitionsRDD(self, indexer)

    def union(self, other: "RDD[T]") -> "RDD[T]":
        """Concatenate two RDDs' partitions (no shuffle)."""
        if other.ctx is not self.ctx:
            raise ValueError("cannot union RDDs from different contexts")
        return _UnionRDD(self, other)

    def cartesian(self, other: "RDD[U]") -> "RDD[tuple[T, U]]":
        """All pairs; the naive conversion baseline of Section 4.2."""
        return _CartesianRDD(self, other)

    def zip_partitions(
        self, other: "RDD[U]", f: Callable[[list, list], Iterable[Any]]
    ) -> "RDD[Any]":
        """Combine co-numbered partitions of two RDDs."""
        if other.num_partitions != self.num_partitions:
            raise ValueError("zip_partitions requires equal partition counts")
        return _ZipPartitionsRDD(self, other, f)

    def coalesce(self, num_partitions: int) -> "RDD[T]":
        """Reduce partition count by concatenating neighbors (no shuffle)."""
        if num_partitions < 1:
            raise ValueError("partition count must be positive")
        if num_partitions >= self.num_partitions:
            return self
        return _CoalescedRDD(self, num_partitions)

    # -- wide transformations -------------------------------------------------------------

    def repartition(self, num_partitions: int) -> "RDD[T]":
        """Round-robin shuffle into ``num_partitions`` balanced partitions."""
        if num_partitions < 1:
            raise ValueError("partition count must be positive")

        def assign(split: int, items: list) -> list:
            return [((split + j) % num_partitions, x) for j, x in enumerate(items)]

        pairs = self.map_partitions_with_index(assign)
        return _ShuffledRDD(pairs, num_partitions, direct_key=True, values_only=True)

    def shuffle_by(
        self,
        num_partitions: int,
        assign: Callable[[T], int | Iterable[int]],
    ) -> "RDD[T]":
        """Place each element into explicit target partition(s).

        This is the primitive the ST partitioners use: ``assign`` returns a
        partition id (or several, when boundary records must be duplicated
        for correctness, cf. Algorithm 1's ``duplicate`` flag).
        """
        def expand(x: T) -> list[tuple[int, T]]:
            target = assign(x)
            if isinstance(target, int):
                return [(target % num_partitions, x)]
            return [(t % num_partitions, x) for t in target]

        return _ShuffledRDD(
            self.flat_map(expand),
            num_partitions,
            key_of=lambda kv: kv[0],
            direct_key=True,
            values_only=True,
        )

    def shuffle_by_batch(
        self,
        num_partitions: int,
        assign_batch: Callable[[list], Sequence[int]],
    ) -> "RDD[T]":
        """Like :meth:`shuffle_by`, but assignment runs once per partition.

        ``assign_batch(items)`` returns one target partition id per item —
        the hook the columnar partitioners use to vectorize routing.  Ids
        are coerced with ``int()`` so numpy integer scalars route exactly
        like Python ints.
        """
        def expand(split: int, items: list) -> list[tuple[int, T]]:
            if not items:
                return []
            return [
                (int(pid) % num_partitions, x)
                for pid, x in zip(assign_batch(items), items)
            ]

        return _ShuffledRDD(
            self.map_partitions_with_index(expand),
            num_partitions,
            key_of=lambda kv: kv[0],
            direct_key=True,
            values_only=True,
        )

    def group_by_key(self, num_partitions: int | None = None) -> "RDD[tuple[K, list]]":
        """Full shuffle of every record, grouped on the reduce side."""
        n = num_partitions or self.num_partitions
        return _ShuffledRDD(self, n, group=True)

    def reduce_by_key(
        self, f: Callable[[V, V], V], num_partitions: int | None = None
    ) -> "RDD[tuple[K, V]]":
        """Shuffle with map-side combine — fewer records cross the wire."""
        return self.combine_by_key(lambda v: v, f, f, num_partitions)

    def fold_by_key(
        self, zero: V, f: Callable[[V, V], V], num_partitions: int | None = None
    ) -> "RDD[tuple[K, V]]":
        """reduce_by_key with an initial ``zero`` per key."""
        return self.combine_by_key(lambda v: f(zero, v), f, f, num_partitions)

    def aggregate_by_key(
        self,
        zero: U,
        seq: Callable[[U, V], U],
        comb: Callable[[U, U], U],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, U]]":
        """Per-key aggregation with distinct seq/comb functions."""
        import copy

        return self.combine_by_key(
            lambda v: seq(copy.deepcopy(zero), v), seq, comb, num_partitions
        )

    def combine_by_key(
        self,
        create: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, U]]":
        """The general map-side-combined shuffle (Spark's combineByKey)."""
        n = num_partitions or self.num_partitions
        return _ShuffledRDD(
            self,
            n,
            create=create,
            merge_value=merge_value,
            merge_combiners=merge_combiners,
        )

    def distinct(self, num_partitions: int | None = None) -> "RDD[T]":
        """Unique elements (via a combine shuffle).

        Unhashable elements (instances whose ``data`` payload is a list or
        dict) fall back to their serialized bytes as the identity key, so
        equality is value equality up to pickle canonicalization — two
        equal dicts built in different insertion orders serialize
        differently and are kept as two elements.  Hashable elements use
        ordinary ``==`` semantics, as before.
        """
        return self.distinct_by(_identity_key, num_partitions)

    def distinct_by(
        self, key: Callable[[T], Any], num_partitions: int | None = None
    ) -> "RDD[T]":
        """Unique elements under a key function; keeps one witness per key.

        The workhorse behind :meth:`distinct`, exposed because callers
        often have a cheaper or more meaningful identity than whole-object
        equality — e.g. ``Instance.identity()`` to collapse the replicas
        that ``duplicate=True`` selection fans out across partitions.
        """
        return (
            self.map(lambda x: (key(x), x))
            .reduce_by_key(lambda a, _: a, num_partitions)
            .values()
        )

    def group_by(
        self, f: Callable[[T], K], num_partitions: int | None = None
    ) -> "RDD[tuple[K, list]]":
        """Group elements by ``f(element)``."""
        return self.key_by(f).group_by_key(num_partitions)

    def cogroup(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[list, list]]]":
        """Group both RDDs' values per key: (key, (left values, right values))."""
        n = num_partitions or max(self.num_partitions, other.num_partitions)
        tagged = self.map_values(lambda v: (0, v)).union(
            other.map_values(lambda v: (1, v))
        )
        def split_groups(tagged_values: list) -> tuple[list, list]:
            left = [v for tag, v in tagged_values if tag == 0]
            right = [v for tag, v in tagged_values if tag == 1]
            return (left, right)

        return tagged.group_by_key(n).map_values(split_groups)

    def join(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[V, U]]]":
        """Inner join of two pair RDDs by key."""
        def pairs(groups: tuple[list, list]) -> list:
            left, right = groups
            return [(lv, rv) for lv in left for rv in right]

        return self.cogroup(other, num_partitions).flat_map_values(pairs)

    def intersection(self, other: "RDD[T]", num_partitions: int | None = None) -> "RDD[T]":
        """Distinct elements present in both RDDs."""
        def both_sides(groups: tuple[list, list]) -> list:
            left, right = groups
            return [None] if left and right else []

        tagged_self = self.map(lambda x: (x, None))
        tagged_other = other.map(lambda x: (x, None))
        return (
            tagged_self.cogroup(tagged_other, num_partitions)
            .flat_map_values(both_sides)
            .keys()
        )

    def subtract(self, other: "RDD[T]", num_partitions: int | None = None) -> "RDD[T]":
        """Elements of this RDD not present in ``other`` (multiset kept)."""
        def only_left(groups: tuple[list, list]) -> list:
            left, right = groups
            return left if not right else []

        tagged_self = self.map(lambda x: (x, x))
        tagged_other = other.map(lambda x: (x, x))
        return (
            tagged_self.cogroup(tagged_other, num_partitions)
            .flat_map_values(only_left)
            .values()
        )

    def left_outer_join(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[V, U | None]]]":
        """Left outer join: unmatched left keys pair with None."""
        def pairs(groups: tuple[list, list]) -> list:
            left, right = groups
            if not right:
                return [(lv, None) for lv in left]
            return [(lv, rv) for lv in left for rv in right]

        return self.cogroup(other, num_partitions).flat_map_values(pairs)

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD[T]":
        """Total sort via sampled range partitioning, as Spark does."""
        n = num_partitions or self.num_partitions
        if n == 1:
            return _MapPartitionsRDD(
                self.coalesce(1),
                lambda _, it: sorted(it, key=key_func, reverse=not ascending),
            )
        sample_keys = sorted(
            key_func(x)
            for p in self.sample(0.2, seed=41)._collect_partitions()
            for x in p
        )
        if not sample_keys:
            # Sample missed everything (tiny input): fall back to full keys.
            sample_keys = sorted(key_func(x) for x in self.collect())
        if not sample_keys:
            return self
        bounds = [
            sample_keys[(i + 1) * len(sample_keys) // n] for i in range(n - 1)
        ]

        def assign(x: T) -> int:
            idx = bisect_right(bounds, key_func(x))
            return idx if ascending else (n - 1 - idx)

        ranged = self.shuffle_by(n, assign)
        return _MapPartitionsRDD(
            ranged, lambda _, it: sorted(it, key=key_func, reverse=not ascending)
        )

    def sort_by_key(self, ascending: bool = True, num_partitions: int | None = None):
        """sort_by on the first tuple element."""
        return self.sort_by(lambda kv: kv[0], ascending, num_partitions)

    # -- actions ----------------------------------------------------------------------------

    def collect(self) -> list[T]:
        """All elements, in partition order."""
        return [x for p in self._collect_partitions() for x in p]

    def count(self) -> int:
        """Number of elements."""
        return sum(len(p) for p in self._collect_partitions())

    def is_empty(self) -> bool:
        """True when no partition holds an element."""
        return all(not self._partition(i) for i in range(self.num_partitions))

    def first(self) -> T:
        """The first element; raises on an empty RDD."""
        for i in range(self.num_partitions):
            part = self._partition(i)
            if part:
                return part[0]
        raise ValueError("RDD is empty")

    def take(self, n: int) -> list[T]:
        """First ``n`` elements, evaluating only as many partitions as needed."""
        result: list[T] = []
        for i in range(self.num_partitions):
            if len(result) >= n:
                break
            result.extend(self._partition(i))
        return result[:n]

    def top(self, n: int, key: Callable[[T], Any] | None = None) -> list[T]:
        """The ``n`` largest elements, descending."""
        import heapq

        partials = [
            heapq.nlargest(n, p, key=key) for p in self._collect_partitions()
        ]
        merged = [x for p in partials for x in p]
        return heapq.nlargest(n, merged, key=key)

    def take_ordered(self, n: int, key: Callable[[T], Any] | None = None) -> list[T]:
        """The ``n`` smallest elements, ascending."""
        import heapq

        partials = [
            heapq.nsmallest(n, p, key=key) for p in self._collect_partitions()
        ]
        merged = [x for p in partials for x in p]
        return heapq.nsmallest(n, merged, key=key)

    def reduce(self, f: Callable[[T, T], T]) -> T:
        """Fold all elements with ``f``; raises on an empty RDD."""
        from functools import reduce as _reduce

        parts = [
            _reduce(f, p) for p in self._collect_partitions() if p
        ]
        if not parts:
            raise ValueError("cannot reduce an empty RDD")
        return _reduce(f, parts)

    def fold(self, zero: T, f: Callable[[T, T], T]) -> T:
        """Sequential fold from ``zero`` (order = partition order)."""
        acc = zero
        for p in self._collect_partitions():
            for x in p:
                acc = f(acc, x)
        return acc

    def aggregate(
        self, zero: U, seq: Callable[[U, T], U], comb: Callable[[U, U], U]
    ) -> U:
        """Per-partition seq fold, then comb across partials."""
        import copy

        partials = []
        for p in self._collect_partitions():
            acc = copy.deepcopy(zero)
            for x in p:
                acc = seq(acc, x)
            partials.append(acc)
        result = copy.deepcopy(zero)
        for partial in partials:
            result = comb(result, partial)
        return result

    def tree_reduce(
        self,
        f: Callable[[T, T], T],
        depth: int = 2,
        stats: dict | None = None,
    ) -> T:
        """``reduce`` with a balanced pairwise merge tree; raises on empty.

        Each partition is folded sequentially into one partial (same left
        fold as :meth:`reduce`), then partials merge by adjacent pairing:
        every round combines partials ``(0, 1), (2, 3), …``, passing an
        odd leftover through unchanged.  The first ``depth`` rounds run as
        engine stages — ``f`` executes on workers, and on the process
        backend the paired partials ship through the stage task path
        (pickle protocol 5, out-of-band buffers) — while remaining rounds
        merge on the driver, which therefore touches ``O(log P)`` partials
        instead of ``P``.  The pairing, and hence the result, is identical
        for every ``depth``: the knob only moves rounds between workers
        and the driver.

        ``stats``, when given, receives ``partials`` (non-empty partition
        count), ``rounds`` (total pairwise rounds) and ``stage_rounds``
        (rounds that ran as engine stages).
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        from functools import reduce as _reduce

        folded = _MapPartitionsRDD(
            self, lambda _, items: [_reduce(f, items)] if items else []
        )
        partials = [p[0] for p in folded._collect_partitions() if p]
        if not partials:
            raise ValueError("cannot reduce an empty RDD")
        n_partials = len(partials)
        result, rounds, stage_rounds = self._pairwise_rounds(self.ctx, f, partials, depth)
        if stats is not None:
            stats["partials"] = n_partials
            stats["rounds"] = rounds
            stats["stage_rounds"] = stage_rounds
        return result

    def tree_aggregate(
        self,
        zero: U,
        seq: Callable[[U, T], U],
        comb: Callable[[U, U], U],
        depth: int = 2,
    ) -> U:
        """Per-partition ``seq`` fold, then pairwise-tree ``comb``.

        Like :meth:`aggregate`, every partition (empty ones included)
        starts from its own deep copy of ``zero`` — but the fold runs
        worker-side and the partials combine through the deterministic
        pairwise tree of :meth:`tree_reduce` rather than a driver-side
        left fold seeded with ``zero``.  Returns a copy of ``zero`` for an
        RDD with no partitions.
        """
        if depth < 0:
            raise ValueError("depth must be non-negative")
        import copy

        def fold_partition(_, items):
            acc = copy.deepcopy(zero)
            for x in items:
                acc = seq(acc, x)
            return [acc]

        folded = _MapPartitionsRDD(self, fold_partition)
        partials = [p[0] for p in folded._collect_partitions()]
        if not partials:
            return copy.deepcopy(zero)
        result, _, _ = self._pairwise_rounds(self.ctx, comb, partials, depth)
        return result

    @staticmethod
    def _pairwise_rounds(
        ctx, f: Callable[[T, T], T], partials: list, depth: int
    ) -> tuple[T, int, int]:
        """Merge ``partials`` by adjacent pairing until one remains.

        Rounds below ``depth`` run as engine stages on ``ctx`` when more
        than one pair exists; later (or single-pair) rounds merge on the
        driver (``depth=0`` never touches ``ctx``).  The pairing is the
        same either way, so results are depth-invariant for any ``f`` —
        even a non-associative one.
        """
        rounds = 0
        stage_rounds = 0
        while len(partials) > 1:
            paired = [
                [partials[i], partials[i + 1]]
                for i in range(0, len(partials) - 1, 2)
            ]
            leftover = [partials[-1]] if len(partials) % 2 else []
            if rounds < depth and len(paired) > 1:
                stage = ctx.from_partitions(paired, copy=False)
                merged = _MapPartitionsRDD(
                    stage, lambda _, pair: [f(pair[0], pair[1])]
                )._collect_partitions()
                partials = [m[0] for m in merged] + leftover
                stage_rounds += 1
            else:
                partials = [f(a, b) for a, b in paired] + leftover
            rounds += 1
        return partials[0], rounds, stage_rounds

    def sum(self) -> float:
        """Sum of numeric elements."""
        return sum(x for p in self._collect_partitions() for x in p)

    def max(self, key: Callable[[T], Any] | None = None) -> T:
        """Largest element (optionally by ``key``)."""
        data = self.collect()
        if not data:
            raise ValueError("cannot take max of an empty RDD")
        return max(data, key=key) if key else max(data)

    def min(self, key: Callable[[T], Any] | None = None) -> T:
        """Smallest element (optionally by ``key``)."""
        data = self.collect()
        if not data:
            raise ValueError("cannot take min of an empty RDD")
        return min(data, key=key) if key else min(data)

    def mean(self) -> float:
        """Arithmetic mean of numeric elements; raises on empty."""
        total = 0.0
        count = 0
        for p in self._collect_partitions():
            total += sum(p)
            count += len(p)
        if count == 0:
            raise ValueError("cannot take mean of an empty RDD")
        return total / count

    def count_by_value(self) -> dict:
        """Dict of element -> occurrence count."""
        counts: dict = defaultdict(int)
        for p in self._collect_partitions():
            for x in p:
                counts[x] += 1
        return dict(counts)

    def count_by_key(self) -> dict:
        """Dict of key -> pair count."""
        counts: dict = defaultdict(int)
        for p in self._collect_partitions():
            for k, _ in p:
                counts[k] += 1
        return dict(counts)

    def collect_as_map(self) -> dict:
        """Pair RDD as a dict (last value per key wins)."""
        return {k: v for p in self._collect_partitions() for k, v in p}

    def foreach(self, f: Callable[[T], None]) -> None:
        """Apply ``f`` to every element for its side effect."""
        for p in self._collect_partitions():
            for x in p:
                f(x)

    def partition_sizes(self) -> list[int]:
        """Record count per partition — the raw input to the CV metric."""
        return [len(p) for p in self._collect_partitions()]

    # -- lineage inspection ------------------------------------------------------

    def _parents(self) -> list["RDD"]:
        """Direct lineage parents (empty for sources)."""
        parents = []
        for attr in ("_parent", "_left", "_right"):
            parent = getattr(self, attr, None)
            if isinstance(parent, RDD):
                parents.append(parent)
        return parents

    def debug_string(self) -> str:
        """Indented lineage description (Spark's ``toDebugString`` analog).

        Stage boundaries (shuffles) are marked with ``+-``; narrow chains
        indent under their parent.
        """
        lines: list[str] = []

        def describe(rdd: "RDD") -> str:
            kind = type(rdd).__name__.lstrip("_")
            extra = ""
            if isinstance(rdd, _ShuffledRDD):
                if rdd._combine:
                    extra = " [shuffle: combine]"
                elif rdd._group:
                    extra = " [shuffle: group]"
                else:
                    extra = " [shuffle: route]"
            cached = " [cached]" if rdd.is_cached else ""
            return f"{kind}({rdd.num_partitions}){extra}{cached}"

        def walk(rdd: "RDD", depth: int) -> None:
            marker = "+- " if isinstance(rdd, _ShuffledRDD) else "|  " if depth else ""
            lines.append("  " * depth + marker + describe(rdd))
            for parent in rdd._parents():
                walk(parent, depth + 1)

        walk(self, 0)
        return "\n".join(lines)

    def count_stages(self) -> int:
        """Number of shuffle boundaries in this lineage (stages - 1)."""
        total = 1 if isinstance(self, _ShuffledRDD) else 0
        return total + sum(p.count_stages() for p in self._parents())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(partitions={self.num_partitions})"


class _SourceRDD(RDD[T]):
    """Leaf of every lineage: data held in explicit partitions."""

    def __init__(self, ctx: EngineContext, partitions: list[list]):
        super().__init__(ctx, len(partitions))
        self._partitions = partitions

    def _compute(self, split: int) -> list:
        return self._partitions[split]


class _MapPartitionsRDD(RDD[U]):
    """Narrow transformation: ``f(split_index, parent_partition)``."""

    def __init__(self, parent: RDD, f: Callable[[int, list], list]):
        super().__init__(parent.ctx, parent.num_partitions)
        self._parent = parent
        self._f = f

    def _compute(self, split: int) -> list:
        return self._f(split, self._parent._partition(split))


class _UnionRDD(RDD[T]):
    """Concatenation of two RDDs' partition lists — no shuffle."""

    def __init__(self, left: RDD[T], right: RDD[T]):
        super().__init__(left.ctx, left.num_partitions + right.num_partitions)
        self._left = left
        self._right = right

    def _compute(self, split: int) -> list:
        if split < self._left.num_partitions:
            return self._left._partition(split)
        return self._right._partition(split - self._left.num_partitions)


class _CoalescedRDD(RDD[T]):
    def __init__(self, parent: RDD[T], num_partitions: int):
        super().__init__(parent.ctx, num_partitions)
        self._parent = parent

    def _compute(self, split: int) -> list:
        n_in = self._parent.num_partitions
        n_out = self.num_partitions
        start = split * n_in // n_out
        end = (split + 1) * n_in // n_out
        out: list = []
        for i in range(start, end):
            out.extend(self._parent._partition(i))
        return out


class _CartesianRDD(RDD[tuple]):
    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.ctx, left.num_partitions * right.num_partitions)
        self._left = left
        self._right = right

    def _compute(self, split: int) -> list:
        i = split // self._right.num_partitions
        j = split % self._right.num_partitions
        left = self._left._partition(i)
        right = self._right._partition(j)
        return [(a, b) for a in left for b in right]


class _ZipPartitionsRDD(RDD):
    def __init__(self, left: RDD, right: RDD, f: Callable[[list, list], Iterable]):
        super().__init__(left.ctx, left.num_partitions)
        self._left = left
        self._right = right
        self._f = f

    def _compute(self, split: int) -> list:
        return list(self._f(self._left._partition(split), self._right._partition(split)))


class _ShuffledRDD(RDD):
    """Stage boundary: materializes parent output into hash buckets.

    Modes (mutually exclusive):

    * combine mode (``create``/``merge_value``/``merge_combiners``):
      map-side combine then reduce-side merge — ``reduceByKey`` semantics;
    * group mode (``group=True``): every record shuffled, grouped on the
      reduce side — ``groupByKey`` semantics;
    * raw mode (``values_only=True``): records routed by an explicit
      assignment — ``repartition`` / ``shuffle_by`` semantics.

    The map side runs once (guarded by a lock for parallel mode) and its
    output is kept, mirroring Spark's shuffle files surviving across
    downstream stage retries.
    """

    def __init__(
        self,
        parent: RDD,
        num_partitions: int,
        key_of: Callable | None = None,
        create: Callable | None = None,
        merge_value: Callable | None = None,
        merge_combiners: Callable | None = None,
        group: bool = False,
        values_only: bool = False,
        direct_key: bool = False,
    ):
        super().__init__(parent.ctx, max(1, num_partitions))
        self._parent = parent
        self._key_of = key_of or (lambda kv: kv[0])
        self._create = create
        self._merge_value = merge_value
        self._merge_combiners = merge_combiners
        self._group = group
        self._values_only = values_only
        self._direct_key = direct_key
        self._buckets: list[list] | None = None
        self._lock = Lock()

    @property
    def _combine(self) -> bool:
        return self._create is not None

    def __getstate__(self) -> dict:
        # Shipped to process-pool workers inside task closures; the lock
        # guards driver-side materialization and must not travel.
        state = self.__dict__.copy()
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = Lock()

    def _ensure_shuffled(self) -> list[list]:
        with self._lock:
            if self._buckets is not None:
                return self._buckets
            n = self.num_partitions
            buckets: list[list] = [[] for _ in range(n)]
            shuffled_records = 0

            # The captured self is safe despite owning _lock: __getstate__
            # nulls it for the worker copy, and workers only read lineage.
            def map_task(split: int) -> list:
                items = self._parent._partition(split)
                out: list[tuple[int, Any]] = []
                if self._combine:
                    combined: dict = {}
                    for k, v in items:
                        if k in combined:
                            combined[k] = self._merge_value(combined[k], v)
                        else:
                            combined[k] = self._create(v)
                    for k, c in combined.items():
                        out.append((hash_partition(k, n), (k, c)))
                elif self._direct_key:
                    for kv in items:
                        out.append((kv[0] % n, kv[1]))
                else:
                    for item in items:
                        key = self._key_of(item)
                        target = (
                            key % n if isinstance(key, int) else hash_partition(key, n)
                        )
                        payload = item
                        out.append((target, payload))
                return out

            map_outputs = self.ctx.run_stage(self._parent.num_partitions, map_task)
            for output in map_outputs:
                shuffled_records += len(output)
                for target, payload in output:
                    buckets[target].append(payload)
            self.ctx.record_shuffle(shuffled_records)
            self._buckets = buckets
            return buckets

    def _compute(self, split: int) -> list:
        bucket = self._ensure_shuffled()[split]
        if self._values_only and not self._combine and not self._group:
            return list(bucket)
        if self._combine:
            merged: dict = {}
            for k, c in bucket:
                if k in merged:
                    merged[k] = self._merge_combiners(merged[k], c)
                else:
                    merged[k] = c
            return list(merged.items())
        if self._group:
            groups: dict = defaultdict(list)
            for k, v in bucket:
                groups[k].append(v)
            return list(groups.items())
        return list(bucket)
