"""Extractor base classes."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.engine.rdd import RDD
from repro.geometry.base import Geometry
from repro.instances.collective import CollectiveInstance
from repro.obs.tracer import phase as _phase_span
from repro.temporal.duration import Duration


class CustomExtractor:
    """Wrap a user RDD function as an extractor — the ``Extractor(f)``
    pattern of Section 3.3.

    Example::

        f = lambda rdd: InstanceRDD(rdd).map_value_plus(extract_stay_point).rdd
        extractor = CustomExtractor(f)
        result = extractor.extract(converted_rdd)
    """

    def __init__(self, f: Callable[[RDD], RDD]):
        self.f = f

    def extract(self, rdd: RDD) -> RDD:
        """Run this extraction on the RDD (see class docstring).

        Under an active tracer the extraction runs inside an "Extraction"
        phase span, materialized eagerly when ``f`` returns an RDD so the
        work is billed to this phase.
        """
        with _phase_span("Extraction", rdd.ctx.tracer) as span:
            result = self.f(rdd)
            if span is not None and isinstance(result, RDD):
                result = rdd.ctx.from_partitions(result._collect_partitions())
        return result


def _partition_partial(instances: list, spec: Any | None, local, merge):
    """One partition's premerged, tagged partial (``None`` when empty).

    ``("table", (skeleton, CellTable))`` when ``spec`` vectorizes every
    partial instance of the partition exactly — the skeleton (the
    partition's first instance) carries the cell structure needed to
    rebuild, or demote to, a collective instance.  Otherwise — no spec, or
    an input ``spec.build`` declines (interval durations, non-envelope
    cells) — the whole partition folds left through ``local``/``merge``
    into ``("scalar", partial_instance)``.
    """
    if not instances:
        return None
    if spec is not None:
        table = None
        for inst in instances:
            built = spec.build(inst)
            if built is None:
                break
            table = built if table is None else table.merge(built)
        else:
            return ("table", (instances[0], table))
    acc = None
    for inst in instances:
        partial = inst.map_value_plus(local)
        acc = partial if acc is None else acc.merge_with(partial, merge)
    return ("scalar", acc)


class CellAggExtractor(ABC):
    """Template for collective-instance extractors.

    Subclasses define a three-phase aggregation over cell values:

    * :meth:`local` — per-cell partial aggregate, computed on each
      partition's partial collective instance (cell values there are the
      arrays the converter allocated locally);
    * :meth:`merge` — combine two partials of the same cell (commutative
      and associative);
    * :meth:`finalize` — partial → extracted feature.

    ``extract`` returns a single collective instance whose cell values are
    the extracted features; the only cross-partition traffic is the tree
    reduce over per-partition partials, never the raw data.

    There is one reduce — a per-partition sequential fold, then the
    balanced pairwise tree of :meth:`~repro.engine.rdd.RDD.tree_reduce` —
    and the *input* picks each partition's partial representation:

    * a subclass that declares an :meth:`agg_spec` gets
      :class:`~repro.columnar.aggregate.CellTable` partials built with
      vectorized kernels;
    * a subclass without one, and any partition whose input the spec
      cannot vectorize exactly (``spec.build`` returns ``None``), folds
      ``local``/``merge`` per cell in Python instead.  Where the two kinds
      meet in the tree, the table side is demoted through
      :meth:`~repro.columnar.aggregate.AggSpec.partials`, which is
      bit-exact — features never depend on which representation a
      partition used.

    ``reduce_depth`` is the tree-stage knob of ``tree_reduce`` — it moves
    merge rounds between workers and the driver without changing the
    pairing, so features never depend on it.
    """

    reduce_depth: int = 2

    @abstractmethod
    def local(self, values: list, spatial: Geometry, temporal: Duration) -> Any:
        """Partial aggregate of one cell's locally-allocated array."""

    @abstractmethod
    def merge(self, a: Any, b: Any) -> Any:
        """Combine two partial aggregates."""

    def finalize(self, partial: Any) -> Any:
        """Partial aggregate → final feature (identity by default)."""
        return partial

    def agg_spec(self) -> Any | None:
        """Columnar compilation of this extractor's local/merge/finalize.

        Subclasses return an :class:`~repro.columnar.aggregate.AggSpec`
        to get vectorized partials; ``None`` (the default) means every
        partition folds through ``local``/``merge``.
        """
        return None

    def extract(self, rdd: RDD) -> CollectiveInstance:
        """Run this extraction on the RDD (see class docstring)."""
        spec = self.agg_spec()
        # ``tree_reduce`` is an action, so the phase span brackets real
        # work (plus any still-lazy upstream lineage) without extra
        # forcing.
        with _phase_span("Extraction", rdd.ctx.tracer) as span:
            tracer = rdd.ctx.tracer
            oob_before = (
                tracer.counters.get("stage_oob_bytes", 0) if tracer is not None else 0
            )
            stats: dict = {}
            kind, payload = self._reduce(rdd, spec, stats)
            if kind == "table":
                skeleton, table = payload
                result = skeleton.with_cell_values(spec.finalize(table))
            else:
                result = payload.map_value(self.finalize)
            if tracer is not None:
                oob = tracer.counters.get("stage_oob_bytes", 0) - oob_before
                partials = stats.get("partials", 0)
                cells = result.n_cells * partials
                rounds = stats.get("rounds", 0)
                tracer.counter("extract_cells_aggregated", cells)
                tracer.counter("extract_partials_merged", partials)
                tracer.counter("extract_tree_depth", rounds)
                tracer.counter("extract_reduce_oob_bytes", oob)
                if span is not None:
                    span.args.update(
                        columnar=kind == "table",
                        cells_aggregated=cells,
                        partials_merged=partials,
                        tree_depth=rounds,
                        reduce_oob_bytes=oob,
                    )
            return result

    def _reduce(self, rdd: RDD, spec: Any | None, stats: dict) -> tuple:
        """Premerge per partition, then tree-reduce the tagged partials.

        Returns the root ``(kind, payload)`` of :func:`_partition_partial`'s
        tagging: ``"table"`` only when every partition vectorized.  On
        backends that serialize tasks a table's skeleton is stripped of
        its cell arrays first; elsewhere it is the partition's first
        instance by reference, which costs nothing.
        """
        local = self.local
        merge = self.merge
        strip = rdd.ctx.backend.requires_serializable_tasks

        def premerge(instances: list) -> list:
            tagged = _partition_partial(instances, spec, local, merge)
            if tagged is None:
                return []
            kind, payload = tagged
            if kind == "table" and strip:
                skeleton, table = payload
                skeleton = skeleton.with_cell_values([None] * skeleton.n_cells)
                return [(kind, (skeleton, table))]
            return [tagged]

        def pair_merge(a: tuple, b: tuple) -> tuple:
            kind_a, pa = a
            kind_b, pb = b
            if kind_a == "table" and kind_b == "table":
                (skeleton, ta), (_, tb) = pa, pb
                return ("table", (skeleton, ta.merge(tb)))
            if kind_a == "table":
                skeleton, ta = pa
                pa = skeleton.with_cell_values(spec.partials(ta))
            elif kind_b == "table":
                skeleton, tb = pb
                pb = skeleton.with_cell_values(spec.partials(tb))
            return ("scalar", pa.merge_with(pb, merge))

        return rdd.map_partitions(premerge).tree_reduce(
            pair_merge, depth=self.reduce_depth, stats=stats
        )

    def extract_values(self, rdd: RDD) -> list:
        """Convenience: just the per-cell features, in cell order."""
        return self.extract(rdd).cell_values()

    # -- incremental extraction (the streaming API) --------------------------------

    def extract_partials(self, rdd: RDD) -> list[CollectiveInstance]:
        """Per-partition *unfinalized* partials, in partition order.

        The streaming half of :meth:`extract`: each partition premerges
        into one partial collective instance exactly as :meth:`extract`
        does — a ``CellTable`` partial is demoted to the ``local``/``merge``
        partial domain through ``spec.partials`` (bit-exact by the
        mixed-partial contract) — but instead of tree-reducing to one
        value, the partials come back as a list the caller can bank.
        :meth:`merge_partials` over partials accumulated across any
        number of incremental runs replays :meth:`~repro.engine.rdd.RDD.tree_reduce`'s
        exact pairing, so the final features are bit-identical to one
        batch :meth:`extract` over the union — the incremental-parity
        guarantee of :meth:`~repro.core.pipeline.Pipeline.run_incremental`.

        Empty partitions contribute no partial (matching ``tree_reduce``,
        which drops them).
        """
        spec = self.agg_spec()
        local = self.local
        merge = self.merge

        def premerge(instances: list) -> list:
            tagged = _partition_partial(instances, spec, local, merge)
            if tagged is None:
                return []
            kind, payload = tagged
            if kind == "table":
                skeleton, table = payload
                payload = skeleton.with_cell_values(spec.partials(table))
            return [payload]

        return [p[0] for p in rdd.map_partitions(premerge)._collect_partitions() if p]

    def merge_partials(self, partials: list):
        """Partial list → finalized features, via ``tree_reduce``'s pairing.

        The driver-side rounds of
        :meth:`~repro.engine.rdd.RDD._pairwise_rounds` — adjacent pairing
        ``(0, 1), (2, 3), …``, an odd leftover passed through — which is
        what makes incremental results bit-identical to batch ones.
        ``CellTable`` partials (what a fused scan banks) pair the same way
        and come back as the merged *table*: the pipeline, which holds the
        structure, builds the instance.  Raises on an empty list (nothing
        was ever selected).
        """
        if not partials:
            raise ValueError("cannot merge an empty partial list")
        from repro.columnar.aggregate import CellTable

        tables = isinstance(partials[0], CellTable)
        merge = CellTable.merge if tables else (lambda a, b: a.merge_with(b, self.merge))
        merged = RDD._pairwise_rounds(None, merge, list(partials), 0)[0]
        return merged if tables else merged.map_value(self.finalize)
