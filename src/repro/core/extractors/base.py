"""Extractor base classes.

A :class:`CellAggExtractor` has one partial kind, fixed by the extractor
alone: a :class:`~repro.columnar.aggregate.CellTable` when it declares an
:meth:`~CellAggExtractor.agg_spec`, else the collective instance its
``local``/``merge`` fold.  :meth:`~CellAggExtractor.fold` names that kind's
build and merge; ``extract`` and the pipeline's incremental runs reduce
with nothing else.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.columnar.aggregate import CellTable
from repro.engine.rdd import RDD
from repro.geometry.base import Geometry
from repro.instances.collective import CollectiveInstance
from repro.instances.trajectory import Trajectory
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


def portion_speed_sum(values: list, temporal: Duration, unit: str, error: str):
    """``(sum, count)`` of the average speeds of each trajectory's portion
    inside ``temporal`` that holds two points or more, added in ``values``
    order: the sub-trajectory speed extractors' scalar ``local``."""
    total, count = 0.0, 0
    for traj in values:
        if not isinstance(traj, Trajectory):
            raise TypeError(error)
        portion = traj.sub_trajectory(temporal)
        if portion is not None and len(portion.entries) >= 2:
            total += portion.average_speed_kmh() if unit == "kmh" else portion.average_speed_ms()
            count += 1
    return total, count


def _folded(instances: list, build, merge):
    """Left fold of one partition's converted instances into its partial."""
    acc = build(instances[0])
    for inst in instances[1:]:
        acc = merge(acc, build(inst))
    return acc


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
    over one kind of partial (:meth:`fold`): a subclass that declares an
    :meth:`agg_spec` reduces :class:`~repro.columnar.aggregate.CellTable`
    partials built with vectorized kernels, a subclass without one reduces
    the instances its ``local``/``merge`` fold per cell in Python.  The
    two agree bit for bit (``tests/reference.py`` withholds the spec).

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
        partition folds through ``local``/``merge``.  A spec with a column
        kernel (``from_cells``, ``from_points``) lets a ``Pipeline`` over a
        dataset directory lower to the fused block scan.
        """
        return None

    # -- the one partial ---------------------------------------------------------

    def fold(self) -> tuple[Callable, Callable]:
        """``(build, merge)``: one converted instance → its partial, and
        the pair merge of two partials — ``spec.build`` / ``CellTable.merge``
        with an :meth:`agg_spec`, the ``local`` map / per-cell ``merge``
        without."""
        spec = self.agg_spec()
        if spec is not None:
            return spec.build, CellTable.merge
        local, combine = self.local, self.merge
        return (
            lambda instance: instance.map_value_plus(local),
            lambda a, b: a.merge_with(b, combine),
        )

    def premerged(self, rdd: RDD) -> RDD:
        """Each non-empty partition of converted instances → its one
        unfinalized partial: what the reduce pairs and an incremental run
        banks."""
        build, merge = self.fold()

        def premerge(instances: list) -> list:
            return [_folded(instances, build, merge)] if instances else []

        return rdd.map_partitions(premerge)

    def finalized(self, partial, instance_of: Callable[[list], CollectiveInstance]):
        """Reduced partial → the feature instance.

        ``instance_of`` builds the instance from per-cell values — a table
        has the values but not the cells (a folded instance has both).
        """
        spec = self.agg_spec()
        if spec is None:
            return partial.map_value(self.finalize)
        return instance_of(spec.finalize(partial))

    def extract(self, rdd: RDD) -> CollectiveInstance:
        """Run this extraction on the RDD (see class docstring)."""
        build, merge = self.fold()
        # A table needs some instance's cells to become one again: each
        # partial travels with its partition's first instance — by
        # reference, or stripped of its cell arrays where tasks serialize.
        strip = rdd.ctx.backend.requires_serializable_tasks

        def premerge(instances: list) -> list:
            if not instances:
                return []
            skeleton = instances[0]
            if strip:
                skeleton = skeleton.with_cell_values([None] * skeleton.n_cells)
            return [(skeleton, _folded(instances, build, merge))]

        def pair_merge(a: tuple, b: tuple) -> tuple:
            return (a[0], merge(a[1], b[1]))

        # ``tree_reduce`` is an action, so the phase span brackets real
        # work (plus any still-lazy upstream lineage) without extra
        # forcing.
        with _phase_span("Extraction", rdd.ctx.tracer) as span:
            tracer = rdd.ctx.tracer
            oob_before = (
                tracer.counters.get("stage_oob_bytes", 0) if tracer is not None else 0
            )
            stats: dict = {}
            skeleton, partial = rdd.map_partitions(premerge).tree_reduce(
                pair_merge, depth=self.reduce_depth, stats=stats
            )
            result = self.finalized(partial, skeleton.with_cell_values)
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
                        columnar=isinstance(partial, CellTable),
                        cells_aggregated=cells,
                        partials_merged=partials,
                        tree_depth=rounds,
                        reduce_oob_bytes=oob,
                    )
            return result

    def extract_values(self, rdd: RDD) -> list:
        """Convenience: just the per-cell features, in cell order."""
        return self.extract(rdd).cell_values()
