"""Brute-force oracle the parity suites compare the pipeline kernels against.

Nothing here builds an index or touches an array: selection is a linear
scan, routing is one ``assign`` per instance, allocation asks the
structure for candidates one instance at a time, and extraction is the
extractor's own ``local``/``merge``/``finalize`` fold.  Slow and obvious on
purpose — the production paths must agree with it bit for bit.
"""

from __future__ import annotations

import copy

from repro.core.converters.base import _cell_bounds, _matches_cell, _needs_exact


def select(instances, spatial=None, temporal=None) -> list:
    """Instances intersecting the query range, in input order."""
    return [
        inst
        for inst in instances
        if inst.intersects(
            spatial if spatial is not None else inst.spatial_extent,
            temporal if temporal is not None else inst.temporal_extent,
        )
    ]


def assign(partitioner, instances) -> list[int]:
    """Partition id of every instance, one ``assign`` call each."""
    return [partitioner.assign(inst) for inst in instances]


def fan_out(partitioner, instances) -> list[tuple[int, object, bool]]:
    """Duplicate-mode routing as ``(partition id, instance, is_primary)``."""
    return [
        (pid, inst, pid == partitioner.assign(inst))
        for inst in instances
        for pid in partitioner.assign_all(inst)
    ]


def allocate(instances, structure, method="auto", stats=None) -> list[list]:
    """``cells[i]`` = instances intersecting cell ``i``; same stats arithmetic
    as :func:`repro.core.converters.base.allocate` (a naive scan is charged
    every cell per instance, an exact test only where the MBR can lie)."""
    cells = [[] for _ in range(structure.n_cells)]
    candidates = exact = allocations = 0
    for inst in instances:
        found = structure.candidate_cells(
            inst.spatial_extent, inst.temporal_extent, method
        )
        candidates += structure.n_cells if method == "naive" else len(found)
        if _needs_exact(inst, structure):
            exact += len(found)
            found = [c for c in found if _matches_cell(inst, *_cell_bounds(structure, c))]
        for cell in found:
            cells[cell].append(inst)
        allocations += len(found)
    if stats is not None:
        stats.add(len(instances), candidates, exact, allocations)
    return cells


def folding(extractor):
    """A copy of ``extractor`` with its ``AggSpec`` withheld, so every
    partition folds through ``local``/``merge``/``finalize``."""
    cls = type(extractor)
    twin = copy.copy(extractor)
    twin.__class__ = type(f"Folding{cls.__name__}", (cls,), {"agg_spec": lambda self: None})
    return twin
