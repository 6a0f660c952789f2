"""Brute-force oracle the parity suites compare the pipeline kernels against.

Nothing here builds an index or touches an array: selection is a linear
scan, routing is one ``assign`` per instance, allocation asks the
structure for candidates one instance at a time, and extraction is the
extractor's own ``local``/``merge``/``finalize`` fold.  Slow and obvious on
purpose — the production paths must agree with it bit for bit.
"""

from __future__ import annotations

import copy
import json
import pickle
from pathlib import Path

from repro.core.converters.base import _cell_bounds, _matches_cell, _needs_exact
from repro.stio.formats import encode_record


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


def box_query(boxes, query) -> list[int]:
    """Sorted rows of ``boxes`` intersecting ``query`` — what any R-tree over
    them must return, and its ``stats.candidates`` must count."""
    return [i for i, box in enumerate(boxes) if box.intersects(query)]


def write_v1_dataset(
    directory,
    partitions,
    instance_type,
    codec="tuple",
    declare_format=True,
    watermark=None,
) -> Path:
    """A v1 dataset directory, byte for byte as the retired writer laid it out.

    One pickle of the partition's rows per ``part-*.pkl`` (``encode_record``
    tuples, or the records verbatim under ``codec="pickle"``) and a
    ``metadata.json`` naming ``"block_format": "v1"`` — or, with
    ``declare_format=False``, omitting the key as the oldest files do.
    No writer in ``src/`` produces this any more; it exists so the one v1
    *input* path (``StDataset.convert``) and the typed refusal everywhere
    else stay tested.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    metas = []
    for i, records in enumerate(partitions):
        rows = list(records) if codec == "pickle" else [encode_record(r) for r in records]
        (directory / f"part-{i:05d}.pkl").write_bytes(
            pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
        )
        mins, maxs = [0.0] * 3, [0.0] * 3
        if records and all(hasattr(r, "st_box") for r in records):
            boxes = [r.st_box() for r in records]
            mins = [min(b.mins[d] for b in boxes) for d in range(3)]
            maxs = [max(b.maxs[d] for b in boxes) for d in range(3)]
        metas.append(
            {"filename": f"part-{i:05d}.pkl", "count": len(records), "mins": mins, "maxs": maxs}
        )
    payload = {
        "version": 1,
        "instance_type": instance_type,
        "codec": codec,
        "generation": 0,
        "partitions": metas,
    }
    if declare_format:
        payload["block_format"] = "v1"
    if watermark is not None:
        payload["watermark"] = watermark
    (directory / "metadata.json").write_text(json.dumps(payload, indent=1))
    return directory


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
