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
import math
import pickle
import random
import struct
from bisect import bisect_right
from pathlib import Path

from repro.core.converters.base import _cell_bounds, _matches_cell, _needs_exact
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.index.boxes import STBox
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


# -- the write path, one record at a time -------------------------------------------
#
# The retired per-record encoder and the scalar partition fit, kept as the
# oracle of ``tests/test_write_path_parity.py``: a dataset directory written
# through here must equal the columnar write path's byte for byte.

_ZERO_BOX = STBox((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def encode_block(records, codec) -> bytes:
    """One v2 block, extent by extent and payload by payload."""
    n = len(records)
    extents, payloads, filterable = [], [], True
    for record in records:
        row = encode_record(record) if codec == "tuple" else record
        payloads.append(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
        try:
            entries = record.entries
            exact = len(entries) == 1 and isinstance(entries[0].spatial, (Point, Envelope))
            extents.append((*record.st_bounds(), exact))
        except Exception:
            filterable = False
    if not filterable:
        extents = [(0.0,) * 6 + (False,)] * n
    columns = b"".join(struct.pack(f"<{n}d", *(e[c] for e in extents)) for c in range(6))
    exact = bytes(int(e[6]) for e in extents)
    offsets = [0]
    for data in payloads:
        offsets.append(offsets[-1] + len(data))
    exact_off = 64 + 48 * n
    index_off = (exact_off + n + 7) & ~7
    header = struct.pack(
        "<4sHHQQQQQ", b"STB2", 1, int(filterable), n, 64, exact_off, index_off,
        index_off + 8 * (n + 1),
    )
    return b"".join(
        [header.ljust(64, b"\x00"), columns, exact.ljust(index_off - exact_off, b"\x00"),
         struct.pack(f"<{n + 1}q", *offsets), *payloads]
    )


def block_bounds(records, boundaries, index, codec) -> STBox:
    """The metadata MBR of one block: the merge of its records' boxes."""
    if records:
        try:
            return STBox.merge_all([r.st_box() for r in records])
        except Exception:
            if codec != "pickle":
                raise
            return _ZERO_BOX
    if boundaries is not None and index < len(boundaries):
        return boundaries[index]
    return _ZERO_BOX


def _save_metadata(directory, metas, instance_type, codec, generation, epoch, watermark):
    payload = {
        "version": 1,
        "instance_type": instance_type,
        "codec": codec,
        "block_format": "v2",
        "generation": generation,
        "epoch": epoch,
        "partitions": metas,
    }
    if watermark is not None:
        payload["watermark"] = watermark
    (Path(directory) / "metadata.json").write_text(json.dumps(payload, indent=1))


def _write_blocks(directory, first, partitions, boundaries, codec) -> list[dict]:
    metas = []
    for i, records in enumerate(partitions):
        name = f"part-{first + i:05d}.stb"
        (Path(directory) / name).write_bytes(encode_block(records, codec))
        bounds = block_bounds(records, boundaries, i, codec)
        metas.append(
            {"filename": name, "count": len(records),
             "mins": list(bounds.mins), "maxs": list(bounds.maxs)}
        )
    return metas


def write_dataset(directory, partitions, instance_type, boundaries=None, codec="tuple",
                  watermark=None) -> None:
    """``StDataset.write``: a rewrite continues generation, epoch and watermark."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generation = epoch = 0
    if (directory / "metadata.json").exists():
        old = json.loads((directory / "metadata.json").read_text())
        generation, epoch = old["generation"] + 1, old["epoch"] + 1
        watermark = old.get("watermark") if watermark is None else watermark
    metas = _write_blocks(directory, 0, partitions, boundaries, codec)
    _save_metadata(directory, metas, instance_type, codec, generation, epoch, watermark)
    for stale in directory.glob("part-*"):
        if stale.name not in {m["filename"] for m in metas}:
            stale.unlink()


def partition(records, partitioner, sample=None) -> tuple[list[list], list]:
    """Fit on the instances, one scalar ``assign`` per record, input order kept."""
    partitioner.fit(list(records if sample is None else sample))
    cells = [[] for _ in range(partitioner.num_partitions)]
    for record in records:
        cells[partitioner.assign(record)].append(record)
    return cells, partitioner.boundaries()


def _nonempty(cells, boundaries):
    kept = [(c, b) for c, b in zip(cells, boundaries) if c]
    return [c for c, _ in kept], [b for _, b in kept]


def save_dataset(directory, instances, instance_type, partitioner, num_partitions=8) -> None:
    """``save_dataset``: the fit sees the Bernoulli sample ``partition()`` draws
    off ``num_partitions`` even slices (the first 1000 records if it is empty)."""
    n = max(1, min(num_partitions, len(instances)))
    slices = [instances[i * len(instances) // n : (i + 1) * len(instances) // n] for i in range(n)]
    sample = []
    for split, items in enumerate(slices):
        rng = random.Random(17 * 1_000_003 + split)
        sample.extend(x for x in items if rng.random() < 0.1)
    cells, boundaries = partition(instances, partitioner, sample or instances[:1000])
    write_dataset(directory, cells, instance_type, boundaries)


def ingest(directory, batch, partitioner, instance_type, rebalance_threshold=None) -> None:
    """``StDataset.ingest``: index the batch alone, append, advance the
    watermark, compact past the threshold."""
    directory = Path(directory)
    high = max(inst.temporal_extent.end for inst in batch)
    cells, boundaries = ([list(batch)], None)
    if partitioner is not None:
        cells, boundaries = _nonempty(*partition(batch, partitioner))
    if not (directory / "metadata.json").exists():
        write_dataset(directory, cells, instance_type, boundaries, watermark=high)
    else:
        old = json.loads((directory / "metadata.json").read_text())
        metas = _write_blocks(directory, len(old["partitions"]), cells, boundaries, old["codec"])
        mark = old.get("watermark")
        _save_metadata(
            directory, old["partitions"] + metas, old["instance_type"], old["codec"],
            old["generation"] + 1, old["epoch"], high if mark is None else max(mark, high),
        )
    blocks = len(json.loads((directory / "metadata.json").read_text())["partitions"])
    if rebalance_threshold is not None and blocks > rebalance_threshold:
        compact(directory, partitioner)


def compact(directory, partitioner=None) -> None:
    """``StDataset.compact``: decode every row, partition, re-encode."""
    from repro.partitioners import TSTRPartitioner
    from repro.stio import StDataset

    old = json.loads((Path(directory) / "metadata.json").read_text())
    dataset = StDataset(directory)
    records = [
        r for m in dataset.metadata().partitions for r in dataset.read_block(m, codec=old["codec"])
    ]
    if partitioner is None:
        partitioner = TSTRPartitioner(max(1, math.isqrt(len(old["partitions"]))), 1)
    cells, boundaries = _nonempty(*partition(records, partitioner))
    write_dataset(directory, cells, old["instance_type"], boundaries, old["codec"])


def tstr_cuts(instances, gt, gs) -> tuple[list, list]:
    """T-STR's cuts from ``centroid()`` / ``center`` and ``sorted`` alone:
    ``(t_cuts, [(x_cuts, y_cuts_per_slab) per temporal slice])``."""

    def cuts(values, k):
        ordered = sorted(values)
        return [ordered[i * len(ordered) // k] for i in range(1, k)] if ordered and k > 1 else []

    def str2d(points, n):
        kx = max(1, math.ceil(math.sqrt(n)))
        ky = max(1, math.ceil(n / kx))
        x_cuts = cuts([x for x, _ in points], kx)
        slabs = [[] for _ in range(len(x_cuts) + 1)]
        for x, y in points:
            slabs[bisect_right(x_cuts, x)].append(y)
        return x_cuts, [cuts(ys, ky) for ys in slabs]

    reps = [(i.spatial_extent.centroid(), i.temporal_extent.center) for i in instances]
    t_cuts = cuts([t for _, t in reps], gt)
    slices = [[] for _ in range(len(t_cuts) + 1)]
    for c, t in reps:
        slices[bisect_right(t_cuts, t)].append((c.x, c.y))
    return t_cuts, [str2d(pts, gs) if pts else str2d([(0.0, 0.0)], 1) for pts in slices]
