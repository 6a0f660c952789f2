"""The benchmark's only contact with ``repro``.

Every other module of the benchmark works on numpy arrays, plain dicts
and file paths; this one turns them into calls on the *documented* public
API (README.md, docs/api_guide.md, docs/streaming.md, docs/serving.md).
``tests/test_adapter_guard.py`` walks this file's AST and fails on an
undocumented import, a keyword that selects an internal code path
(``use_columnar``, ``index``), or an underscore attribute — so the
path-collapsing and telemetry PRs on the roadmap can land without editing
the benchmark.
"""

from __future__ import annotations

import inspect
import pickle
import sys

import numpy as np

from repro import (
    Duration,
    EngineContext,
    Envelope,
    Event,
    Pipeline,
    RasterStructure,
    Selector,
    StDataset,
    TimeSeriesStructure,
    Trajectory,
    TSTRPartitioner,
    save_dataset,
)
from repro.core.converters import (
    Event2RasterConverter,
    Event2TsConverter,
    Traj2RasterConverter,
)
from repro.core.extractors import (
    RasterFlowExtractor,
    RasterSpeedExtractor,
    TsFlowExtractor,
)
from repro.ml import raster_to_matrix_sequence, time_series_to_vector
from repro.serve import ServeClient, records_document, result_document, wait_until_ready
from repro.stream import StaleStreamStateError

#: Partitioner every batch op hands its Selector (the paper's Fig. 7 shape).
OP_PARTITIONER = (2, 4)
#: Pool size of the process backend (``hourly_flow_proc``).
PROCESS_WORKERS = 2
#: Seconds the serve daemon gets to answer its first ping.
READY_TIMEOUT_S = 30.0


def _block_format(writer) -> dict:
    """Ask for v2 blocks while the writer still offers a choice."""
    if "block_format" in inspect.signature(writer).parameters:
        return {"block_format": "v2"}
    return {}


# -- instances ------------------------------------------------------------------------


def events_from_arrays(cols: dict) -> list:
    """Point events with a small payload, through the public constructor."""
    return [
        Event.of_point(lon, lat, t, value=fare, data=meters)
        for lon, lat, t, fare, meters in zip(
            cols["lon"].tolist(),
            cols["lat"].tolist(),
            cols["t"].tolist(),
            cols["fare"].tolist(),
            cols["meters"].tolist(),
        )
    ]


def trajectories_from_arrays(cols: dict) -> list:
    """Trajectories from flat (lon, lat, t) points and per-trip offsets."""
    points = cols["points"].tolist()
    offsets = cols["offsets"].tolist()
    return [
        Trajectory.of_points(
            [tuple(p) for p in points[offsets[i] : offsets[i + 1]]], data=i
        )
        for i in range(len(offsets) - 1)
    ]


# -- datasets -------------------------------------------------------------------------


def write_dataset(path: str, instances: list, instance_type: str, gt: int, gs: int) -> None:
    """``save_dataset`` under a T-STR layout."""
    ctx = EngineContext(default_parallelism=8)
    try:
        save_dataset(
            path,
            instances,
            instance_type,
            partitioner=TSTRPartitioner(gt, gs),
            ctx=ctx,
            **_block_format(save_dataset),
        )
    finally:
        ctx.stop()


def dataset_records(path: str) -> int:
    """Instances stored, per the dataset's own metadata."""
    return StDataset(path).metadata().total_records


def dump_instances(path: str, instances: list) -> None:
    """One micro-batch as a pickled file, the way it reaches the measured process."""
    with open(path, "wb") as f:
        pickle.dump(instances, f, protocol=pickle.HIGHEST_PROTOCOL)


def load_instances(path: str) -> list:
    """Read back a file written by :func:`dump_instances` (our own bytes only)."""
    with open(path, "rb") as f:
        return pickle.load(f)


# -- contexts -------------------------------------------------------------------------


def open_context(backend: str):
    """One engine context for a whole run; the caller stops it."""
    if backend == "process":
        return EngineContext(
            default_parallelism=8,
            backend="process",
            backend_options={"max_workers": PROCESS_WORKERS},
        )
    return EngineContext(default_parallelism=8, backend=backend)


# -- batch ops: Selection -> Conversion -> Extraction -> tensor -----------------------


def _range(box) -> tuple:
    return Envelope(box[0], box[1], box[2], box[3]), Duration(box[4], box[5])


def _speed_of(value) -> float:
    return value[1] or 0.0


def _stages(kind: str, box, grid):
    """(converter, extractor, to_tensor, n_cells) of one batch op."""
    spatial, temporal = _range(box)
    if kind == "event_flow":
        nx, ny, nt = grid
        return (
            Event2RasterConverter(RasterStructure.regular(spatial, temporal, nx, ny, nt)),
            RasterFlowExtractor(),
            lambda raster: raster_to_matrix_sequence(raster, nx, ny, nt),
            nx * ny * nt,
        )
    if kind == "traj_speed":
        nx, ny, nt = grid
        return (
            Traj2RasterConverter(RasterStructure.regular(spatial, temporal, nx, ny, nt)),
            RasterSpeedExtractor(),
            lambda raster: raster_to_matrix_sequence(
                raster, nx, ny, nt, value_of=_speed_of
            ),
            nx * ny * nt,
        )
    if kind == "hourly_flow":
        structure = TimeSeriesStructure.of_interval(temporal, grid[0])
        return (
            Event2TsConverter(structure),
            TsFlowExtractor(),
            time_series_to_vector,
            structure.n_cells,
        )
    raise ValueError(f"unknown batch op kind {kind!r}")


def run_op(ctx, path: str, kind: str, box, grid) -> np.ndarray:
    """One op as a user writes it: ``Pipeline.run`` then the ML tensor."""
    spatial, temporal = _range(box)
    converter, extractor, to_tensor, _ = _stages(kind, box, grid)
    selector = Selector(spatial, temporal, partitioner=TSTRPartitioner(*OP_PARTITIONER))
    return to_tensor(Pipeline(selector, converter, extractor).run(ctx, path))


def traj_counts(ctx, source, box, grid) -> tuple[np.ndarray, np.ndarray]:
    """(count, speed) tensors of a ``traj_speed`` op over ``source`` with no
    partitioner — the replay the answer check compares against.  ``source``
    is a dataset path or an in-memory instance list."""
    spatial, temporal = _range(box)
    converter, extractor, to_tensor, _ = _stages("traj_speed", box, grid)
    raster = Pipeline(Selector(spatial, temporal), converter, extractor).run(ctx, source)
    nx, ny, nt = grid
    counts = raster_to_matrix_sequence(raster, nx, ny, nt, value_of=lambda v: v[0])
    return counts, to_tensor(raster)


def read_all(ctx, path: str) -> list:
    """Every instance of a dataset, as an in-memory list."""
    rdd, _ = StDataset(path).read(ctx)
    return rdd.collect()


def _maybe(source, name):
    """A public stat that a later PR may retire reads ``None``, never a guess."""
    value = getattr(source, name, None)
    return getattr(value, "value", value)


def run_op_staged(ctx, path: str, kind: str, box, grid, rec, op_id: int) -> np.ndarray:
    """The same op, one public call per layer, each boundary forced with
    ``persist().count()`` and wrapped in one span of ``rec``."""
    spatial, temporal = _range(box)
    converter, extractor, to_tensor, n_cells = _stages(kind, box, grid)
    partitioner = TSTRPartitioner(*OP_PARTITIONER)
    ctx.metrics.reset()
    with rec.span("op", "bench", op_id) as root:
        with rec.span("StDataset.read", "stio", op_id) as sp:
            rdd, stats = StDataset(path).read(ctx, spatial, temporal)
            rdd = rdd.persist()
            rdd.count()
        sp.counts = {
            "partitions_read": _maybe(stats, "partitions_read"),
            "partitions_total": _maybe(stats, "partitions_total"),
            "records_loaded": _maybe(stats, "records_loaded"),
            "bytes_read": _maybe(stats, "bytes_read"),
        }
        with rec.span("Selector.select", "selector", op_id) as sp:
            selector = Selector(spatial, temporal)
            selected = selector.select(ctx, rdd).persist()
            records_out = selected.count()
        sp.counts = {
            "records_out": records_out,
            "rtree_probes": _maybe(selector, "rtree_probes"),
            "index_cache_hits": _maybe(selector, "index_cache_hits"),
        }
        with rec.span("partitioner.partition", "partitioners", op_id) as sp:
            parted = partitioner.partition(selected).persist()
            parted.count()
        sizes = np.asarray(parted.partition_sizes(), dtype=np.float64)
        mean = sizes.mean() if sizes.size else 0.0
        sp.counts = {"size_cv": float(sizes.std() / mean) if mean else 0.0}
        with rec.span("converter.convert", "converters", op_id) as sp:
            converted = converter.convert(parted).persist()
            converted.count()
        snap = converter.stats.snapshot() if hasattr(converter, "stats") else {}
        sp.counts = {
            "candidate_tests": snap.get("candidate_tests"),
            "exact_tests": snap.get("exact_tests"),
            "allocations": snap.get("allocations"),
            "cells": n_cells,
        }
        with rec.span("extractor.extract", "extractors", op_id) as sp:
            features = extractor.extract(converted)
        with rec.span("repro.ml", "ml", op_id) as ml:
            tensor = to_tensor(features)
        sp.counts = {"cells_nonempty": int(np.count_nonzero(tensor))}
        ml.counts = {"tensor_bytes": int(tensor.nbytes)}
        snap = ctx.metrics.snapshot()
        root.counts = {
            "stages": snap.get("stages"),
            "tasks": snap.get("tasks"),
            "shuffle_records": snap.get("shuffle_records"),
            "broadcast_records": snap.get("broadcast_records"),
            "task_busy_s": float(
                sum(sum(v) for v in ctx.metrics.per_worker_elapsed().values())
            ),
        }
    return tensor


# -- stream: ingest + incremental update ----------------------------------------------


def stream_pipeline(box, slot_seconds: float):
    """The hourly-flow pipeline over the whole feed (no partitioner: incremental
    runs bank one partial per on-disk block)."""
    spatial, temporal = _range(box)
    return Pipeline(
        Selector(spatial, temporal),
        Event2TsConverter(TimeSeriesStructure.of_interval(temporal, slot_seconds)),
        TsFlowExtractor(),
    )


class StreamRunner:
    """``StDataset.ingest`` + ``Pipeline.run_incremental`` over one feed."""

    def __init__(self, ctx, path: str, box, slot_seconds: float, rebalance_threshold: int):
        self.ctx = ctx
        self.path = path
        self.dataset = StDataset(path)
        self.threshold = rebalance_threshold
        self.pipeline = stream_pipeline(box, slot_seconds)
        self.state = None
        self.result = None

    def ingest(self, batch: list) -> dict:
        """Commit one micro-batch; returns the report's public fields."""
        report = self.dataset.ingest(
            batch,
            TSTRPartitioner(1, 2),
            rebalance_threshold=self.threshold,
            instance_type="event",
            **_block_format(self.dataset.ingest),
        )
        return {
            "late_records": report.late_records,
            "blocks_added": report.blocks_added,
            "compacted": bool(report.compacted),
        }

    def update(self) -> bool:
        """Fold the new blocks into the running feature; True when compaction
        made the state stale and the run re-bootstrapped."""
        stale = False
        try:
            run = self.pipeline.run_incremental(self.ctx, self.path, state=self.state)
        except StaleStreamStateError:
            stale = True
            run = self.pipeline.run_incremental(self.ctx, self.path)
        self.state = run.state
        self.result = run.result
        return stale

    def vector(self) -> np.ndarray:
        """The running hourly-flow feature as the ML vector."""
        return time_series_to_vector(self.result)


def stream_batch_vector(ctx, path: str, box, slot_seconds: float) -> np.ndarray:
    """The same feature from a from-scratch ``Pipeline.run`` over the feed."""
    return time_series_to_vector(stream_pipeline(box, slot_seconds).run(ctx, path))


# -- serve: the daemon and its client -------------------------------------------------


def serve_argv(path: str, workers: int, cache_bytes: int) -> list[str]:
    """``python -m repro.cli serve`` with admission opened wide."""
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        path,
        "--workers",
        str(workers),
        "--cache-bytes",
        str(cache_bytes),
        "--queue-depth",
        "1024",
        "--default-tenant",
        "1000000:1000000:256",
    ]


def serve_port(ready_line: str) -> int:
    """The port from the daemon's ``serving ... on host:port (...)`` line."""
    return int(ready_line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])


def serve_wait_ready(port: int) -> None:
    wait_until_ready("127.0.0.1", port, timeout=READY_TIMEOUT_S)


def serve_client(port: int):
    return ServeClient("127.0.0.1", port, timeout=60.0).connect()


def serve_query(client, box) -> dict:
    return client.query(bbox=list(box[:4]), time_range=list(box[4:6]))


def serve_document(response: dict) -> str:
    return result_document(response)


def one_shot_document(ctx, path: str, box) -> str:
    """What ``repro select --format json`` prints for the same range."""
    spatial, temporal = _range(box)
    return records_document(Selector(spatial, temporal).select(ctx, path).collect())
