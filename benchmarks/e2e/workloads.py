"""The five workloads, their sizes, and the names of everything reported.

Inputs are built from :mod:`benchmarks.e2e.gen` only.  Op lists are
seeded, shuffled and of fixed length: the number of rounds is set from
``--seconds`` at the rate the baseline commit sustains, so two commits
run *identical* ops and a faster system simply finishes sooner.

A run is a handful of *rounds* that do the same work; the median latency
and the throughput are medians over rounds (see ``harness.summarize``).
This box slows by 10-25 % for seconds at a time, whatever runs on it; one
slow round must not decide a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from benchmarks.e2e import gen

#: The seconds ``BENCHMARK.json`` passes; round counts below are sized for it.
NOMINAL_SECONDS = 15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "batch" | "stream" | "serve"
    #: Tail percentile of ``op_tail_ms``, taken over every timed op of the run
    #: and fixed per workload: the highest of p75/p90/p95/p99 with >= 10 of
    #: those ops beyond it at the nominal op count (``tests/test_stats.py``)
    #: that also held its bound in the A/A check.
    tail_pct: int
    #: Seconds one round takes at the baseline commit.  A round is one pass
    #: over the workload's ranges (batch), one fresh feed (stream) or one
    #: segment of the query stream (serve); ``--seconds`` sets how many run.
    round_seconds: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "event_flow",
            "Fig. 7 shape: cold ST-range load, T-STR repartition, event->raster flow, tensor; "
            "stio+selector+partitioners and converters share the op",
            "batch",
            75,
            3.6,
        ),
        Workload(
            "traj_speed",
            "exact-geometry traj->raster conversion dominates and load is small, so a "
            "converters/extractors change shows here and a stio change should not",
            "batch",
            75,
            3.6,
        ),
        Workload(
            "hourly_flow_proc",
            "same dataset on the process backend: every record crosses a pickle boundary, "
            "so engine dispatch/shuffle dominates; catches sequential-only gains",
            "batch",
            90,
            2.5,
        ),
        Workload(
            "stream_update",
            "the write path: ingest micro-batches with late records, watermark commits, "
            "compaction stalls, incremental merge cost growing with banked blocks",
            "stream",
            95,  # 2 of a feed's 30 ops compact or re-bootstrap: p95 is one of them
            1.8,
        ),
        Workload(
            "serve_mix",
            "closed-loop Zipf queries against the serve daemon with a cache smaller than the "
            "pool: protocol, JSON codec, result/index caches and queue do the work",
            "serve",
            95,  # p99 spread 0.34 over runs of one commit, beyond its bound; p95 is still a miss
            1.5,
        ),
    )
}

#: name -> (unit, better).  The issue's ``failed_frac`` is listed as its
#: complement: the driver's contract wants metrics that are never 0 and
#: bounds that are a share of the parent's median.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "throughput_ops_s": ("ops/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_frac": ("ratio", "higher"),
    "disk_bytes_per_rec": ("B", "lower"),
}

PER_LAYER = {
    "stio.load_s": ("s", "lower"),
    "stio.partitions_read": ("count", "lower"),
    "stio.partitions_total": ("count", "lower"),
    "stio.records_loaded": ("count", "lower"),
    "stio.bytes_read": ("B", "lower"),
    "stio.decode_useful_ratio": ("ratio", "higher"),
    "stio.write_s": ("s", "lower"),
    "stio.bytes_written": ("B", "lower"),
    "selector.filter_s": ("s", "lower"),
    "selector.records_out": ("count", "lower"),
    "selector.rtree_probes": ("count", "lower"),
    "selector.index_cache_hits": ("count", "higher"),
    "partitioners.partition_s": ("s", "lower"),
    "partitioners.size_cv": ("ratio", "lower"),
    "engine.stages": ("count", "lower"),
    "engine.tasks": ("count", "lower"),
    "engine.shuffle_records": ("count", "lower"),
    "engine.broadcast_records": ("count", "lower"),
    "engine.task_busy_s": ("s", "lower"),
    "engine.proc_vs_seq_ratio": ("ratio", "lower"),
    "converters.convert_s": ("s", "lower"),
    "converters.candidate_tests": ("count", "lower"),
    "converters.exact_tests": ("count", "lower"),
    "converters.allocations": ("count", "lower"),
    "converters.cells": ("count", "lower"),
    "extractors.extract_s": ("s", "lower"),
    "extractors.cells_nonempty": ("count", "higher"),
    "ml.tensor_s": ("s", "lower"),
    "ml.tensor_bytes": ("B", "lower"),
    "stream.ingest_s": ("s", "lower"),
    "stream.update_s": ("s", "lower"),
    "stream.update_growth": ("ratio", "lower"),
    "stream.compactions": ("count", "lower"),
    "stream.compact_stall_s": ("s", "lower"),
    "stream.stale_rebootstraps": ("count", "lower"),
    "stream.late_records": ("count", "lower"),
    "stream.blocks_added": ("count", "lower"),
    "serve.exec_ms_p50": ("ms", "lower"),
    "serve.queue_ms_p50": ("ms", "lower"),
    "serve.wire_ms_p50": ("ms", "lower"),
    "serve.hit_ms_p50": ("ms", "lower"),
    "serve.miss_ms_p50": ("ms", "lower"),
    "serve.result_cache_hit_ratio": ("ratio", "higher"),
    "serve.result_cache_evictions": ("count", "lower"),
    "serve.index_cache_hit_ratio": ("ratio", "higher"),
    "serve.blocks_loaded": ("count", "lower"),
    "serve.response_bytes_p50": ("B", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.ready_s": ("s", "lower"),
    "bench.unattributed_s": ("s", "lower"),
    "bench.staging_ratio": ("ratio", "lower"),
}

#: The staged pass of a batch workload re-runs every 4th range of each class,
#: over at most this many rounds (each staged op runs two or three times).
STAGED_EVERY = 4
STAGED_ROUNDS = 3

N_EVENTS = 30_000
N_TRAJECTORIES = 1_500
EVENT_LAYOUT = (8, 8)  # T-STR gt x gs on disk
TRAJ_LAYOUT = (4, 4)

_BATCH = {
    # name: (op kind, dataset, backend, grid, range fractions, ranges per class)
    "event_flow": ("event_flow", "events", "sequential", (8, 8, 24), (0.2, 0.4, 0.8), (6, 11, 3)),
    "traj_speed": ("traj_speed", "trajectories", "sequential", (8, 8, 24), (0.2, 0.35, 0.5), (4, 9, 3)),
    "hourly_flow_proc": ("hourly_flow", "events", "process", (3600.0,), (0.15, 0.25, 0.4), (5, 10, 5)),
}

STREAM_BATCHES = 30  # per feed, after the warm-up batch that creates the dataset
STREAM_BATCH_SIZE = 500
STREAM_THRESHOLD = 24
STREAM_LATE_FRAC = 0.03  # of each batch, delivered one batch late

SERVE_POOL = 400
SERVE_FRAC = 0.15
SERVE_ZIPF_S = 1.0
SERVE_CONNS = 2
SERVE_SEGMENT = 350  # timed queries per connection per round
SERVE_CACHE_BYTES = 1 << 20
SERVE_WORKERS = 2


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_seconds))


def _shrink(n: int, div: int) -> int:
    return max(1, math.ceil(n / div))


def build(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The complete inputs of one workload: arrays only, no instances.

    ``data`` is what set-up turns into a dataset (or batch files), ``plan``
    what the measured process replays, ``digest`` the identity of both.
    """
    workload = WORKLOADS[name]
    data_div, ops_div = (10, 4) if smoke else (1, 1)
    rounds = rounds_for(workload, seconds / 2 if smoke else seconds)
    if workload.kind == "batch":
        kind, dataset, backend, grid, fracs, counts = _BATCH[name]
        counts = [_shrink(c, ops_div) for c in counts]
        if dataset == "events":
            data = gen.event_arrays(seed, N_EVENTS // data_div)
            bbox, span, layout = gen.NYC_BBOX, gen.NYC_SPAN, EVENT_LAYOUT
            identity = [data[k] for k in gen.EVENT_COLUMNS]
            points = (data["lon"], data["lat"], data["t"])
        else:
            data = gen.trajectory_arrays(seed, N_TRAJECTORIES // data_div)
            bbox, span, layout = gen.PORTO_BBOX, gen.PORTO_SPAN, TRAJ_LAYOUT
            identity = [data["points"], data["offsets"]]
            points = tuple(data["points"].T)
        ranges = gen.st_ranges(
            seed, 10, bbox, span, fracs, counts, passes=rounds,
            whole_hours=(kind == "hourly_flow"),
        )
        # No op may fail by design, and a Selector with a partitioner raises
        # on an empty selection.
        boxes = gen.ensure_populated(ranges["boxes"], bbox, span, *points)
        # The staged pass: every 4th range of each class, so the sample keeps
        # the mix, over the first few rounds.
        class_of = np.repeat(np.arange(len(counts)), counts)  # by range id
        sample = {
            int(op)
            for c in range(len(counts))
            for op in np.flatnonzero(class_of == c)[::STAGED_EVERY]
        }
        per_round = len(boxes) // rounds
        plan = {
            "kind": kind,
            "backend": backend,
            "grid": grid,
            "boxes": boxes,
            "op": ranges["op"],
            "cls": ranges["cls"],
            "rounds": rounds,
            "staged": [
                [i for i in range(r * per_round, (r + 1) * per_round) if ranges["op"][i] in sample]
                for r in range(min(rounds, STAGED_ROUNDS))
            ],
            "ops": len(boxes),
        }
        return {
            "dataset": dataset,
            "layout": layout,
            "data": data,
            "plan": plan,
            "digest": gen.digest(*identity, boxes),
        }
    if workload.kind == "stream":
        n_batches = _shrink(STREAM_BATCHES, ops_div) + 1
        feeds = [
            gen.stream_feed(seed, f, n_batches, STREAM_BATCH_SIZE // data_div, STREAM_LATE_FRAC)
            for f in range(rounds)
        ]
        x0, y0, x1, y1 = gen.NYC_BBOX
        plan = {
            "box": (x0, y0, x1, y1, gen.T0, gen.T0 + feeds[0]["span"]),
            "slot_seconds": gen.HOUR,
            "threshold": STREAM_THRESHOLD,
            "late": [f["late"] for f in feeds],
            "records": [sum(b["t"].size for b in f["batches"]) for f in feeds],
            "rounds": rounds,
            "ops": rounds * (n_batches - 1),
        }
        return {
            "dataset": "feed",
            "data": [f["batches"] for f in feeds],
            "plan": plan,
            "digest": gen.digest(
                *[b[k] for f in feeds for b in f["batches"] for k in ("lon", "lat", "t")]
            ),
        }
    data = gen.event_arrays(seed, N_EVENTS // data_div)
    segment = _shrink(SERVE_SEGMENT, ops_div)
    untimed = _shrink(segment, 2)
    queries = gen.zipf_queries(
        seed, _shrink(SERVE_POOL, ops_div), untimed + rounds * segment, SERVE_CONNS,
        SERVE_FRAC, SERVE_ZIPF_S,
    )
    plan = {
        "pool": queries["pool"],
        "draws": queries["draws"],
        "untimed": untimed,
        "segment": segment,
        "cache_bytes": SERVE_CACHE_BYTES // data_div,
        "workers": SERVE_WORKERS,
        "rounds": rounds,
        "ops": rounds * segment * SERVE_CONNS,
    }
    return {
        "dataset": "events",
        "layout": EVENT_LAYOUT,
        "data": data,
        "plan": plan,
        "digest": gen.digest(
            *[data[k] for k in gen.EVENT_COLUMNS], queries["pool"], queries["draws"]
        ),
    }
