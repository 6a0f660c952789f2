"""CI smoke for the streaming path: ingest, chaos, parity, traces.

A seeded micro-batch feed runs end to end on the **process backend
under a fault storm** (worker kills, task errors, scheduling delays —
the same deterministic `FaultPlan` machinery behind ``repro chaos``)
and must come out bit-identical to a fault-free batch run:

1. **Ingestion** — K seeded daily micro-batches committed through
   ``StDataset.ingest``, each T-STR-fitted on its own, the persisted
   watermark advancing per commit (checked monotone), one batch
   deliberately late (checked counted, not dropped);
2. **Parity under chaos** — after every ingest the hourly-flow feature
   is extended with ``Pipeline.run_incremental`` on the process backend
   with fault injection on; the final incrementally maintained feature
   must equal — bit for bit — a from-scratch, fault-free batch run
   over the union;
3. **Windows under chaos** — a tumbling windowed extractor absorbs the
   same feed through a crash-and-restore cycle (``PipelineCheckpoint``)
   and must match a clean one-shot reference;
4. **Observability** — the whole feed runs under a tracer; ingest /
   watermark / incremental counters are asserted and the spans are
   written to ``traces/stream-smoke.*`` for the CI artifact upload.

Run::

    PYTHONPATH=src python tools/stream_smoke.py

Exit code 0 only when all four hold.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    Duration,
    EngineContext,
    Envelope,
    Pipeline,
    Selector,
    StDataset,
    TimeSeriesStructure,
    TSTRPartitioner,
    WindowedFlowExtractor,
)
from repro.core.converters import Event2TsConverter  # noqa: E402
from repro.core.extractors import TsFlowExtractor  # noqa: E402
from repro.engine.faults import FaultPlan, FaultRule, PipelineCheckpoint  # noqa: E402
from repro.instances import Event  # noqa: E402
from repro.obs import Tracer, installed, write_trace_files  # noqa: E402

DAY = 86_400.0
AREA = Envelope(0.0, 0.0, 10.0, 10.0)
DAYS = 4
EVENTS_PER_DAY = 500

#: The storm: every task flips these dice (deterministically, from the
#: plan seed), so several worker kills and task errors land mid-feed.
STORM = [
    FaultRule("worker_kill", probability=0.15),
    FaultRule("task_error", probability=0.15),
    FaultRule("delay", probability=0.2, delay_seconds=0.005),
]


def day_batch(day: int) -> list[Event]:
    rng = random.Random(4200 + day)
    return [
        Event.of_point(
            rng.uniform(0.0, 10.0),
            rng.uniform(0.0, 10.0),
            day * DAY + rng.uniform(0.0, DAY),
            data=i,
        )
        for i in range(EVENTS_PER_DAY)
    ]


def make_pipeline(span: Duration) -> Pipeline:
    return Pipeline(
        selector=Selector(AREA, span),
        converter=Event2TsConverter(TimeSeriesStructure.of_interval(span, 3_600.0)),
        extractor=TsFlowExtractor(),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="fault-plan seed")
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "traces" / "stream-smoke"),
        help="trace output path prefix",
    )
    args = parser.parse_args(argv)

    import tempfile

    span = Duration(0.0, DAYS * DAY)
    plan = FaultPlan(STORM, seed=args.seed)
    chaos_ctx = EngineContext(
        default_parallelism=4,
        backend="process",
        backend_options={"warmup": False},
        fault_plan=plan,
    )
    tracer = Tracer()
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="stream-smoke-") as tmp:
        feed = Path(tmp) / "feed"
        ds = StDataset(feed)
        pipeline = make_pipeline(span)
        win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        ckpt = PipelineCheckpoint(Path(tmp) / "ckpt", chaos_ctx)
        win_selector = Selector(AREA, span)

        # Feed order 0, 2, 1, 3 — batch "1" arrives a day late.
        feed_order = [0, 2, 1, 3]
        state = None
        marks: list[float] = []
        with installed(tracer):
            for step, day in enumerate(feed_order):
                batch = day_batch(day)
                report = ds.ingest(
                    batch,
                    partitioner=TSTRPartitioner(1, 2),
                    instance_type="event" if step == 0 else None,
                )
                marks.append(report.watermark)
                if day == 1 and report.late_records != EVENTS_PER_DAY:
                    failures.append(
                        f"late batch miscounted: {report.late_records} "
                        f"!= {EVENTS_PER_DAY}"
                    )
                run = pipeline.run_incremental(chaos_ctx, feed, state=state)
                state = run.state
                win.update(win_selector.select(chaos_ctx, batch))
                win.checkpoint(ckpt)
                if step == 1:  # crash-and-restore mid-feed
                    win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
                    if not win.restore(ckpt):
                        failures.append("window checkpoint restore failed")
                print(
                    f"[stream-smoke] step {step}: day-{day} batch, "
                    f"watermark {report.watermark:.0f}, "
                    f"+{run.blocks_new} blocks incremental"
                    + (" (late)" if report.late_records else ""),
                    flush=True,
                )

        if marks != sorted(marks):
            failures.append(f"watermark regressed: {marks}")
        if ds.metadata().watermark != marks[-1]:
            failures.append("persisted watermark != last report")

        # Parity gates: chaos-fed incremental state vs fault-free batch.
        clean_ctx = EngineContext(default_parallelism=4)
        batch = make_pipeline(span).run(clean_ctx, feed)
        if state.partials and run.result.cell_values() != batch.cell_values():
            failures.append("incremental-vs-batch parity violated under chaos")
        clean_win = WindowedFlowExtractor(origin=0.0, size=6 * 3_600.0)
        clean_win.update(Selector(AREA, span).select(clean_ctx, feed))
        if win.features() != clean_win.features():
            failures.append("windowed feature diverged under chaos")

    counters = tracer.counters
    for name, expect in [
        ("ingest_batches", DAYS),
        ("ingest_records", DAYS * EVENTS_PER_DAY),
        ("ingest_late_records", EVENTS_PER_DAY),
        ("incremental_runs", DAYS),
    ]:
        if counters.get(name) != expect:
            failures.append(f"counter {name}: {counters.get(name)} != {expect}")
    if not counters.get("watermark_lag"):
        failures.append("watermark_lag counter missing")

    paths = write_trace_files(tracer, args.out)
    print(f"[stream-smoke] traces: {', '.join(str(p) for p in paths.values())}")

    if failures:
        for failure in failures:
            print(f"[stream-smoke] FAIL: {failure}")
        return 1
    print(
        "[stream-smoke] PASS: parity + windows held under fault storm "
        f"({DAYS} batches, {DAYS * EVENTS_PER_DAY} records, seed {args.seed})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
