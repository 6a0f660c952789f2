"""Trace exporters: Chrome trace-event JSON, text summary tree, JSONL.

The Chrome format is the `trace-event`_ JSON that Perfetto and
``chrome://tracing`` load directly: one ``"X"`` (complete) event per span
with microsecond timestamps relative to the trace epoch and the span's
args and counts, one track (tid) per worker, and ``"C"`` counter events
for the tracer's counter totals.

.. _trace-event:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import Span, Tracer

__all__ = ["chrome_trace", "text_tree", "to_jsonl", "write_trace_files"]

_PID = 1


def _micros(tracer: Tracer, wall: float) -> int:
    """Wall-clock seconds → µs offset from the trace epoch (clamped ≥ 0).

    Task spans are stamped by worker processes whose clocks may disagree
    with the driver's by a hair; clamping keeps the trace loadable.
    """
    return max(0, int(round((wall - tracer.t0) * 1_000_000)))


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's spans + counters as a Chrome trace-event document."""
    tracks: dict[str, int] = {}
    events: list[dict] = []

    def tid_for(track: str) -> int:
        if track not in tracks:
            tracks[track] = len(tracks)
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": _PID,
                    "tid": tracks[track],
                    "args": {"name": track},
                }
            )
        return tracks[track]

    tid_for("driver")  # track 0 is always the driver
    last_ts = 0
    for span in tracer.spans:
        ts = _micros(tracer, span.start)
        end = span.end if span.end is not None else span.start
        dur = max(0, _micros(tracer, end) - ts)
        last_ts = max(last_ts, ts + dur)
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category or "span",
                "ts": ts,
                "dur": dur,
                "pid": _PID,
                "tid": tid_for(span.track),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.args,
                    **span.counts,
                },
            }
        )
    for name, value in sorted(tracer.counters.items()):
        events.append(
            {
                "ph": "C",
                "name": name,
                "ts": last_ts,
                "pid": _PID,
                "tid": 0,
                "args": {name: value},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "counters": tracer.counters},
    }


def _render_span(
    span: Span, children: dict[int | None, list[Span]], indent: int, lines: list[str]
) -> None:
    pad = "  " * indent
    ms = span.duration * 1000.0
    detail = ""
    if span.args or span.counts:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted({**span.args, **span.counts}.items()))
        detail = f"  {{{pairs}}}"
    category = f" [{span.category}]" if span.category else ""
    lines.append(f"{pad}{span.name}{category}  {ms:.1f}ms{detail}")
    for child in children.get(span.span_id, ()):
        _render_span(child, children, indent + 1, lines)


def text_tree(tracer: Tracer) -> str:
    """Human-readable span tree + counter table."""
    children: dict[int | None, list[Span]] = {}
    for span in tracer.spans:  # creation order, so children stay in order
        children.setdefault(span.parent_id, []).append(span)
    lines: list[str] = []
    for root in children.get(None, ()):
        _render_span(root, children, 0, lines)
    counters = tracer.counters
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            rendered = f"{value:,.0f}" if float(value).is_integer() else f"{value:,}"
            lines.append(f"  {name:<{width}}  {rendered}")
    return "\n".join(lines)


def to_jsonl(tracer: Tracer) -> str:
    """One JSON object per line: every span with its counts, then every counter total."""
    lines = []
    for span in tracer.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "category": span.category,
                    "track": span.track,
                    "start": span.start,
                    "end": span.end,
                    "duration": span.duration,
                    "args": span.args,
                    "counts": span.counts,
                },
                sort_keys=True,
            )
        )
    for name, value in sorted(tracer.counters.items()):
        lines.append(json.dumps({"type": "counter", "name": name, "value": value}))
    return "\n".join(lines) + "\n"


def write_trace_files(tracer: Tracer, base: str | Path) -> dict[str, Path]:
    """Write all three export formats next to each other.

    ``base`` is a path prefix: ``<base>.trace.json`` (Chrome),
    ``<base>.summary.txt`` (text tree), ``<base>.jsonl``.  Returns the
    written paths keyed by format.
    """
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "chrome": base.with_name(base.name + ".trace.json"),
        "summary": base.with_name(base.name + ".summary.txt"),
        "jsonl": base.with_name(base.name + ".jsonl"),
    }
    paths["chrome"].write_text(json.dumps(chrome_trace(tracer), indent=1))
    paths["summary"].write_text(text_tree(tracer) + "\n")
    paths["jsonl"].write_text(to_jsonl(tracer))
    return paths
