"""In-memory spans recorded by the benchmark around each call into a layer.

A span is (id, parent, op, name, layer, start, end, counts).  Spans of one
op share its ``op`` id; ``parent`` is the span that was open when this one
started.  They live in a list until the run ends and are then written as
one JSON object per line.  Self time is a span's duration minus the part
its direct children cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread, timed with ``time.perf_counter``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.open: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str, op: int):
        parent = self.open[-1].id if self.open else None
        span = Span(len(self.spans), parent, op, name, layer, self.clock())
        self.spans.append(span)
        self.open.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self.open.pop()

    def add(self, name: str, layer: str, op: int, start: float, end: float,
            parent: int | None = None, counts: dict | None = None) -> Span:
        """Record a span from timestamps taken elsewhere (client-side clocks)."""
        span = Span(len(self.spans), parent, op, name, layer, start, end, counts or {})
        self.spans.append(span)
        return span


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_self_times(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Op id -> layer -> summed self time of that layer's spans in the op."""
    own = self_times(spans)
    per_op: dict[int, dict[str, float]] = {}
    for s in spans:
        layers = per_op.setdefault(s.op, {})
        layers[s.layer] = layers.get(s.layer, 0.0) + own[s.id]
    return per_op


def write_jsonl(path, spans: list[Span]) -> None:
    own = self_times(spans)
    with open(path, "w") as f:
        for s in spans:
            row = asdict(s)
            row["self_s"] = own[s.id]
            f.write(json.dumps(row) + "\n")
