"""Hierarchical spans and counters for pipeline profiling.

The span tree mirrors the execution hierarchy of the paper's three-stage
pipeline::

    pipeline
    └── phase (Selection | Conversion | Extraction)
        └── stage (one engine stage = one ``run_stage`` call)
            └── task (one partition of one stage)

Driver-side code opens spans with :meth:`Tracer.span`; task spans are
*reconstructed* driver-side from the per-task outcomes every backend ships
back (the process backend cannot call into a driver tracer from a worker,
and wall-clock timestamps are the only cross-process-consistent currency).
A count (:meth:`Tracer.counter`) is booked once, on the span it ran under;
:meth:`Tracer.totals` sums a subtree and :attr:`Tracer.counters` the trace.

A tracer is installed either explicitly (``EngineContext(tracer=...)``) or
globally via :func:`set_tracer` / :func:`installed`; instrumentation sites
check :func:`current_tracer` and do nothing when it is ``None``, so the
untraced hot path stays free of overhead.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "installed",
]


@dataclass
class Span:
    """One timed node of the trace tree.

    ``start``/``end`` are wall-clock epoch seconds (``time.time()``), not
    monotonic time, because task spans on the process backend are stamped
    in other processes — epoch time is the clock all of them share.
    """

    span_id: int
    name: str
    category: str = ""
    start: float = 0.0
    end: float | None = None
    parent_id: int | None = None
    track: str = "driver"
    #: Labels and other values that do not add up (backend, path, ...).
    args: dict = field(default_factory=dict)
    #: Additive numbers booked while this span was innermost (:meth:`Tracer.counter`).
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)


class Tracer:
    """Collects spans, and the counts booked on them, for one profiled run.

    Thread-safe: driver threads, pool threads, and the metrics-merging path
    may all emit concurrently.  Span nesting is tracked per thread: a span
    begun, or a count booked, on a thread with no open span of its own is a
    root (or the trace's own count), never another thread's child.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: dict[int, Span] = {}  # by id, in creation order
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Counts booked with no span open (a serve handler thread, a bare ingest).
        self.counts: dict[str, float] = {}
        #: Trace epoch: exporters emit timestamps relative to this.
        self.t0 = clock()

    # -- span stack ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> int | None:
        """Innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def current_span(self) -> Span | None:
        """The :class:`Span` for :meth:`current_span_id`, if any."""
        sid = self.current_span_id()
        with self._lock:
            return self._spans.get(sid)

    def under(self, parent: Span, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, run as a child of ``parent`` on whichever thread calls it.

        How a pool thread, whose own stack is empty, books its counts and
        spans under the stage that dispatched it.
        """

        def run(*args: Any) -> Any:
            stack = self._stack()
            depth = len(stack)
            stack.append(parent.span_id)
            try:
                return fn(*args)
            finally:
                del stack[depth:]

        return run

    # -- emitting -----------------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str = "",
        *,
        track: str = "driver",
        **args: Any,
    ) -> Span:
        """Open a span as a child of the thread's current span."""
        parent_id = self.current_span_id()
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                name=name,
                category=category,
                start=self._clock(),
                parent_id=parent_id,
                track=track,
                args=dict(args),
            )
            self._spans[span.span_id] = span
        self._stack().append(span.span_id)
        return span

    def finish(self, span: Span, **args: Any) -> Span:
        """Close a span, optionally attaching final args."""
        if args:
            span.args.update(args)
        span.end = self._clock()
        stack = self._stack()
        if span.span_id in stack:
            stack.remove(span.span_id)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        *,
        track: str = "driver",
        **args: Any,
    ) -> Iterator[Span]:
        """Context-managed :meth:`begin`/:meth:`finish` pair."""
        span = self.begin(name, category, track=track, **args)
        try:
            yield span
        finally:
            self.finish(span)

    def add_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        parent: "Span | int | None" = None,
        track: str = "driver",
        **args: Any,
    ) -> Span:
        """Record an already-finished span with explicit timestamps.

        This is how task spans enter the tree: the driver replays each
        backend's :class:`~repro.engine.exec.TaskOutcome` wall-clock
        window after the stage completes.
        """
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        with self._lock:
            span = Span(
                span_id=next(self._ids),
                name=name,
                category=category,
                start=start,
                end=max(start, end),
                parent_id=parent_id,
                track=track,
                args=dict(args),
            )
            self._spans[span.span_id] = span
        return span

    # -- counters -----------------------------------------------------------------

    def counter(self, name: str, value: float) -> None:
        """Add ``value`` to ``name`` on the span :meth:`current_span_id`
        names, or on the trace itself when no span is open."""
        sid = self.current_span_id()
        with self._lock:
            counts = self.counts if sid is None else self._spans[sid].counts
            counts[name] = counts.get(name, 0) + value

    @property
    def counters(self) -> dict[str, float]:
        """Every count: those booked with no span open plus every span's."""
        return self.totals()

    def totals(self, span: Span | None = None) -> dict[str, float]:
        """The counts of ``span`` and of every span under it (no ``span``:
        of the whole trace, the counts booked with no span open included)."""
        inside = {None if span is None else span.span_id}
        with self._lock:
            total = Counter(self.counts if span is None else span.counts)
            for s in self._spans.values():  # a parent is created before its children
                if s.parent_id in inside:
                    inside.add(s.span_id)
                    total.update(s.counts)
        return dict(total)

    # -- reading ------------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """All spans in creation order."""
        with self._lock:
            return list(self._spans.values())

    def roots(self) -> list[Span]:
        """Spans with no parent."""
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span: "Span | int") -> list[Span]:
        """Direct children of a span, in creation order."""
        sid = span.span_id if isinstance(span, Span) else span
        return [s for s in self.spans if s.parent_id == sid]

    def find(self, name: str | None = None, category: str | None = None) -> list[Span]:
        """Spans matching a name and/or category."""
        return [
            s
            for s in self.spans
            if (name is None or s.name == name)
            and (category is None or s.category == category)
        ]

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self.spans)}, counters={len(self.counters)})"


# -- global installation ---------------------------------------------------------
#
# A module-level slot rather than a thread-local: stages may hop between the
# driver thread and pool threads, and all of them must see the same tracer.
_active: Tracer | None = None
_active_lock = threading.Lock()


def current_tracer() -> Tracer | None:
    """The globally installed tracer, or ``None`` when tracing is off."""
    return _active


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear) the global tracer; returns the previous one."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer
    return previous


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def phase(name: str, tracer: Tracer | None = None) -> Iterator[Span | None]:
    """Open a phase span on the active tracer, idempotently.

    Operators (Selector / converters / extractors) and ``Pipeline.run``
    both wrap their work in phase spans; when an operator runs *inside* a
    pipeline-level span of the same name, the inner call yields the
    enclosing span instead of stacking ``Selection → Selection``.  Yields
    ``None`` only when no tracer is installed — so callers can use
    "span is not None" as the "am I being profiled" test regardless of
    which layer opened the phase.  ``tracer`` lets call sites prefer a
    context-level tracer (``EngineContext(tracer=...)``) over the global
    one.
    """
    tracer = tracer if tracer is not None else current_tracer()
    if tracer is None:
        yield None
        return
    current = tracer.current_span()
    if current is not None and current.category == "phase" and current.name == name:
        yield current
        return
    with tracer.span(name, "phase") as span:
        yield span
