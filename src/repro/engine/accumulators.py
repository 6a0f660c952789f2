"""Accumulators — write-only shared counters for tasks.

The Spark analog: tasks add to an accumulator, only the driver reads the
total.  Used by application code to count records processed, filtered, or
skipped without an extra action over the data.

Every task-reported counter — an :class:`Accumulator`, a converter's
``AllocationStats``, a load's ``LoadStats`` — is a :class:`Sink`, and its
adds reach the driver the way Spark ships accumulator updates, identically
on every backend: a sink made outside a task gets an id; inside a task
attempt (:func:`attempt_outbox`) its :func:`reported` methods post
``(id, method, args)`` to that attempt's outbox instead of running; the
outbox rides the winning :class:`~repro.engine.exec.base.TaskOutcome` and
the driver applies it once (:func:`deliver`).  A failed attempt's outbox is
dropped, and so is a losing speculative copy's; a nested inline stage's
folds into the enclosing attempt's.  A sink made inside a task adds in
place.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import weakref
from contextlib import contextmanager
from threading import Lock
from typing import Callable, Generic, TypeVar

T = TypeVar("T")

#: Driver-side sinks by id — where a delivered outbox finds its targets.
_SINKS: "weakref.WeakValueDictionary[tuple, Sink]" = weakref.WeakValueDictionary()
_sink_ids = itertools.count(1)
#: ``outbox``: the running task attempt's, per thread (``None`` outside one).
_attempt = threading.local()


def reported(method):
    """Route a sink method through the running attempt's outbox.

    Called inside a task attempt on a sink made outside one, the call is
    posted (and returns ``None``); anywhere else it runs in place.
    """

    @functools.wraps(method)
    def post_or_apply(self, *args):
        outbox = getattr(_attempt, "outbox", None)
        if outbox is None or self._sink_id is None:
            return method(self, *args)
        outbox.append((self._sink_id, method.__name__, args))
        return None

    return post_or_apply


class Sink:
    """Base of every task-reported counter: an id, a lock, one pickling.

    The id is ``(pid, n)`` so that no sink made in another process can be
    mistaken for a driver's; a copy shipped to a worker keeps its
    original's id and posts to it.  The lock guards in-place mutation and
    stays behind when the sink is pickled.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._sink_id: tuple | None = None
        if getattr(_attempt, "outbox", None) is None:
            self._sink_id = (os.getpid(), next(_sink_ids))
            _SINKS[self._sink_id] = self

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = Lock()


@contextmanager
def attempt_outbox():
    """Scope one task attempt: sink calls inside post to the yielded list."""
    previous = getattr(_attempt, "outbox", None)
    _attempt.outbox = outbox = []
    try:
        yield outbox
    finally:
        _attempt.outbox = previous


def deliver(outbox: list) -> None:
    """Apply a winning attempt's outbox: fold it into the enclosing
    attempt's (a nested inline stage), else call each posted method on its
    sink, in posting order.  A sink that no longer exists here is skipped."""
    enclosing = getattr(_attempt, "outbox", None)
    if enclosing is not None:
        enclosing.extend(outbox)
        return
    for sink_id, name, args in outbox:
        sink = _SINKS.get(sink_id)
        if sink is not None:
            getattr(type(sink), name).__wrapped__(sink, *args)


class Accumulator(Sink, Generic[T]):
    """A thread-safe fold cell: ``add`` from tasks, ``value`` on the driver.

    ``combine`` must be associative and commutative (same contract Spark
    imposes); the default is numeric addition.
    """

    def __init__(self, zero: T, combine: Callable[[T, T], T] | None = None, name: str = ""):
        super().__init__()
        self._value = zero
        self._zero = zero
        self._combine = combine or (lambda a, b: a + b)  # type: ignore[operator]
        self.name = name

    @reported
    def add(self, increment: T) -> None:
        """Fold an increment into the accumulator (thread-safe)."""
        with self._lock:
            self._value = self._combine(self._value, increment)

    @property
    def value(self) -> T:
        """Current accumulated value."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self._value = self._zero

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Accumulator{label}(value={self.value!r})"


def counter(name: str = "") -> Accumulator[int]:
    """The common case: an integer counter starting at zero."""
    return Accumulator(0, name=name)
