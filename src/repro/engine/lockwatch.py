"""Runtime lock-order sanitizer: the one guard against lock-order hazards.

It watches what *actually* happens.  When installed it wraps
``threading.Lock`` / ``threading.RLock`` creation for callers inside
``repro.*`` modules and, per acquisition:

* records the per-thread stack of held locks (by creation site);
* adds ``held -> acquired`` edges to a global lock-order graph;
* reports a violation when an acquisition closes a cycle in that graph
  (two threads interleaving those sites can deadlock) — raising
  :class:`~repro.engine.errors.LockOrderViolation` in strict mode,
  recording in the default mode;
* always raises on a blocking re-acquire of a non-reentrant lock the
  same thread already holds (certain self-deadlock — raising beats
  hanging, even in record mode);
* measures wait and hold times per creation site, exporting
  ``lock_acquisitions`` / ``lock_contended`` / ``lock_wait_seconds`` /
  ``lock_hold_seconds`` counters and long-hold spans (track ``locks``)
  through the active :mod:`repro.obs` tracer, so ``repro trace`` shows
  contention next to task spans.

Enablement:

* ``EngineContext(strict=True)`` installs the watcher alongside the
  stage sanitizer;
* ``REPRO_LOCK_SANITIZER=1`` installs it at ``import repro`` time (how
  the CI ``lock-sanitizer`` job runs the serve and executor suites);
* ``repro locks script.py`` runs a workload under it and prints the
  order-graph report;
* ``lockwatch.enabled()`` / ``lockwatch.watched()`` give tests and
  notebooks scoped, explicit control.

``REPRO_LOCK_GRAPH_OUT=<path>`` dumps the order graph, per-site stats,
and violations as JSON at interpreter exit.  A hold of at least
``HOLD_SPAN_SECONDS`` is exported as a span.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.engine.errors import LockOrderViolation

#: The real factories, saved before any monkey-patching.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_enabled() -> bool:
    """True when ``REPRO_LOCK_SANITIZER`` asks for install-at-import."""
    return os.environ.get("REPRO_LOCK_SANITIZER", "").strip().lower() in _TRUTHY


#: Holds at least this long are exported as ``lock-hold`` spans.
HOLD_SPAN_SECONDS = 0.05


@dataclass
class SiteStats:
    """Aggregate counters for one lock creation site."""

    acquisitions: int = 0
    contended: int = 0
    wait_seconds: float = 0.0
    hold_seconds: float = 0.0
    max_hold_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "acquisitions": self.acquisitions,
            "contended": self.contended,
            "wait_seconds": round(self.wait_seconds, 6),
            "hold_seconds": round(self.hold_seconds, 6),
            "max_hold_seconds": round(self.max_hold_seconds, 6),
        }


@dataclass(frozen=True)
class Violation:
    """One detected hazard: a lock-order cycle or a self-deadlock."""

    kind: str  # "lock-order-cycle" | "self-deadlock"
    cycle: tuple[str, ...]
    thread: str
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "cycle": list(self.cycle),
            "thread": self.thread,
            "message": self.message,
        }


class _HeldEntry:
    """One frame of a thread's held-lock stack."""

    __slots__ = ("lock_id", "site", "since", "wall_since", "count", "waited", "contended")

    def __init__(self, lock_id: int, site: str, waited: float, contended: bool):
        self.lock_id = lock_id
        self.site = site
        self.since = time.perf_counter()
        self.wall_since = time.time()
        self.count = 1  # reentrant depth (RLock)
        self.waited = waited
        self.contended = contended


class LockWatcher:
    """Global acquisition recorder: order graph, per-site stats, violations."""

    def __init__(self) -> None:
        # The watcher's own lock must be a *real* lock: watching it would
        # recurse through note_acquired forever.
        self._lock = _REAL_LOCK()
        self._local = threading.local()
        #: site -> set of sites acquired while holding it
        self.edges: dict[str, set[str]] = {}
        self.stats: dict[str, SiteStats] = {}
        self.violations: list[Violation] = []
        self._seen_cycles: set[frozenset[str]] = set()
        self.raise_on_cycle = False
        self.hold_threshold = HOLD_SPAN_SECONDS

    # -- per-thread state ------------------------------------------------

    def _stack(self) -> list[_HeldEntry]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _in_hook(self) -> bool:
        return getattr(self._local, "in_hook", False)

    @contextmanager
    def _hook_guard(self) -> Iterator[None]:
        # Tracer internals take their own (watched) lock; the guard makes
        # the nested acquire pass through without recursing into hooks.
        self._local.in_hook = True
        try:
            yield
        finally:
            self._local.in_hook = False

    # -- recording -------------------------------------------------------

    def held_entry(self, lock_id: int) -> _HeldEntry | None:
        for entry in reversed(self._stack()):
            if entry.lock_id == lock_id:
                return entry
        return None

    def note_acquired(
        self, lock_id: int, site: str, waited: float, contended: bool
    ) -> Violation | None:
        """Record an acquisition; return a Violation if it closed a cycle."""
        stack = self._stack()
        violation: Violation | None = None
        with self._lock:
            stats = self.stats.setdefault(site, SiteStats())
            stats.acquisitions += 1
            stats.wait_seconds += waited
            if contended:
                stats.contended += 1
            for entry in stack:
                if entry.site != site:
                    self.edges.setdefault(entry.site, set()).add(site)
            if stack:
                cycle = self._find_cycle(site, {e.site for e in stack})
                if cycle is not None:
                    key = frozenset(cycle)
                    if key not in self._seen_cycles:
                        self._seen_cycles.add(key)
                        violation = Violation(
                            kind="lock-order-cycle",
                            cycle=cycle,
                            thread=threading.current_thread().name,
                            message=(
                                "lock-order cycle detected: "
                                + " -> ".join(cycle)
                                + " (threads interleaving these sites can "
                                "deadlock; pick one global order)"
                            ),
                        )
                        self.violations.append(violation)
        stack.append(_HeldEntry(lock_id, site, waited, contended))
        return violation

    def note_self_deadlock(self, site: str) -> Violation:
        violation = Violation(
            kind="self-deadlock",
            cycle=(site, site),
            thread=threading.current_thread().name,
            message=(
                f"thread {threading.current_thread().name!r} blocking-"
                f"reacquires non-reentrant lock {site} it already holds; "
                f"this deadlocks unconditionally (use RLock or restructure)"
            ),
        )
        with self._lock:
            self.violations.append(violation)
        return violation

    def note_released(self, lock_id: int) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].lock_id == lock_id:
                entry = stack.pop(i)
                break
        else:
            return
        held = time.perf_counter() - entry.since
        with self._lock:
            stats = self.stats.setdefault(entry.site, SiteStats())
            stats.hold_seconds += held
            if held > stats.max_hold_seconds:
                stats.max_hold_seconds = held
        self._emit(entry, held)

    def _emit(self, entry: _HeldEntry, held: float) -> None:
        if self._in_hook():
            return
        from repro.obs.tracer import current_tracer

        tracer = current_tracer()
        if tracer is None:
            return
        with self._hook_guard():
            tracer.counter("lock_acquisitions", 1)
            tracer.counter("lock_hold_seconds", held)
            if entry.contended:
                tracer.counter("lock_contended", 1)
                tracer.counter("lock_wait_seconds", entry.waited)
            if held >= self.hold_threshold:
                tracer.add_span(
                    "lock-hold",
                    "lock",
                    entry.wall_since,
                    entry.wall_since + held,
                    track="locks",
                    site=entry.site,
                )

    def _find_cycle(self, new_site: str, held_sites: set[str]) -> tuple[str, ...] | None:
        """BFS from ``new_site`` back to any held site ⇒ ordering cycle.

        Caller holds ``self._lock``.  Returns the closed path
        ``new_site -> … -> held_site -> new_site`` or None.
        """
        if new_site in self.edges.get(new_site, ()):  # pragma: no cover - edges skip self
            return (new_site, new_site)
        parents: dict[str, str] = {}
        frontier = [new_site]
        seen = {new_site}
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for succ in sorted(self.edges.get(node, ())):
                    if succ in seen:
                        continue
                    parents[succ] = node
                    if succ in held_sites:
                        path = [succ]
                        while path[-1] != new_site:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return tuple([new_site, *path[1:], new_site])
                    seen.add(succ)
                    nxt.append(succ)
            frontier = nxt
        return None

    # -- reporting -------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.edges.clear()
            self.stats.clear()
            self.violations.clear()
            self._seen_cycles.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "sites": {site: st.as_dict() for site, st in sorted(self.stats.items())},
                "edges": {src: sorted(dst) for src, dst in sorted(self.edges.items())},
                "violations": [v.as_dict() for v in self.violations],
            }


class _WatchedLock:
    """Wrapper around a real Lock/RLock that reports to the watcher.

    Transparent enough for ``threading.Condition``: attribute access
    falls through to the inner lock, and non-blocking acquires behave
    identically.  Deliberately *not* picklable — raw locks aren't, and
    strict mode's pickle round-trip relies on a captured lock failing
    loudly.
    """

    __slots__ = ("_inner", "_site", "_reentrant", "_watcher")

    def __init__(self, inner: Any, site: str, reentrant: bool, watcher: LockWatcher):
        self._inner = inner
        self._site = site
        self._reentrant = reentrant
        self._watcher = watcher

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        watcher = self._watcher
        if watcher._in_hook():
            return self._inner.acquire(blocking, timeout)
        entry = watcher.held_entry(id(self))
        if entry is not None:
            if self._reentrant:
                ok = self._inner.acquire(blocking, timeout)
                if ok:
                    entry.count += 1
                return ok
            if blocking and timeout < 0:
                watcher.note_self_deadlock(self._site)
                raise LockOrderViolation(
                    f"self-deadlock: blocking re-acquire of non-reentrant "
                    f"lock {self._site} already held by this thread",
                    cycle=(self._site, self._site),
                )
            return self._inner.acquire(blocking, timeout)
        # Try uncontended first so wait time is only measured when real.
        contended = False
        waited = 0.0
        ok = self._inner.acquire(False)
        if not ok:
            if not blocking:
                return False
            contended = True
            t0 = time.perf_counter()
            ok = self._inner.acquire(True, timeout)
            waited = time.perf_counter() - t0
            if not ok:
                return False
        violation = watcher.note_acquired(id(self), self._site, waited, contended)
        if violation is not None and watcher.raise_on_cycle:
            self.release()
            raise LockOrderViolation(violation.message, cycle=violation.cycle)
        return True

    def release(self) -> None:
        watcher = self._watcher
        if watcher._in_hook():
            self._inner.release()
            return
        entry = watcher.held_entry(id(self))
        if entry is not None and self._reentrant and entry.count > 1:
            entry.count -= 1
            self._inner.release()
            return
        self._inner.release()
        watcher.note_released(id(self))

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __getattr__(self, name: str) -> Any:
        # Condition needs _release_save/_acquire_restore/_is_owned when the
        # inner lock provides them (RLock); plain locks fall back to
        # Condition's defaults, which work through acquire(0)/release.
        return getattr(self._inner, name)

    def __reduce__(self) -> Any:
        raise TypeError(f"cannot pickle watched lock object (site {self._site})")

    def __repr__(self) -> str:
        return f"<watched {'RLock' if self._reentrant else 'Lock'} site={self._site}>"


_watcher: LockWatcher | None = None
_installed = False
_dump_registered = False


def watcher() -> LockWatcher:
    """The process-wide watcher singleton (created on first use)."""
    global _watcher
    if _watcher is None:
        _watcher = LockWatcher()
    return _watcher


def is_installed() -> bool:
    return _installed


def watched(inner: Any = None, *, name: str | None = None) -> _WatchedLock:
    """Explicitly wrap one lock, regardless of install state.

    ``name`` overrides the creation-site label — useful in tests and
    docs where stable labels beat ``module:lineno``.
    """
    if inner is None:
        inner = _REAL_LOCK()
    reentrant = "rlock" in type(inner).__name__.lower()
    if name is None:
        frame = sys._getframe(1)
        name = f"{frame.f_globals.get('__name__', '?')}:{frame.f_lineno}"
    return _WatchedLock(inner, name, reentrant, watcher())


def _make_factory(kind: str, real: Any) -> Any:
    reentrant = kind == "RLock"

    def factory(*args: Any, **kwargs: Any) -> Any:
        inner = real(*args, **kwargs)
        frame = sys._getframe(1)
        module = frame.f_globals.get("__name__", "")
        if not (module == "repro" or module.startswith("repro.")):
            return inner  # only repro's own locks are sanitized
        site = f"{module}:{frame.f_lineno}"
        return _WatchedLock(inner, site, reentrant, watcher())

    factory._repro_lockwatch = True  # type: ignore[attr-defined]
    factory.__name__ = kind
    return factory


def install(raise_on_cycle: bool | None = None) -> LockWatcher:
    """Patch ``threading.Lock``/``RLock`` so repro modules get watched locks.

    Also rebinds ``Lock``/``RLock`` names that already-imported repro
    modules pulled in via ``from threading import Lock`` — without this,
    the serve daemon and caches imported before install would keep
    creating raw locks.  Idempotent; ``uninstall`` undoes both.
    """
    global _installed, _dump_registered
    w = watcher()
    if raise_on_cycle is not None:
        w.raise_on_cycle = raise_on_cycle
    if not _installed:
        threading.Lock = _make_factory("Lock", _REAL_LOCK)  # type: ignore[misc]
        threading.RLock = _make_factory("RLock", _REAL_RLOCK)  # type: ignore[misc]
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            ns = getattr(module, "__dict__", {})
            if ns.get("Lock") is _REAL_LOCK:
                ns["Lock"] = threading.Lock
            if ns.get("RLock") is _REAL_RLOCK:
                ns["RLock"] = threading.RLock
        _installed = True
    out = os.environ.get("REPRO_LOCK_GRAPH_OUT", "").strip()
    if out and not _dump_registered:
        # Only the driver process dumps; multiprocessing children racing
        # the same path would clobber it.
        pid = os.getpid()
        atexit.register(lambda: os.getpid() == pid and _dump_graph(out))
        _dump_registered = True
    return w


def uninstall() -> None:
    """Restore the real factories and any rebound repro module globals."""
    global _installed
    if not _installed:
        return
    patched_lock = threading.Lock
    patched_rlock = threading.RLock
    threading.Lock = _REAL_LOCK  # type: ignore[misc]
    threading.RLock = _REAL_RLOCK  # type: ignore[misc]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        ns = getattr(module, "__dict__", {})
        if ns.get("Lock") is patched_lock:
            ns["Lock"] = _REAL_LOCK
        if ns.get("RLock") is patched_rlock:
            ns["RLock"] = _REAL_RLOCK
    _installed = False


@contextmanager
def enabled(*, raise_on_cycle: bool = False, reset: bool = True) -> Iterator[LockWatcher]:
    """Scoped sanitizer: install, yield the watcher, restore on exit.

    Leaves a pre-existing install in place (tests nested under
    ``REPRO_LOCK_SANITIZER=1`` CI runs shouldn't tear it down).
    """
    was_installed = _installed
    w = install(raise_on_cycle=raise_on_cycle)
    if reset:
        w.reset()
    prior_raise = w.raise_on_cycle
    try:
        yield w
    finally:
        w.raise_on_cycle = prior_raise
        if not was_installed:
            uninstall()


def format_report(snapshot: dict[str, Any]) -> str:
    """Human-readable report for ``repro locks`` and test output."""
    lines = ["lock sites:"]
    sites = snapshot.get("sites", {})
    if not sites:
        lines.append("  (none recorded)")
    width = max((len(s) for s in sites), default=4)
    for site, st in sites.items():
        lines.append(
            f"  {site:<{width}}  acq={st['acquisitions']:<6} "
            f"contended={st['contended']:<4} "
            f"wait={st['wait_seconds']:.4f}s hold={st['hold_seconds']:.4f}s "
            f"max_hold={st['max_hold_seconds']:.4f}s"
        )
    edges = snapshot.get("edges", {})
    lines.append("lock-order graph:")
    if not edges:
        lines.append("  (no nested acquisitions)")
    for src, dsts in edges.items():
        for dst in dsts:
            lines.append(f"  {src} -> {dst}")
    violations = snapshot.get("violations", [])
    lines.append(f"violations: {len(violations)}")
    for v in violations:
        lines.append(f"  [{v['kind']}] {v['message']}")
    return "\n".join(lines)


def _dump_graph(path: str) -> None:
    if _watcher is None:  # pragma: no cover - dump only registered post-install
        return
    payload = _watcher.snapshot()
    target = os.path.abspath(path)
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, target)
    except OSError:  # pragma: no cover - best-effort at exit
        try:
            os.unlink(tmp)
        except OSError:
            pass
