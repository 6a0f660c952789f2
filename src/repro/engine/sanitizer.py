"""Runtime sanitizer behind ``EngineContext(strict=True)``.

This module is the one guard against stage-closure hazards: it checks
the closures that actually execute.  In strict mode the context,
driver-side and before dispatch, asserts that every top-level stage would
survive the process backend:

1. **Picklability + round-trip.**  The stage's task closure is serialized
   with the same serializer the process backend uses (cloudpickle when
   available, stdlib pickle otherwise) and loaded back.  Failures raise
   :class:`~repro.engine.errors.StrictModeViolation` naming the function
   and the specific capture that does not pickle — on *any* backend, so
   the bug surfaces in fast sequential tests, not in a scaled-out run.
2. **Capture-mutation detection.**  Closure cells of the user functions in
   the lineage are fingerprinted before the stage and re-fingerprinted
   after; a changed fingerprint means a task mutated captured state that
   would silently diverge (or be lost) across process workers.  Objects
   speaking the accumulator protocol (``add`` + ``reset`` + ``value``,
   e.g. engine ``Accumulator`` and converter ``AllocationStats``) are the
   sanctioned side channel and are exempt.
3. **Broadcast immutability.**  Every live broadcast's value fingerprint
   must be unchanged after each stage.

The checks run only on the driver for top-level stages — nested stages
(shuffle map sides evaluated inside a task) and worker-side context
copies are skipped, exactly like the backend-selection logic in
``run_stage``.
"""

from __future__ import annotations

import hashlib
import pickle
import types
from typing import Any, Callable, Iterable

from repro.engine.errors import StrictModeViolation

try:  # same widening the process backend applies
    import cloudpickle as _closure_pickle
except ImportError:  # pragma: no cover - exercised only without cloudpickle
    _closure_pickle = None


def _dumps(obj: Any) -> bytes:
    dumps = _closure_pickle.dumps if _closure_pickle is not None else pickle.dumps
    return dumps(obj)


def _fingerprint(obj: Any) -> bytes | None:
    """Stable digest of an object's pickled form; None when unpicklable."""
    try:
        return hashlib.blake2b(_dumps(obj), digest_size=16).digest()
    except Exception:
        return None


def is_accumulator(value: Any) -> bool:
    """True for objects speaking the accumulator protocol.

    ``add`` folds an increment in, ``reset`` zeroes, ``value``/``snapshot``
    reads — engine ``Accumulator`` and converter ``AllocationStats`` both
    qualify.  Plain sets also have ``add`` but no ``reset``, so they are
    (correctly) not exempt.
    """
    return (
        callable(getattr(value, "add", None))
        and callable(getattr(value, "reset", None))
        and not isinstance(value, type)
    )


def _is_engine_object(value: Any) -> bool:
    """Engine-internal captures whose state legitimately changes mid-stage
    (RDD caches, shuffle buckets, context metrics) — not user state."""
    from repro.engine.broadcast import Broadcast
    from repro.engine.context import EngineContext
    from repro.engine.rdd import RDD

    return isinstance(value, (RDD, EngineContext, Broadcast))


_LINEAGE_FUNC_ATTRS = ("_f", "_key_of", "_create", "_merge_value", "_merge_combiners")


def stage_functions(task: Callable) -> dict[str, types.FunctionType]:
    """User-level functions a stage executes, labeled for diagnostics.

    A stage task is usually ``RDD._partition`` bound to the action's RDD;
    the user's functions live in the lineage nodes (``_MapPartitionsRDD._f``
    and the shuffle combiner hooks) and, transitively, in those functions'
    closure cells (``rdd.map(f)`` wraps ``f`` in an engine lambda).
    """
    found: dict[str, types.FunctionType] = {}
    seen: set[int] = set()

    def add(fn: Any, label: str) -> None:
        if not isinstance(fn, types.FunctionType) or id(fn) in seen:
            return
        seen.add(id(fn))
        found[label] = fn
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                value = cell.cell_contents
            except ValueError:  # empty cell
                continue
            add(value, f"{label} -> {name}")

    owner = getattr(task, "__self__", None)
    if owner is not None and hasattr(owner, "_parents"):
        stack = [owner]
        visited: set[int] = set()
        while stack:
            rdd = stack.pop()
            if id(rdd) in visited:
                continue
            visited.add(id(rdd))
            for attr in _LINEAGE_FUNC_ATTRS:
                add(getattr(rdd, attr, None), f"{type(rdd).__name__}.{attr}")
            stack.extend(rdd._parents())
    else:
        add(task, getattr(task, "__qualname__", repr(task)))
    return found


def _capture_cells(fn: types.FunctionType) -> Iterable[tuple[str, Any]]:
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            yield name, cell.cell_contents
        except ValueError:
            continue


def _referenced_globals(fn: types.FunctionType) -> Iterable[tuple[str, Any]]:
    """Module/script globals a function's code actually names.

    cloudpickle serializes these by value for functions it pickles by
    value (``__main__`` lambdas, REPL definitions), so they are captures
    in every sense that matters to the process backend.  ``co_names``
    also lists attribute names; the ``in globals`` filter drops those.
    """
    namespace = getattr(fn, "__globals__", None)
    if not isinstance(namespace, dict):
        return
    for name in fn.__code__.co_names:
        if name in namespace:
            yield name, namespace[name]


def _skip_in_snapshot(value: Any) -> bool:
    """Values whose fingerprint is not meaningful mutation evidence:
    functions are walked into under their own label, modules/classes
    pickle by reference, accumulators are the sanctioned side channel,
    and engine objects mutate legitimately mid-stage."""
    return (
        isinstance(
            value,
            (types.FunctionType, types.BuiltinFunctionType, types.ModuleType, type),
        )
        or is_accumulator(value)
        or _is_engine_object(value)
    )


class StageSanitizer:
    """Driver-side strict-mode checks around one context's stages."""

    def __init__(self) -> None:
        #: Live broadcasts and the fingerprint taken at creation.
        self._broadcasts: list[tuple[Any, bytes | None]] = []

    # -- broadcasts -----------------------------------------------------------------

    def register_broadcast(self, broadcast: Any) -> None:
        self._broadcasts.append((broadcast, broadcast.fingerprint()))

    # -- pre-stage ------------------------------------------------------------------

    def check_stage(self, task: Callable) -> dict[str, bytes]:
        """Assert process-portability of ``task``; return a capture snapshot."""
        self._check_picklable(task)
        return self._snapshot(task)

    def _check_picklable(self, task: Callable) -> None:
        try:
            payload = _dumps(task)
        except Exception as exc:
            raise StrictModeViolation(
                self._describe_pickle_failure(task, exc), rule="REPRO105"
            ) from exc
        try:
            restored = pickle.loads(payload)
        except Exception as exc:
            raise StrictModeViolation(
                f"stage closure pickle round-trip failed on load: {exc!r}; "
                f"the process backend would crash deserializing this stage "
                f"in a worker",
                rule="REPRO105",
            ) from exc
        if not callable(restored):
            raise StrictModeViolation(
                f"stage closure round-tripped to non-callable "
                f"{type(restored).__name__}; task serialization is broken",
                rule="REPRO105",
            )

    def _describe_pickle_failure(self, task: Callable, exc: Exception) -> str:
        """Name the function and capture that broke serialization."""
        culprits: list[str] = []
        functions = stage_functions(task)
        labeled = {id(fn) for fn in functions.values()}
        for label, fn in functions.items():
            try:
                _dumps(fn)
                continue  # this function pickles; not a culprit
            except Exception:
                pass
            named_leaf = False
            for origin, pairs in (
                ("captures", _capture_cells(fn)),
                ("references global", _referenced_globals(fn)),
            ):
                for name, value in pairs:
                    if isinstance(value, types.FunctionType) and id(value) in labeled:
                        continue  # walked into under its own label
                    try:
                        _dumps(value)
                    except Exception:
                        named_leaf = True
                        culprits.append(
                            f"{label} {origin} {name!r} = "
                            f"{type(value).__name__} which does not pickle"
                        )
            if not named_leaf and not any(
                isinstance(v, types.FunctionType) and id(v) in labeled
                for _, v in _capture_cells(fn)
            ):
                culprits.append(f"{label} does not pickle")
        detail = "; ".join(culprits) if culprits else f"serializer said: {exc!r}"
        hint = (
            ""
            if _closure_pickle is not None
            else " (cloudpickle is not installed, so only module-level "
            "callables pickle)"
        )
        return (
            f"strict mode: stage closure cannot be shipped to process "
            f"workers — {detail}{hint}"
        )

    def _snapshot(self, task: Callable) -> dict[str, bytes]:
        snapshot: dict[str, bytes] = {}
        for label, fn in stage_functions(task).items():
            for origin, pairs in (
                ("capture", _capture_cells(fn)),
                ("global", _referenced_globals(fn)),
            ):
                for name, value in pairs:
                    if _skip_in_snapshot(value):
                        continue
                    digest = _fingerprint(value)
                    if digest is not None:
                        snapshot[f"{label} {origin} {name!r}"] = digest
        return snapshot

    # -- post-stage ------------------------------------------------------------------

    def verify_stage(self, task: Callable, snapshot: dict[str, bytes]) -> None:
        """Detect task-side mutation of captured state or broadcast values.

        Broadcasts are checked first: a mutated broadcast value would also
        perturb capture fingerprints, and REPRO109 is the more precise
        diagnosis.
        """
        for broadcast, creation_digest in self._broadcasts:
            if getattr(broadcast, "_destroyed", False) or creation_digest is None:
                continue
            if broadcast.fingerprint() != creation_digest:
                raise StrictModeViolation(
                    f"strict mode: {broadcast!r} value changed after a "
                    f"stage; broadcasts are read-only shared state — build "
                    f"the final value before broadcasting",
                    rule="REPRO109",
                )
        after = self._snapshot(task)
        for key, before_digest in snapshot.items():
            after_digest = after.get(key)
            if after_digest is not None and after_digest != before_digest:
                raise StrictModeViolation(
                    f"strict mode: {key} was mutated by a task; on the "
                    f"process backend the write happens in one worker's "
                    f"copy and is lost — use an accumulator (.add) or "
                    f"return the value from the stage",
                    rule="REPRO104",
                )


def validate_partitioner(partitioner: Any, sample: Iterable[Any], limit: int = 256) -> None:
    """Strict-mode check of the partitioner contract on a fitted sample.

    ``num_partitions`` must be positive and match ``boundaries()``;
    ``assign`` must be total, in-range, and deterministic (two calls on
    the same instance agree — the property shuffle routing relies on).
    """
    n = partitioner.num_partitions
    if n < 1:
        raise StrictModeViolation(
            f"{type(partitioner).__name__}.num_partitions is {n}; a "
            f"partitioner must expose at least one partition",
            rule="REPRO110",
        )
    boundaries = partitioner.boundaries()
    if len(boundaries) != n:
        raise StrictModeViolation(
            f"{type(partitioner).__name__} exposes {len(boundaries)} "
            f"boundaries for {n} partitions; the on-disk metadata writer "
            f"needs exactly one box per partition",
            rule="REPRO110",
        )
    for instance in list(sample)[:limit]:
        first = partitioner.assign(instance)
        second = partitioner.assign(instance)
        if first != second:
            raise StrictModeViolation(
                f"{type(partitioner).__name__}.assign is nondeterministic "
                f"({first} then {second} for the same instance); shuffle "
                f"routing requires a pure assigner",
                rule="REPRO110",
            )
        if not 0 <= first < n:
            raise StrictModeViolation(
                f"{type(partitioner).__name__}.assign returned {first}, "
                f"outside [0, {n}); assignment must be total",
                rule="REPRO110",
            )
