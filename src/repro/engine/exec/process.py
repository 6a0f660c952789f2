"""Multiprocess execution with straggler re-execution.

This is the backend that turns partitioner load balance into wall-clock
speedup: tasks run on a pool of OS processes, sidestepping the GIL for
CPU-bound stages.  The moving parts, in dispatch order:

1. **Serialization.**  The stage's task closure (with the failure-injector
   hook, the retry policy, and the fault plan, so fault injection composes
   with this backend) is pickled *once* per stage — with ``cloudpickle``
   when available, so lambda-laden RDD lineages work; otherwise stdlib
   pickle, which restricts stages to module-level callables.  Workers
   cache the deserialized stage by token, so each worker pays the decode
   once per stage, not once per chunk.
2. **Chunking.**  Partition indices are batched into chunks sized by the
   cost model (:func:`~repro.engine.costmodel.suggest_task_chunks`):
   coarse enough to amortize dispatch, fine enough that late chunks level
   out skew.
3. **Warm-up / reuse.**  The pool is created lazily, primed with no-op
   tasks so fork/import cost is paid before the first timed stage, and
   reused across stages until ``stop()``.
4. **Straggler re-execution.**  Once a quorum of chunks has finished, a
   chunk still running past ``speculative_multiplier ×`` the median chunk
   time (and the ``speculative_fraction`` launch budget) gets one
   speculative copy; whichever copy finishes first wins, and wins are
   reported in :class:`~repro.engine.exec.base.StageResult` (Spark's
   ``spark.speculation`` analog).
5. **Timeout + retry.**  With ``task_timeout`` set, a chunk exceeding it
   is re-dispatched (counting toward the retry limit); when the budget is
   exhausted a :class:`TaskFailure` with a
   :class:`~repro.engine.errors.TaskTimeout` cause surfaces.  In-worker
   exceptions retry inside the worker via the shared attempt loop.
6. **Worker loss.**  A dead worker (SIGKILL, OOM, interpreter crash)
   breaks the pool; instead of aborting, the backend discards the pool
   and raises :class:`~repro.engine.errors.WorkerLostError` carrying every
   outcome that already landed — the engine then recomputes *only* the
   lost partitions from lineage (Spark's recompute-on-executor-loss).

Abandoned copies (speculative losers, timed-out attempts) cannot be
killed mid-task — their results are discarded when they eventually land,
which is exactly Spark's zombie-task behavior.  A *failed* copy landing
while its sibling is still in flight is likewise discarded (its retry
cost folded into the chunk's waste accounting), not raised: the in-flight
copy may yet succeed, and double-raising double-metered the attempts.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.engine.errors import (
    EngineError,
    TaskFailure,
    TaskSerializationError,
    TaskTimeout,
    WorkerLostError,
)
from repro.engine.exec.base import Backend, StageResult, StageSpec, TaskOutcome, run_task_attempts

try:  # cloudpickle widens picklability to lambdas/closures; optional.
    import cloudpickle as _closure_pickle
except ImportError:  # pragma: no cover - exercised only without cloudpickle
    _closure_pickle = None

HAS_CLOUDPICKLE = _closure_pickle is not None

_stage_tokens = itertools.count(1)

#: Worker-side cache of deserialized stages, keyed by stage token.  Bounded:
#: a worker only ever runs a few stages concurrently-adjacent in time.
_WORKER_STAGE_CACHE: dict[int, tuple] = {}
_WORKER_STAGE_CACHE_LIMIT = 8


def _serialize_stage(spec: StageSpec) -> tuple[bytes, list[bytes]]:
    """Pickle the stage closure: ``(payload, out-of-band buffers)``.

    Protocol 5 with a ``buffer_callback`` keeps large contiguous blobs
    (BoxTable/packed-tree ndarrays captured by columnar stages) out of the
    in-band pickle stream: the stream holds a reference and the raw bytes
    ship alongside, skipping the frame-copy on both ends.  The split is
    also what the driver meters as ``stage_oob_bytes``.
    """
    dumps = _closure_pickle.dumps if _closure_pickle is not None else pickle.dumps
    buffers: list[bytes] = []
    try:
        payload = dumps(
            (spec.task, spec.failure_injector, spec.policy, spec.fault_plan, spec.stage_no),
            protocol=5,
            buffer_callback=lambda buf: buffers.append(buf.raw().tobytes()),
        )
        return payload, buffers
    except Exception as exc:
        serializer = "cloudpickle" if _closure_pickle is not None else "pickle"
        hint = (
            ""
            if _closure_pickle is not None
            else " (cloudpickle is not installed, so only module-level callables pickle)"
        )
        raise TaskSerializationError(
            f"cannot ship stage to process workers: {serializer} failed with "
            f"{exc!r}; every object the stage references — the RDD lineage, "
            f"the context, the failure injector — must be picklable" + hint
        ) from exc


def _load_stage(token: int, payload: bytes, buffers: list[bytes]) -> tuple:
    cached = _WORKER_STAGE_CACHE.get(token)
    if cached is None:
        # cloudpickle output loads via stdlib pickle; out-of-band buffers
        # are rejoined positionally (pickle 5's buffer protocol).
        cached = pickle.loads(payload, buffers=buffers)
        if len(_WORKER_STAGE_CACHE) >= _WORKER_STAGE_CACHE_LIMIT:
            _WORKER_STAGE_CACHE.pop(next(iter(_WORKER_STAGE_CACHE)))
        _WORKER_STAGE_CACHE[token] = cached
    return cached


def _warm_worker() -> None:
    """Pool initializer: pull the heavy imports before the first task."""
    import repro.engine.rdd  # noqa: F401
    import repro.engine.context  # noqa: F401


def _noop() -> int:
    return os.getpid()


def _run_chunk(
    token: int,
    payload: bytes,
    buffers: list[bytes],
    partitions: list[int],
    max_task_retries: int,
    attempt_offset: int = 0,
    budget=None,
) -> list[TaskOutcome]:
    """Worker entry point: run a batch of tasks, return their outcomes.

    A permanent in-worker failure raises :class:`TaskFailure`, which
    travels back through the pool's result pickling (it defines
    ``__reduce__``; an unpicklable cause is downgraded to its repr).
    ``budget`` is this chunk's copy of the stage retry budget — shipped
    by value, so the cap is per-executor on this backend.
    """
    task, injector, policy, fault_plan, stage_no = _load_stage(token, payload, buffers)
    worker = f"pid-{os.getpid()}"
    outcomes = []
    for partition in partitions:
        try:
            outcomes.append(
                run_task_attempts(
                    task,
                    partition,
                    max_task_retries,
                    injector,
                    worker=worker,
                    policy=policy,
                    fault_plan=fault_plan,
                    stage_no=stage_no,
                    attempt_offset=attempt_offset,
                    budget=budget,
                    process_worker=True,
                )
            )
        except TaskFailure as failure:
            try:
                pickle.dumps(failure.cause)
            except Exception:
                failure.cause = RuntimeError(repr(failure.cause))
            raise failure
    return outcomes


class _ChunkState:
    """Driver-side bookkeeping for one dispatched chunk."""

    __slots__ = (
        "partitions",
        "first_submitted",
        "last_submitted",
        "resubmits",
        "swallowed_timeouts",
        "wasted_attempts",
        "wasted_seconds",
        "speculated",
        "finished",
        "futures",
    )

    def __init__(self, partitions: list[int], now: float):
        self.partitions = partitions
        self.first_submitted = now
        self.last_submitted = now
        self.resubmits = 0  # timeout re-dispatches (count toward retries)
        self.swallowed_timeouts = 0  # zombie failures already covered by resubmits
        self.wasted_attempts = 0  # failed attempts from discarded sibling copies
        self.wasted_seconds = 0.0
        self.speculated = False
        self.finished = False
        self.futures: dict[Future, bool] = {}  # future -> is_speculative


def _note_copy_failure(
    chunk: _ChunkState, failure: TaskFailure, was_speculative: bool
) -> TaskFailure | None:
    """Account one copy's failure; return a failure to raise iff fatal.

    With another copy of the chunk still in flight, the failed copy is a
    zombie: its retry cost is folded into the chunk's waste accounting
    (exactly once — a timed-out original whose re-dispatch is running was
    *already* charged via ``resubmits``, so it folds nothing) and the
    stage keeps running.  Only when the last copy fails does the stage
    abort, with the waste of the discarded copies merged in — previously
    the first landing failure aborted immediately AND re-added the
    resubmit charge on top of the zombie's own attempts, double-metering
    the same logical attempts.
    """
    if chunk.futures:  # a sibling copy is still in flight — may yet win
        if not was_speculative and chunk.swallowed_timeouts < chunk.resubmits:
            # A timed-out original landing late: its dispatch was already
            # charged to the winning outcome as a resubmit.
            chunk.swallowed_timeouts += 1
        else:
            chunk.wasted_attempts += failure.attempts
            chunk.wasted_seconds += failure.elapsed_seconds
        return None
    total_attempts = failure.attempts + chunk.wasted_attempts
    if chunk.wasted_attempts == 0:
        failure.attempts = total_attempts
        return failure
    return TaskFailure(
        failure.partition,
        total_attempts,
        failure.cause,
        elapsed_seconds=failure.elapsed_seconds + chunk.wasted_seconds,
        history=failure.history,
    )


class ProcessBackend(Backend):
    """Run stage tasks on a :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the CPU count.
    chunk_size:
        Partitions per dispatched batch; ``None`` asks the cost model.
    task_timeout:
        Seconds a chunk may run before being re-dispatched; ``None``
        disables timeouts.  Timed-out dispatches count toward the retry
        limit.
    speculative_fraction:
        Launch budget for speculative copies, as a fraction of the
        stage's chunks (the "slowest K%"); ``0`` disables speculation.
    speculative_multiplier / speculative_floor_seconds:
        A chunk is a straggler when it has run longer than
        ``max(multiplier × median_finished_chunk, floor)`` and at least
        half the chunks have finished.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap, inherits imports) else the platform default.
    warmup:
        Prime the pool with no-ops at creation so fork/import cost is
        not billed to the first stage.
    """

    name = "process"
    requires_serializable_tasks = True

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        chunk_size: int | None = None,
        task_timeout: float | None = None,
        speculative_fraction: float = 0.25,
        speculative_multiplier: float = 2.0,
        speculative_floor_seconds: float = 0.5,
        poll_interval: float = 0.02,
        start_method: str | None = None,
        warmup: bool = True,
    ):
        workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if workers < 1:
            raise ValueError("a process backend needs at least one worker")
        if not 0.0 <= speculative_fraction <= 1.0:
            raise ValueError("speculative_fraction must be in [0, 1]")
        self.max_workers = workers
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.speculative_fraction = speculative_fraction
        self.speculative_multiplier = speculative_multiplier
        self.speculative_floor_seconds = speculative_floor_seconds
        self.poll_interval = poll_interval
        self.start_method = start_method
        self.warmup = warmup
        self._pool: ProcessPoolExecutor | None = None

    # -- pool lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing

            method = self.start_method
            if method is None and "fork" in multiprocessing.get_all_start_methods():
                method = "fork"
            mp_context = multiprocessing.get_context(method) if method else None
            # A dropped pool left as cyclic garbage dies here, not in a forked
            # worker: there its weakref callback would wait forever on a lock
            # the dropped pool's draining manager thread held at the fork.
            gc.collect()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, mp_context=mp_context, initializer=_warm_worker
            )
            if self.warmup:
                # Fork/spawn and import now, not inside the first timed stage.
                wait([self._pool.submit(_noop) for _ in range(self.max_workers)])
        return self._pool

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- stage execution ------------------------------------------------------------

    def run_stage(self, spec: StageSpec) -> StageResult:
        from repro.engine.costmodel import suggest_task_chunks

        started_wall = time.time()
        payload, buffers = _serialize_stage(spec)
        oob_bytes = sum(len(b) for b in buffers)
        if oob_bytes:
            from repro.obs.tracer import current_tracer

            tracer = current_tracer()
            if tracer is not None:
                tracer.counter("stage_oob_bytes", oob_bytes)
        token = next(_stage_tokens)

        partitions = spec.partition_ids()
        size = self.chunk_size or suggest_task_chunks(len(partitions), self.max_workers)
        try:
            pool = self._ensure_pool()
            now = time.monotonic()
            chunks = [
                _ChunkState(partitions[i : i + size], now)
                for i in range(0, len(partitions), size)
            ]
            pending: dict[Future, _ChunkState] = {}
            for chunk in chunks:
                self._dispatch(
                    pool, token, payload, buffers, spec, chunk, pending, speculative=False
                )
            result = self._gather(pool, token, payload, buffers, spec, chunks, pending)
            result.started_wall = started_wall
            result.ended_wall = time.time()
            return result
        except WorkerLostError:
            # The broken pool is useless; discard it so the next stage (or
            # the engine's recovery re-dispatch) starts a fresh one.
            self.stop()
            raise
        except BrokenProcessPool as exc:
            # Pool died outside the gather loop (warm-up or dispatch).
            self.stop()
            raise WorkerLostError([], partitions) from exc

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        token: int,
        payload: bytes,
        buffers: list[bytes],
        spec: StageSpec,
        chunk: _ChunkState,
        pending: dict[Future, _ChunkState],
        *,
        speculative: bool,
    ) -> None:
        future = pool.submit(
            _run_chunk,
            token,
            payload,
            buffers,
            chunk.partitions,
            spec.max_task_retries,
            spec.attempt_offset,
            spec.budget,
        )
        chunk.futures[future] = speculative
        chunk.last_submitted = time.monotonic()
        pending[future] = chunk

    def _gather(
        self,
        pool: ProcessPoolExecutor,
        token: int,
        payload: bytes,
        buffers: list[bytes],
        spec: StageSpec,
        chunks: list[_ChunkState],
        pending: dict[Future, _ChunkState],
    ) -> StageResult:
        result = StageResult()
        outcomes: dict[int, TaskOutcome] = {}
        finished_elapsed: list[float] = []
        speculative_budget = max(1, int(len(chunks) * self.speculative_fraction)) if (
            self.speculative_fraction > 0 and len(chunks) > 1
        ) else 0

        try:
            while any(not c.finished for c in chunks):
                if not pending:
                    raise EngineError("process backend lost track of in-flight chunks")
                done, _ = wait(set(pending), timeout=self.poll_interval, return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in done:
                    chunk = pending.pop(future)
                    was_speculative = chunk.futures.pop(future, False)
                    if chunk.finished:
                        continue  # the other copy already won; discard
                    failure = future.exception()
                    if failure is not None:
                        if isinstance(failure, BrokenProcessPool):
                            raise failure
                        if isinstance(failure, TaskFailure):
                            fatal = _note_copy_failure(chunk, failure, was_speculative)
                            if fatal is None:
                                continue  # a sibling copy may still win
                            chunk.finished = True
                            raise fatal
                        chunk.finished = True
                        raise EngineError(
                            f"process worker failed to return chunk {chunk.partitions}: "
                            f"{failure!r}"
                        ) from failure
                    chunk.finished = True
                    finished_elapsed.append(now - chunk.first_submitted)
                    if was_speculative:
                        result.speculative_wins += 1
                    for outcome in future.result():
                        outcome.speculative = was_speculative
                        # Fold timeout re-dispatches and discarded sibling
                        # copies into the task's attempt accounting so
                        # retry overhead stays visible — each charged once.
                        outcome.attempts += chunk.resubmits
                        outcome.failed_attempts += chunk.resubmits + chunk.wasted_attempts
                        outcome.failed_seconds += chunk.wasted_seconds
                        if self.task_timeout is not None:
                            outcome.failed_seconds += chunk.resubmits * self.task_timeout
                        outcomes[outcome.partition] = outcome

                self._handle_stragglers(
                    pool, token, payload, buffers, spec, chunks, pending,
                    finished_elapsed, result, speculative_budget,
                )
        except BrokenProcessPool as exc:
            # A worker died (SIGKILL/OOM/crash): salvage what landed and
            # tell the engine exactly which partitions still need work.
            salvaged = [outcomes[p] for p in sorted(outcomes)]
            lost = [
                p
                for chunk in chunks
                for p in chunk.partitions
                if p not in outcomes
            ]
            raise WorkerLostError(salvaged, lost) from exc

        result.outcomes = [outcomes[p] for p in sorted(outcomes)]
        return result

    def _handle_stragglers(
        self,
        pool: ProcessPoolExecutor,
        token: int,
        payload: bytes,
        buffers: list[bytes],
        spec: StageSpec,
        chunks: list[_ChunkState],
        pending: dict[Future, _ChunkState],
        finished_elapsed: list[float],
        result: StageResult,
        speculative_budget: int,
    ) -> None:
        now = time.monotonic()

        # Per-chunk timeout: re-dispatch, counting toward the retry budget.
        if self.task_timeout is not None:
            for chunk in chunks:
                if chunk.finished or now - chunk.last_submitted <= self.task_timeout:
                    continue
                if chunk.resubmits + 1 >= spec.retry_limit:
                    chunk.finished = True
                    partition = chunk.partitions[0]
                    raise TaskFailure(
                        partition,
                        chunk.resubmits + 1,
                        TaskTimeout(partition, self.task_timeout),
                        elapsed_seconds=(chunk.resubmits + 1) * self.task_timeout,
                    )
                chunk.resubmits += 1
                self._dispatch(
                    pool, token, payload, buffers, spec, chunk, pending, speculative=False
                )

        # Speculation: after a quorum finishes, clone the slowest stragglers.
        launched = result.speculative_launched
        if launched >= speculative_budget or 2 * len(finished_elapsed) < len(chunks):
            return
        median = statistics.median(finished_elapsed)
        threshold = max(
            self.speculative_multiplier * median, self.speculative_floor_seconds
        )
        stragglers = sorted(
            (
                c
                for c in chunks
                if not c.finished
                and not c.speculated
                and c.resubmits == 0
                and now - c.first_submitted > threshold
            ),
            key=lambda c: c.first_submitted,
        )
        for chunk in stragglers:
            if launched >= speculative_budget:
                break
            chunk.speculated = True
            self._dispatch(
                pool, token, payload, buffers, spec, chunk, pending, speculative=True
            )
            launched += 1
        result.speculative_launched = launched

    def __repr__(self) -> str:
        return (
            f"ProcessBackend(max_workers={self.max_workers}, "
            f"chunk_size={self.chunk_size}, task_timeout={self.task_timeout})"
        )
