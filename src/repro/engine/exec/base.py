"""The execution-backend contract.

A :class:`Backend` runs the tasks of one stage — one task per partition —
and returns per-task :class:`TaskOutcome` records.  The engine context
owns everything around the backend: stage counting, nested-stage inlining,
metrics merging, failure surfacing, and lost-partition recovery.  Backends
own *how* the tasks run: inline, on a thread pool, or on a process pool
with speculative retry.

The retry loop itself (:func:`run_task_attempts`) is shared: every backend
— and every process-pool worker — executes task attempts the same way,
under the same :class:`~repro.engine.faults.RetryPolicy`, so retry
accounting and fault injection are identical no matter where a task lands.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.engine.accumulators import attempt_outbox
from repro.engine.errors import InjectedFault, TaskFailure

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.faults.plan import FaultPlan
    from repro.engine.faults.policy import RetryBudget, RetryPolicy


@dataclass
class StageSpec:
    """Everything a backend needs to execute one stage.

    ``task`` maps a partition index to that partition's output list;
    ``failure_injector`` is the engine's test hook, invoked before each
    attempt (raising simulates an executor fault).  ``policy`` supersedes
    the bare ``max_task_retries`` count (kept for compatibility and used
    when no policy is given); ``fault_plan``/``stage_no`` wire the
    deterministic fault injector into every attempt.

    ``partitions`` narrows the stage to an explicit subset of partition
    indices — how the engine recomputes *only* the partitions lost to a
    dead worker — and ``attempt_offset`` carries the attempts those
    partitions already consumed, so per-task retry caps and first-attempt
    fault rules keep counting across the recovery boundary.
    """

    num_partitions: int
    task: Callable[[int], list]
    max_task_retries: int = 3
    failure_injector: Callable[[int, int], None] | None = None
    policy: "RetryPolicy | None" = None
    fault_plan: "FaultPlan | None" = None
    stage_no: int = 0
    partitions: list[int] | None = None
    attempt_offset: int = 0
    budget: "RetryBudget | None" = None

    def partition_ids(self) -> list[int]:
        """The partition indices this (possibly narrowed) stage runs."""
        if self.partitions is not None:
            return list(self.partitions)
        return list(range(self.num_partitions))

    @property
    def retry_limit(self) -> int:
        """Per-task attempt cap: the policy's, else ``max_task_retries``."""
        return self.policy.max_attempts if self.policy is not None else self.max_task_retries


@dataclass
class TaskOutcome:
    """One finished task: its result plus execution accounting.

    ``attempts`` is the 1-based attempt that succeeded; ``failed_attempts``
    and ``failed_seconds`` meter the retry overhead that preceded it;
    ``worker`` identifies the executor (thread name, process pid, or
    ``"driver"``); ``speculative`` marks results produced by a speculative
    re-execution that beat the original copy.  ``injected_faults`` and
    ``injected_delay_seconds`` separate fault-plan noise from organic
    failures.  ``started_wall`` is the epoch time (``time.time()``) at
    which the winning attempt began — epoch rather than monotonic because
    process-backend outcomes are stamped in another process, and wall
    clock is the only timebase the driver's tracer shares with workers.
    ``outbox`` holds the sink calls the winning attempt posted
    (:mod:`repro.engine.accumulators`), for the driver to apply once.
    """

    partition: int
    result: list
    elapsed_seconds: float
    attempts: int = 1
    failed_attempts: int = 0
    failed_seconds: float = 0.0
    worker: str = "driver"
    speculative: bool = False
    started_wall: float = 0.0
    injected_faults: int = 0
    injected_delay_seconds: float = 0.0
    outbox: list = field(default_factory=list)


@dataclass
class StageResult:
    """A backend's report for one stage.

    ``started_wall``/``ended_wall`` bracket the backend's own execution
    window (dispatch through last gather) in epoch seconds; the engine's
    tracer subtracts this from its stage span to expose scheduling and
    serialization overhead.  0.0 means the backend did not stamp them.
    """

    outcomes: list[TaskOutcome] = field(default_factory=list)
    speculative_launched: int = 0
    speculative_wins: int = 0
    started_wall: float = 0.0
    ended_wall: float = 0.0


def run_task_attempts(
    task: Callable[[int], list],
    partition: int,
    max_task_retries: int,
    failure_injector: Callable[[int, int], None] | None = None,
    worker: str = "driver",
    *,
    policy: "RetryPolicy | None" = None,
    fault_plan: "FaultPlan | None" = None,
    stage_no: int = 0,
    attempt_offset: int = 0,
    budget: "RetryBudget | None" = None,
    process_worker: bool = False,
) -> TaskOutcome:
    """Run one task with the engine's retry semantics.

    Failed attempts are timed, counted, and logged (the attempt history
    rides on the eventual :class:`TaskFailure`), backoff between retries
    follows ``policy``, and injected faults from ``fault_plan`` are
    metered separately.  Each attempt posts its sink calls to an outbox of
    its own; only the winner's rides the outcome.  ``attempt_offset``
    pre-charges attempts consumed before this call (a lost worker took
    them), so caps and budgets keep counting across a recovery re-dispatch.
    """
    limit = policy.max_attempts if policy is not None else max_task_retries
    last_error: BaseException | None = None
    failed_attempts = attempt_offset
    failed_seconds = 0.0
    injected_faults = 0
    injected_delay = 0.0
    history: list[tuple[int, str]] = []
    deadline = policy.retry_deadline_seconds if policy is not None else None
    loop_start = time.perf_counter()
    if attempt_offset >= limit:
        raise TaskFailure(partition, attempt_offset, last_error, history=tuple(history))
    for attempt in range(attempt_offset + 1, limit + 1):
        retries_here = attempt - attempt_offset - 1
        if policy is not None and retries_here > 0:
            pause = policy.delay_before_retry(retries_here, partition)
            if pause > 0:
                time.sleep(pause)
        start = time.perf_counter()
        start_wall = time.time()
        try:
            if failure_injector is not None:
                failure_injector(partition, attempt)
            if fault_plan is not None:
                count, delayed = fault_plan.before_attempt(
                    stage_no, partition, attempt, process_worker=process_worker
                )
                injected_faults += count
                injected_delay += delayed
            with attempt_outbox() as outbox:
                result = task(partition)
        except Exception as exc:  # noqa: BLE001 - retry any task error
            failed_attempts += 1
            failed_seconds += time.perf_counter() - start
            last_error = exc
            if isinstance(exc, InjectedFault):
                injected_faults += 1
            history.append((attempt, repr(exc)))
            if budget is not None and not budget.consume():
                from repro.engine.errors import RetryBudgetExhausted

                raise TaskFailure(
                    partition,
                    attempt,
                    RetryBudgetExhausted(partition, budget.limit),
                    elapsed_seconds=failed_seconds,
                    history=tuple(history),
                ) from exc
            if deadline is not None and time.perf_counter() - loop_start >= deadline:
                break
            continue
        return TaskOutcome(
            partition=partition,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
            attempts=attempt,
            failed_attempts=failed_attempts,
            failed_seconds=failed_seconds,
            worker=worker,
            started_wall=start_wall,
            injected_faults=injected_faults,
            injected_delay_seconds=injected_delay,
            outbox=outbox,
        )
    raise TaskFailure(
        partition,
        failed_attempts,
        last_error,
        elapsed_seconds=failed_seconds,
        history=tuple(history),
    )


class Backend(ABC):
    """Strategy for executing the tasks of a stage."""

    #: Registry / display name ("sequential", "thread", "process").
    name: str = "abstract"

    #: True when tasks cross a process boundary: the stage's task closure
    #: (and everything it references — the RDD lineage, the context, the
    #: failure injector) must be picklable, and the engine materializes
    #: shuffle dependencies driver-side before dispatch so workers never
    #: recompute a map stage.
    requires_serializable_tasks: bool = False

    @abstractmethod
    def run_stage(self, spec: StageSpec) -> StageResult:
        """Execute every task of ``spec`` and return their outcomes.

        Outcomes may be returned in any order; the context sorts them by
        partition before merging metrics.  A permanently failing task
        raises :class:`TaskFailure`; a pool death with work outstanding
        raises :class:`~repro.engine.errors.WorkerLostError` carrying the
        salvaged outcomes (process backend only).
        """

    def stop(self) -> None:
        """Release pools/processes. Idempotent; the backend may be reused."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
