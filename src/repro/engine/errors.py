"""Engine exception hierarchy."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""


class TaskFailure(EngineError):
    """A task raised; carries the partition index for diagnostics.

    The executor retries a failed task up to ``EngineContext.max_task_retries``
    times (Spark's ``spark.task.maxFailures`` analog) before surfacing this.
    ``elapsed_seconds`` is the wall-clock wasted across the failed attempts,
    so retry overhead stays visible in :class:`~repro.engine.metrics.JobMetrics`
    even when a stage ultimately aborts.  ``history`` is the per-attempt
    error log — ``(attempt_number, error_repr)`` pairs — so a stage abort
    shows *every* error the retries saw, not just the last one.
    """

    def __init__(
        self,
        partition: int,
        attempts: int,
        cause: BaseException | None,
        elapsed_seconds: float = 0.0,
        history: tuple[tuple[int, str], ...] = (),
    ):
        message = (
            f"task for partition {partition} failed after {attempts} attempt(s): {cause!r}"
        )
        if history:
            trail = "; ".join(f"#{n}: {err}" for n, err in history)
            message += f" [attempt history: {trail}]"
        super().__init__(message)
        self.partition = partition
        self.attempts = attempts
        self.cause = cause
        self.elapsed_seconds = elapsed_seconds
        self.history = tuple(history)

    def __reduce__(self):
        # Process-pool workers ship this exception back through pickle; the
        # default exception reduction would replay __init__ with the message
        # string only, losing the structured fields.
        return (
            TaskFailure,
            (
                self.partition,
                self.attempts,
                self.cause,
                self.elapsed_seconds,
                self.history,
            ),
        )


class TaskSerializationError(EngineError):
    """A stage could not be shipped to a process-pool worker.

    Raised by the process backend when pickling the stage's task closure
    (the RDD lineage, the context, or the failure injector) fails.  The
    fix is to keep everything the stage references picklable — module-level
    functions instead of objects holding locks/files/sockets; with
    ``cloudpickle`` installed, lambdas and local closures are fine.
    """


class StrictModeViolation(EngineError):
    """A strict-mode sanitizer check failed (``EngineContext(strict=True)``).

    Raised driver-side, *before or after* a stage runs — never from a
    worker — when a stage closure would not survive the process backend:
    an unpicklable capture, a failed pickle round-trip, task-side mutation
    of captured state, a mutated broadcast value, or a partitioner
    breaking the assign contract.  The message names the offending
    function and capture; ``rule`` names the check that failed.
    """

    def __init__(self, message: str, rule: str | None = None):
        if rule is not None:
            message = f"[{rule}] {message}"
        super().__init__(message)
        self.rule = rule


class LockOrderViolation(EngineError):
    """The runtime lock-order sanitizer detected a deadlock hazard.

    Raised by :mod:`repro.engine.lockwatch` in two cases: a thread
    blocking-reacquires a non-reentrant lock it already holds (certain
    self-deadlock — always raised), or an acquisition closes a cycle in
    the global lock-order graph while the watcher runs with
    ``raise_on_cycle=True`` (in the default record mode cycles are only
    reported).  ``cycle`` is the ordered tuple of lock creation-site
    labels forming the loop.
    """

    def __init__(self, message: str, cycle: tuple[str, ...] = ()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class TaskTimeout(EngineError):
    """A task exceeded the process backend's per-task timeout.

    Used as the ``cause`` of the :class:`TaskFailure` raised once every
    re-execution of a timed-out task has also exceeded the budget.
    """

    def __init__(self, partition: int, timeout_seconds: float):
        super().__init__(
            f"task for partition {partition} exceeded {timeout_seconds:.3f}s timeout"
        )
        self.partition = partition
        self.timeout_seconds = timeout_seconds

    def __reduce__(self):
        return (TaskTimeout, (self.partition, self.timeout_seconds))


class InjectedFault(EngineError):
    """A fault raised on purpose by an active :class:`~repro.engine.faults.FaultPlan`.

    Retryable like any task error; the shared attempt loop additionally
    counts it in ``TaskOutcome.injected_faults`` so chaos runs can separate
    injected noise from organic failures in metrics and traces.
    """

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site

    def __reduce__(self):
        return (type(self), (self.args[0], self.site))


class InjectedWorkerLoss(InjectedFault):
    """A simulated worker death on an in-process backend.

    On the process backend a ``worker_kill`` fault SIGKILLs the real worker
    process; the sequential and thread backends have no process to kill, so
    the plan raises this instead — same retry path, same accounting.
    """


class RetryBudgetExhausted(EngineError):
    """A stage burned through its shared retry budget (``RetryPolicy.stage_attempt_budget``).

    Used as the ``cause`` of the surfacing :class:`TaskFailure`: the task
    that hit the empty budget aborts even though its own per-task attempt
    allowance was not exhausted.
    """

    def __init__(self, partition: int, budget: int):
        super().__init__(
            f"stage retry budget exhausted ({budget} failed attempt(s) across "
            f"the stage); partition {partition} aborted"
        )
        self.partition = partition
        self.budget = budget

    def __reduce__(self):
        return (RetryBudgetExhausted, (self.partition, self.budget))


class CorruptPartitionError(EngineError):
    """An on-disk partition block could not be deserialized.

    Raised by the stio reader when a block file's pickle stream is
    truncated or mangled.  Retryable (a re-read may see clean bytes —
    injected corruption is transient by design); under
    ``on_corrupt="quarantine"`` the reader swallows it, returns an empty
    partition, and counts the file in ``LoadStats.partitions_quarantined``.
    """

    def __init__(self, filename: str, detail: str = ""):
        message = f"corrupt partition block {filename!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.filename = filename
        self.detail = detail

    def __reduce__(self):
        return (CorruptPartitionError, (self.filename, self.detail))


class WorkerLostError(EngineError):
    """The process pool died mid-stage, with work still outstanding.

    Raised driver-side by the process backend (never pickled) so the
    engine's recovery loop can salvage the outcomes that already landed
    and recompute *only* the lost partitions from lineage, instead of
    aborting or re-running the whole stage.  ``outcomes`` are the salvaged
    :class:`~repro.engine.exec.TaskOutcome` records; ``lost_partitions``
    are the partition indices still owed.
    """

    def __init__(self, outcomes: list, lost_partitions: list[int]):
        super().__init__(
            f"worker process lost mid-stage; {len(outcomes)} task(s) salvaged, "
            f"partitions {lost_partitions} need recomputation"
        )
        self.outcomes = outcomes
        self.lost_partitions = list(lost_partitions)
