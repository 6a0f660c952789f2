"""The engine context — ``SparkContext`` analog."""

from __future__ import annotations

import os
import pickle
import threading
from contextlib import contextmanager
from threading import Lock
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TypeVar

from dataclasses import replace as _spec_replace

from repro.engine.accumulators import deliver
from repro.engine.broadcast import Broadcast
from repro.engine.errors import EngineError, TaskFailure, WorkerLostError
from repro.engine.exec import Backend, SequentialBackend, StageSpec, resolve_backend
from repro.engine.faults import FaultPlan, RecoveryOptions, RetryPolicy, demotion_target
from repro.engine.metrics import JobMetrics, TaskMetrics
from repro.engine.sanitizer import StageSanitizer

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer

T = TypeVar("T")


class EngineContext:
    """Owns RDD creation, the execution backend, broadcasts, and metrics.

    Parameters
    ----------
    default_parallelism:
        Partition count used when a transformation does not specify one —
        the analog of ``spark.default.parallelism``.  Pool-based backends
        also size their worker pools from it.
    parallel:
        Back-compat alias: ``parallel=True`` selects the thread backend
        (the behavior this flag historically enabled).  Ignored when
        ``backend`` is given.
    max_task_retries:
        How many times a failing task is retried before the job aborts
        (``spark.task.maxFailures``).
    backend:
        Stage-execution strategy: a name (``"sequential"`` | ``"thread"``
        | ``"process"``), a :class:`~repro.engine.exec.Backend` instance,
        or ``None`` for the default.  With ``None`` the
        ``REPRO_DEFAULT_BACKEND`` environment variable is consulted first
        (how ``repro trace --backend`` steers scripts that build their own
        context), then ``parallel``.  Sequential execution keeps benchmark
        timings deterministic; the engine's counted-work metrics are
        identical on every backend.
    tracer:
        A :class:`~repro.obs.Tracer` receiving stage/task spans and engine
        counters.  ``None`` (the default) falls back to the globally
        installed tracer (:func:`repro.obs.current_tracer`), so profiling
        can be enabled around unmodified code; when neither is set the
        instrumentation is skipped entirely.
    backend_options:
        Extra constructor kwargs for a backend given by name (e.g.
        ``{"task_timeout": 30.0}`` for the process backend).
    strict:
        Enable the runtime sanitizer (:mod:`repro.engine.sanitizer`):
        every top-level stage's closure is pickle-round-tripped with the
        process backend's serializer and its captures are fingerprinted
        before/after execution, so unpicklable captures, task-side
        mutation of captured state, and broadcast mutation raise
        :class:`~repro.engine.errors.StrictModeViolation` on *any*
        backend.  Also installs the lock-order sanitizer
        (:mod:`repro.engine.lockwatch`) in record mode.  Costs one
        serialization pass per stage; meant for tests and debugging.
    fault_plan:
        A :class:`~repro.engine.faults.FaultPlan` (or dict / JSON string /
        path to one) injecting deterministic faults into every stage.
        ``None`` consults the ``REPRO_FAULT_PLAN`` environment variable
        (how ``repro chaos`` steers scripts that build their own context);
        unset means no injection.
    retry_policy:
        A :class:`~repro.engine.faults.RetryPolicy` governing the shared
        attempt loop on every backend — attempt caps, exponential backoff
        with deterministic jitter, retry deadlines, per-stage budgets.
        ``None`` builds one from ``max_task_retries``; an explicit policy
        overrides ``max_task_retries`` with its ``max_attempts``.
    recovery:
        :class:`~repro.engine.faults.RecoveryOptions` for the worker-loss
        recovery loop: how many lost-partition recomputation rounds a
        stage gets, and when repeated loss demotes the backend along the
        process→thread→sequential ladder.
    """

    def __init__(
        self,
        default_parallelism: int = 8,
        parallel: bool = False,
        max_task_retries: int = 3,
        backend: "str | Backend | None" = None,
        backend_options: dict | None = None,
        strict: bool = False,
        tracer: "Tracer | None" = None,
        fault_plan: "FaultPlan | dict | str | None" = None,
        retry_policy: RetryPolicy | None = None,
        recovery: RecoveryOptions | None = None,
    ):
        if default_parallelism < 1:
            raise ValueError("default_parallelism must be positive")
        if max_task_retries < 1:
            raise ValueError("max_task_retries must be positive")
        self.default_parallelism = default_parallelism
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=max_task_retries)
        )
        # Back-compat view of the attempt cap; the policy is authoritative.
        self.max_task_retries = self.retry_policy.max_attempts
        self.fault_plan = (
            FaultPlan.from_spec(fault_plan)
            if fault_plan is not None
            else FaultPlan.from_env()
        )
        self.recovery = recovery if recovery is not None else RecoveryOptions()
        self.metrics = JobMetrics()
        self._tracer_override = tracer
        if backend is None:
            backend = os.environ.get("REPRO_DEFAULT_BACKEND") or (
                "thread" if parallel else "sequential"
            )
        self._backend = resolve_backend(backend, default_parallelism, backend_options)
        self._inline = SequentialBackend()
        self.strict = strict
        self._sanitizer = StageSanitizer() if strict else None
        if strict:
            # Strict mode also turns on the runtime lock-order sanitizer
            # (record mode): cycles surface in watcher().violations and the
            # REPRO_LOCK_GRAPH_OUT dump rather than raising mid-stage.
            from repro.engine import lockwatch

            lockwatch.install()
        self._metrics_lock = Lock()
        self._in_task = threading.local()
        #: Cumulative worker losses, driving the demotion ladder.
        self._worker_losses_since_demotion = 0
        #: True on the pickled copy of this context living inside a
        #: process-pool worker: every stage there runs inline.
        self._worker_side = False
        #: Test hook: callable ``(partition, attempt) -> None`` invoked before
        #: each task attempt; raising simulates an executor fault.
        self.task_failure_injector: Callable[[int, int], None] | None = None

    # -- tracing ------------------------------------------------------------------

    @property
    def tracer(self) -> "Tracer | None":
        """The tracer receiving this context's spans, if any.

        The explicit constructor argument wins; otherwise the globally
        installed tracer is used.  Worker-side context copies never trace:
        their spans would die with the worker (task timing still reaches
        the driver's tracer through the shipped outcomes).
        """
        if self._worker_side:
            return None
        if self._tracer_override is not None:
            return self._tracer_override
        from repro.obs.tracer import current_tracer

        return current_tracer()

    # -- backend selection --------------------------------------------------------

    @property
    def backend(self) -> Backend:
        """The active stage-execution backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the active backend."""
        return self._backend.name

    @property
    def parallel(self) -> bool:
        """True when stages run on a worker pool (back-compat view)."""
        return self._backend.name != "sequential"

    @contextmanager
    def using_backend(
        self, backend: "str | Backend", **options: Any
    ) -> Iterator["EngineContext"]:
        """Temporarily execute stages on a different backend.

        Only *eager* work inside the block is affected — lazy RDDs
        evaluated after the block use the context's regular backend.  A
        backend created here from a name is stopped on exit; a passed-in
        instance is left running for its owner.
        """
        previous = self._backend
        replacement = resolve_backend(backend, self.default_parallelism, options or None)
        owned = replacement is not backend
        self._backend = replacement
        try:
            yield self
        finally:
            self._backend = previous
            if owned:
                replacement.stop()

    # -- RDD creation -----------------------------------------------------------

    def parallelize(self, data: Iterable[T], num_partitions: int | None = None):
        """Distribute a local collection into an RDD."""
        from repro.engine.rdd import RDD

        items = list(data)
        n = num_partitions or self.default_parallelism
        n = max(1, min(n, max(1, len(items)))) if items else max(1, n)
        return RDD._from_collection(self, items, n)

    def from_partitions(self, partitions: Sequence[list], copy: bool = True):
        """Build an RDD with an explicit pre-partitioned layout.

        Used by the on-disk reader, where the partition layout on disk *is*
        the layout in memory (the point of Section 4.1).  ``copy=False``
        adopts the caller's list objects as the partitions, saving a copy
        of lists the caller has just built (``RDD._pairwise_rounds``);
        such callers must not mutate the lists afterwards.
        """
        from repro.engine.rdd import RDD

        if copy:
            partitions = [list(p) for p in partitions]
        elif not all(isinstance(p, list) for p in partitions):
            partitions = [p if isinstance(p, list) else list(p) for p in partitions]
        return RDD._from_partitions(self, list(partitions))

    def empty_rdd(self):
        """A single empty partition."""
        from repro.engine.rdd import RDD

        return RDD._from_partitions(self, [[]])

    def union(self, rdds: Sequence):
        """Union a sequence of RDDs pairwise."""
        if not rdds:
            raise ValueError("cannot union zero RDDs")
        result = rdds[0]
        for rdd in rdds[1:]:
            result = result.union(rdd)
        return result

    # -- broadcast ----------------------------------------------------------------

    def broadcast(self, value: T, record_count: int | None = None) -> Broadcast[T]:
        """Share a read-only value with all tasks and meter its size.

        ``record_count`` is the number of logical records the value carries
        (e.g. structure cells); when omitted, ``len(value)`` is used if the
        value is sized, else 1.
        """
        if record_count is None:
            try:
                record_count = len(value)  # type: ignore[arg-type]
            except TypeError:
                record_count = 1
        with self._metrics_lock:
            self.metrics.broadcast_count += 1
            self.metrics.broadcast_records += record_count
        tracer = self.tracer
        if tracer is not None:
            tracer.counter("broadcasts", 1)
            tracer.counter("broadcast_records", record_count)
            # Payload size is metered only under tracing: serializing the
            # value is exactly the cost the untraced hot path avoids.
            # Protocol 5 with out-of-band buffers splits the measurement:
            # ``broadcast_bytes`` stays the total (comparable with older
            # traces), ``broadcast_oob_bytes`` is the share that large
            # ndarray payloads (BoxTables, packed trees, grids) keep out
            # of the in-band pickle stream.
            try:
                oob: list[int] = []
                payload = pickle.dumps(
                    value,
                    protocol=5,
                    buffer_callback=lambda buf: oob.append(buf.raw().nbytes),
                )
                oob_bytes = sum(oob)
                tracer.counter("broadcast_bytes", len(payload) + oob_bytes)
                if oob_bytes:
                    tracer.counter("broadcast_oob_bytes", oob_bytes)
            except Exception:  # unpicklable broadcasts still broadcast fine
                pass
        broadcast = Broadcast(value)
        if self._sanitizer is not None:
            self._sanitizer.register_broadcast(broadcast)
        return broadcast

    # -- execution ------------------------------------------------------------------

    def run_stage(
        self,
        num_partitions: int,
        task: Callable[[int], list],
    ) -> list[list]:
        """Execute ``task`` for every partition index and gather outputs.

        Execution is delegated to the configured backend; each task is
        retried on failure up to ``max_task_retries`` times, and per-task
        metrics — records out, elapsed, attempts, retry overhead, worker,
        speculative wins — are merged into :attr:`metrics`, and each winning
        attempt's sink calls are applied once, in partition order.
        """
        with self._metrics_lock:
            self.metrics.stages += 1
            stage_no = self.metrics.stages

        def tracked(partition: int) -> list:
            # Mark "inside a task" so nested stages (a shuffle's map side
            # evaluated from within a pool worker) run inline instead of
            # being resubmitted to a pool whose workers are all blocked on
            # the shuffle lock — a deadlock.
            previous = getattr(self._in_task, "active", False)
            self._in_task.active = True
            try:
                return task(partition)
            finally:
                self._in_task.active = previous

        spec = StageSpec(
            num_partitions=num_partitions,
            task=tracked,
            max_task_retries=self.max_task_retries,
            failure_injector=self.task_failure_injector,
            policy=self.retry_policy,
            fault_plan=self.fault_plan,
            stage_no=stage_no,
            budget=self.retry_policy.new_stage_budget(),
        )
        nested = getattr(self._in_task, "active", False) or self._worker_side
        backend = self._inline if nested or num_partitions == 1 else self._backend
        # Trace only driver-side top-level stages: nested stages run inline
        # inside an already-spanned task, and which side of a process
        # boundary they land on is backend-dependent.  The tree still
        # differs where a backend runs a lineage twice: on the process
        # backend a staged partitioner's input runs for its sample and
        # again for its shuffle (``STPartitioner.partition``).
        tracer = self.tracer if not nested else None
        stage_span = None
        if tracer is not None:
            stage_span = tracer.begin(
                f"stage-{stage_no}",
                "stage",
                backend=backend.name,
                partitions=num_partitions,
            )
            if not backend.requires_serializable_tasks:
                # Pool threads begin with an empty span stack.
                spec = _spec_replace(spec, task=tracer.under(stage_span, spec.task))
        # Strict mode inspects only driver-side top-level stages — nested
        # stages run inside a task whose closure was already vetted.
        snapshot = None
        if self._sanitizer is not None and not nested:
            snapshot = self._sanitizer.check_stage(task)
        try:
            stage = self._run_stage_with_recovery(
                spec, backend, nested, stage_no, tracer, stage_span
            )
        except TaskFailure as failure:
            with self._metrics_lock:
                self.metrics.record_failed_task(
                    TaskMetrics(
                        partition=failure.partition,
                        records_out=0,
                        elapsed_seconds=0.0,
                        attempts=failure.attempts,
                        failed_attempts=failure.attempts,
                        failed_seconds=failure.elapsed_seconds,
                    )
                )
            if stage_span is not None:
                tracer.finish(stage_span, failed=True)
            raise
        except EngineError:
            if stage_span is not None:
                tracer.finish(stage_span, failed=True)
            raise
        outcomes = sorted(stage.outcomes, key=lambda o: o.partition)
        with self._metrics_lock:
            self.metrics.speculative_launched += stage.speculative_launched
            self.metrics.speculative_wins += stage.speculative_wins
            for outcome in outcomes:
                self.metrics.record_task(
                    TaskMetrics(
                        partition=outcome.partition,
                        records_out=len(outcome.result),
                        elapsed_seconds=outcome.elapsed_seconds,
                        attempts=outcome.attempts,
                        failed_attempts=outcome.failed_attempts,
                        failed_seconds=outcome.failed_seconds,
                        worker=outcome.worker,
                        speculative=outcome.speculative,
                        started_wall=outcome.started_wall,
                        injected_faults=outcome.injected_faults,
                        injected_delay_seconds=outcome.injected_delay_seconds,
                    )
                )
        for outcome in outcomes:
            deliver(outcome.outbox)
        if stage_span is not None:
            self._trace_stage(tracer, stage_span, stage, outcomes)
        if snapshot is not None:
            self._sanitizer.verify_stage(task, snapshot)
        return [outcome.result for outcome in outcomes]

    def _run_stage_with_recovery(
        self, spec: StageSpec, backend: Backend, nested: bool, stage_no: int, tracer, stage_span
    ):
        """Run one stage, recomputing lost partitions after worker death.

        The process backend surfaces a dead worker as
        :class:`~repro.engine.errors.WorkerLostError` carrying every task
        outcome that already landed.  Recovery keeps those and re-runs
        *only* the missing partitions — lineage recomputation, not a
        whole-stage re-run — with ``attempt_offset`` bumped so per-task
        retry caps (and first-attempt-only fault rules) keep counting
        across the boundary.  Repeated loss demotes the backend along the
        process→thread→sequential ladder (:mod:`repro.engine.faults.recovery`).
        """
        import time as _time

        salvaged: dict = {}  # partition -> salvaged TaskOutcome
        recoveries = 0
        speculative_launched = 0
        speculative_wins = 0
        recovery_started: float | None = None
        while True:
            try:
                stage = backend.run_stage(spec)
            except WorkerLostError as loss:
                for outcome in loss.outcomes:
                    salvaged[outcome.partition] = outcome
                remaining = [
                    p for p in spec.partition_ids() if p not in salvaged
                ]
                recoveries += 1
                with self._metrics_lock:
                    self.metrics.worker_losses += 1
                    self.metrics.partitions_recomputed += len(remaining)
                self._worker_losses_since_demotion += 1
                now = _time.time()
                if tracer is not None:
                    tracer.counter("worker_losses", 1)
                    tracer.counter("partitions_recomputed", len(remaining))
                    tracer.add_span(
                        f"worker-loss-{recoveries}",
                        "fault",
                        now,
                        now,
                        parent=stage_span,
                        salvaged=len(salvaged),
                        lost_partitions=remaining,
                    )
                if recoveries > self.recovery.max_stage_recoveries:
                    raise EngineError(
                        f"stage {stage_no} lost workers {recoveries} times "
                        f"(recovery limit {self.recovery.max_stage_recoveries}); "
                        f"giving up with partitions {remaining} incomplete"
                    ) from loss
                backend = self._maybe_demote(backend, nested, tracer, stage_span)
                recovery_started = now
                spec = _spec_replace(
                    spec,
                    partitions=remaining,
                    attempt_offset=spec.attempt_offset + 1,
                )
                continue
            speculative_launched += stage.speculative_launched
            speculative_wins += stage.speculative_wins
            if recovery_started is not None and tracer is not None:
                tracer.add_span(
                    f"recovery-{recoveries}",
                    "recovery",
                    recovery_started,
                    _time.time(),
                    parent=stage_span,
                    partitions=len(spec.partition_ids()),
                    backend=backend.name,
                )
            break
        if salvaged:
            for outcome in stage.outcomes:
                salvaged[outcome.partition] = outcome
            stage.outcomes = [salvaged[p] for p in sorted(salvaged)]
        stage.speculative_launched = speculative_launched
        stage.speculative_wins = speculative_wins
        return stage

    def _maybe_demote(self, backend: Backend, nested: bool, tracer, stage_span) -> Backend:
        """Demote the context's backend one ladder rung if loss warrants it.

        Returns the backend the recovery re-dispatch should use: the
        demoted one when demotion happened, the (freshly re-pooled)
        current backend otherwise.
        """
        if (
            nested
            or not self.recovery.demote
            or backend is not self._backend
            or self._worker_losses_since_demotion < self.recovery.demote_after_worker_losses
        ):
            return self._backend if backend is self._backend else backend
        target = demotion_target(self._backend.name)
        if target is None:
            return self._backend
        import time as _time

        previous = self._backend
        self._backend = resolve_backend(target, self.default_parallelism, None)
        previous.stop()
        self._worker_losses_since_demotion = 0
        with self._metrics_lock:
            self.metrics.backend_demotions += 1
        if tracer is not None:
            tracer.counter("backend_demotions", 1)
            now = _time.time()
            tracer.add_span(
                "backend-demotion",
                "recovery",
                now,
                now,
                parent=stage_span,
                from_backend=previous.name,
                to_backend=target,
            )
        return self._backend

    def _trace_stage(self, tracer, stage_span, stage, outcomes) -> None:
        """Replay a finished stage's task outcomes as spans + counters.

        Task spans are reconstructed driver-side from the wall-clock
        stamps every backend's outcomes carry — this is the whole
        tracer↔backend contract, and why it works unchanged for the
        process backend, whose workers never see the tracer.
        """
        records = 0
        injected = 0
        injected_delay = 0.0
        for outcome in outcomes:
            records += len(outcome.result)
            injected += outcome.injected_faults
            injected_delay += outcome.injected_delay_seconds
            start = outcome.started_wall or stage_span.start
            tracer.add_span(
                f"task-{outcome.partition}",
                "task",
                start,
                start + outcome.elapsed_seconds,
                parent=stage_span,
                track=outcome.worker,
                partition=outcome.partition,
                records_out=len(outcome.result),
                attempts=outcome.attempts,
                speculative=outcome.speculative,
                # Injected-fault args appear only under an active plan, so
                # fault-free span trees stay identical across backends.
                **(
                    {"injected_faults": outcome.injected_faults}
                    if outcome.injected_faults
                    else {}
                ),
            )
        tracer.counter("stages", 1)
        tracer.counter("tasks", len(outcomes))
        tracer.counter("records_out", records)
        if stage.oob_bytes:
            tracer.counter("stage_oob_bytes", stage.oob_bytes)
        if injected:
            tracer.counter("faults_injected", injected)
        if injected_delay:
            tracer.counter("fault_delay_seconds", round(injected_delay, 6))
        exec_window = (
            max(0.0, stage.ended_wall - stage.started_wall)
            if stage.ended_wall
            else None
        )
        tracer.finish(
            stage_span,
            speculative_launched=stage.speculative_launched,
            speculative_wins=stage.speculative_wins,
            **({"exec_window_seconds": round(exec_window, 6)} if exec_window is not None else {}),
        )

    def record_shuffle(self, records: int) -> None:
        """Meter one shuffle's record volume."""
        with self._metrics_lock:
            self.metrics.shuffle_records += records
            self.metrics.shuffle_count += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.counter("shuffles", 1)
            tracer.counter("shuffle_records", records)

    # -- pickling (process backend ships the context inside task closures) ----------

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Locks, thread-locals, and worker pools don't pickle — and the
        # worker-side copy must never dispatch to a pool anyway.  Metrics
        # history stays driver-side; workers report through task outcomes.
        state["_metrics_lock"] = None
        state["_in_task"] = None
        state["_backend"] = None
        state["metrics"] = JobMetrics()
        state["_worker_side"] = True
        # The tracer holds locks and thread-locals and is driver-only by
        # design: worker-side spans could never reach the driver's tree.
        state["_tracer_override"] = None
        # The sanitizer holds live broadcast references and only ever runs
        # driver-side; the worker copy gets none.
        state["_sanitizer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._metrics_lock = Lock()
        self._in_task = threading.local()
        self._backend = SequentialBackend()

    # -- back-compat -----------------------------------------------------------------

    @property
    def _pool(self):
        """Legacy peek at the thread backend's pool (None otherwise)."""
        return getattr(self._backend, "_pool", None)

    # -- lifecycle ----------------------------------------------------------------------

    def stop(self) -> None:
        """Shut the backend's worker pool down."""
        self._backend.stop()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"EngineContext(parallelism={self.default_parallelism}, "
            f"backend={self._backend.name})"
        )
