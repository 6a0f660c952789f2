"""Thread-pool execution — shared memory, GIL-bound."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.exec.base import Backend, StageResult, StageSpec, run_task_attempts


def _run_in_thread(spec: StageSpec, partition: int):
    return run_task_attempts(
        spec.task,
        partition,
        spec.max_task_retries,
        spec.failure_injector,
        worker=threading.current_thread().name,
        policy=spec.policy,
        fault_plan=spec.fault_plan,
        stage_no=spec.stage_no,
        attempt_offset=spec.attempt_offset,
        budget=spec.budget,
    )


class ThreadBackend(Backend):
    """Run tasks on a shared :class:`ThreadPoolExecutor`.

    Tasks share the driver's memory, so nothing needs to be picklable and
    metrics callbacks are cheap — but CPU-bound Python tasks serialize on
    the GIL.  This backend pays off when tasks block on I/O or call into
    C extensions that release the GIL.

    The pool is created lazily on first use and reused across stages;
    ``stop()`` shuts it down (the next stage would recreate it).
    """

    name = "thread"

    def __init__(self, max_workers: int = 8):
        if max_workers < 1:
            raise ValueError("a thread backend needs at least one worker")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="engine-worker"
            )
        return self._pool

    def run_stage(self, spec: StageSpec) -> StageResult:
        pool = self._ensure_pool()
        started = time.time()
        futures = [
            pool.submit(_run_in_thread, spec, partition)
            for partition in spec.partition_ids()
        ]
        # Gather in partition order so a multi-partition failure surfaces
        # the lowest failing partition, matching sequential execution.
        outcomes = [future.result() for future in futures]
        return StageResult(outcomes, started_wall=started, ended_wall=time.time())

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"ThreadBackend(max_workers={self.max_workers})"
