"""The execution-backend subsystem: sequential / thread / process.

The contract under test: every backend produces byte-identical results
and identical counted-work metrics for the same pipeline, honors the
retry semantics under injected faults, and the process backend adds
straggler re-execution, per-task timeouts, and per-worker accounting on
top without changing any of that.

Everything shipped to process workers here is module-level, so the suite
also passes without cloudpickle installed.

Byte-identity is asserted per element: pickling a whole collected list is
sensitive to *cross*-element object sharing, which in-driver evaluation
preserves but any process round-trip (Spark's included) breaks; per-element
bytes are the semantically meaningful comparison.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core import Selector
from repro.datasets import generate_nyc_events
from repro.engine import (
    BACKENDS,
    EngineContext,
    ProcessBackend,
    SequentialBackend,
    TaskFailure,
    TaskSerializationError,
    TaskTimeout,
    ThreadBackend,
    resolve_backend,
)
from repro.engine.costmodel import suggest_task_chunks
from repro.geometry import Envelope
from repro.temporal import Duration

ALL_BACKENDS = ["sequential", "thread", "process"]

#: Keep process pools tiny: the suite must stay fast on a 1-core box.
WORKERS = 2


def make_ctx(backend: str, **backend_options) -> EngineContext:
    options = dict(backend_options)
    if backend == "process":
        options.setdefault("warmup", False)
    return EngineContext(
        default_parallelism=WORKERS,
        backend=backend,
        backend_options=options or None,
    )


# -- module-level pipeline pieces (picklable without cloudpickle) ---------------


def double(x: int) -> int:
    return 2 * x


def is_even(x: int) -> bool:
    return x % 2 == 0


def mod_key(x: int) -> tuple[int, int]:
    return (x % 7, x)


def add(a: int, b: int) -> int:
    return a + b


def element_bytes(result: list) -> list[bytes]:
    return [pickle.dumps(x) for x in result]


def run_pipeline(ctx: EngineContext):
    """map → filter → key → reduce_by_key: narrow chains plus one shuffle."""
    return (
        ctx.parallelize(range(400), 8)
        .map(double)
        .filter(is_even)
        .map(mod_key)
        .reduce_by_key(add)
        .collect()
    )


# -- module-level failure injectors (pure in (partition, attempt)) --------------


def fail_p1_first_attempt(partition: int, attempt: int) -> None:
    if partition == 1 and attempt == 1:
        raise RuntimeError("transient fault")


def fail_p0_slowly_once(partition: int, attempt: int) -> None:
    if partition == 0 and attempt == 1:
        time.sleep(0.005)
        raise RuntimeError("slow transient fault")


def fail_p0_always(partition: int, attempt: int) -> None:
    if partition == 0:
        raise RuntimeError("dead executor")


# -- marker-file tasks for straggler/timeout behavior ---------------------------
# First execution of the marked partition writes the marker then sleeps; any
# re-execution sees the marker and returns immediately.  Both copies return
# the same value, so whichever wins, the result is identical.  The marker
# path is bound with functools.partial, which pickles by value, so the tasks
# work under any multiprocessing start method.


def slow_once_task(marker: str, partition: int) -> list:
    if partition == 0:
        import os

        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("running")
            time.sleep(2.0)
    return [partition]


def always_slow_task(partition: int) -> list:
    time.sleep(1.5)
    return [partition]


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_results_and_metrics_match_sequential(self, backend):
        with make_ctx("sequential") as ref_ctx:
            expected = run_pipeline(ref_ctx)
            expected_snapshot = ref_ctx.metrics.snapshot()
        with make_ctx(backend) as ctx:
            result = run_pipeline(ctx)
            snapshot = ctx.metrics.snapshot()
        assert element_bytes(result) == element_bytes(expected)
        assert snapshot == expected_snapshot

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_selection_pipeline_matches(self, backend):
        """An ST selection (R-tree filter + repartition) per backend."""
        events = generate_nyc_events(300, seed=5, days=10)
        selector = Selector(
            Envelope(-74.05, 40.6, -73.9, 40.85),
            Duration(events[0].temporal_extent.start, events[-1].temporal_extent.end),
            num_partitions=4,
        )
        with make_ctx("sequential") as ref_ctx:
            expected = selector.select(ref_ctx, events).collect()
        with make_ctx(backend) as ctx:
            result = selector.select(ctx, events).collect()
        assert element_bytes(result) == element_bytes(expected)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_per_worker_accounting(self, backend):
        with make_ctx(backend) as ctx:
            ctx.parallelize(range(100), 4).map(double).collect()
            workers = ctx.metrics.worker_summary()
            assert sum(row["tasks"] for row in workers.values()) == 4
            if backend == "sequential":
                assert set(workers) == {"driver"}
            elif backend == "process":
                assert all(w.startswith("pid-") for w in workers)
            histogram = ctx.metrics.worker_histogram(bins=4)
            assert set(histogram["workers"]) == set(workers)
            assert all(sum(c) > 0 for c in histogram["workers"].values())


class TestRetrySemantics:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_transient_fault_retried(self, backend):
        with make_ctx(backend) as ctx:
            ctx.task_failure_injector = fail_p1_first_attempt
            assert ctx.parallelize(range(40), 4).collect() == list(range(40))
            by_partition = {t.partition: t for t in ctx.metrics.tasks}
            assert by_partition[1].attempts == 2
            assert by_partition[1].failed_attempts == 1
            assert by_partition[2].attempts == 1

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_retry_overhead_metered(self, backend):
        with make_ctx(backend) as ctx:
            ctx.task_failure_injector = fail_p0_slowly_once
            ctx.parallelize(range(40), 4).collect()
            assert ctx.metrics.failed_attempts == 1
            assert ctx.metrics.retry_seconds > 0.0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_permanent_fault_raises_and_is_recorded(self, backend):
        with make_ctx(backend) as ctx:
            ctx.task_failure_injector = fail_p0_always
            with pytest.raises(TaskFailure) as exc_info:
                ctx.parallelize(range(40), 4).collect()
            assert exc_info.value.partition == 0
            assert exc_info.value.attempts == ctx.max_task_retries
            assert len(ctx.metrics.failed_tasks) == 1
            assert ctx.metrics.failed_tasks[0].failed_attempts == ctx.max_task_retries


class TestProcessBackendSpecifics:
    def test_speculative_straggler_reexecution(self, tmp_path):
        from functools import partial

        task = partial(slow_once_task, str(tmp_path / "straggler.marker"))
        backend = ProcessBackend(
            max_workers=2,
            chunk_size=1,
            speculative_fraction=0.5,
            speculative_multiplier=2.0,
            speculative_floor_seconds=0.05,
            poll_interval=0.01,
            warmup=True,
        )
        with EngineContext(default_parallelism=2, backend=backend) as ctx:
            start = time.perf_counter()
            result = ctx.run_stage(4, task)
            elapsed = time.perf_counter() - start
            assert result == [[0], [1], [2], [3]]
            assert ctx.metrics.speculative_launched >= 1
            assert ctx.metrics.speculative_wins >= 1
            assert any(t.speculative for t in ctx.metrics.tasks)
            # The speculative copy skipped the 2s sleep entirely.
            assert elapsed < 1.9

    def test_timeout_rerun_recovers(self, tmp_path):
        from functools import partial

        task = partial(slow_once_task, str(tmp_path / "timeout.marker"))
        backend = ProcessBackend(
            max_workers=2,
            chunk_size=1,
            task_timeout=0.25,
            speculative_fraction=0.0,
            poll_interval=0.01,
            warmup=True,
        )
        with EngineContext(default_parallelism=2, backend=backend) as ctx:
            # Two partitions: single-partition stages run inline, and the
            # point here is exercising the pool's timeout path.
            result = ctx.run_stage(2, task)
            assert result == [[0], [1]]
            slow = next(t for t in ctx.metrics.tasks if t.partition == 0)
            assert slow.attempts >= 2  # original dispatch timed out
            assert slow.failed_attempts >= 1
            assert slow.failed_seconds > 0.0

    def test_timeout_exhaustion_fails_with_task_timeout(self):
        backend = ProcessBackend(
            max_workers=4,
            chunk_size=1,
            task_timeout=0.15,
            speculative_fraction=0.0,
            poll_interval=0.01,
            warmup=False,
        )
        with EngineContext(
            default_parallelism=4, backend=backend, max_task_retries=2
        ) as ctx:
            with pytest.raises(TaskFailure) as exc_info:
                ctx.run_stage(2, always_slow_task)
            assert isinstance(exc_info.value.cause, TaskTimeout)
            assert exc_info.value.attempts == 2
            assert len(ctx.metrics.failed_tasks) == 1

    def test_unpicklable_stage_raises_serialization_error(self):
        import threading

        lock = threading.Lock()

        # The lock capture is the point of the test.
        def unshippable(partition: int) -> list:  # repro: noqa[REPRO206]
            with lock:  # closure over a lock: not picklable, even by cloudpickle
                return [partition]

        with make_ctx("process") as ctx:
            with pytest.raises(TaskSerializationError):
                ctx.run_stage(2, unshippable)

    def test_shuffle_map_side_runs_once_driver_side(self):
        """Workers receive materialized buckets, not a recomputed map stage."""
        with make_ctx("sequential") as ref_ctx:
            run_pipeline(ref_ctx)
            expected = ref_ctx.metrics.snapshot()
        with make_ctx("process") as ctx:
            run_pipeline(ctx)
            snap = ctx.metrics.snapshot()
        assert snap["shuffle_records"] == expected["shuffle_records"]
        assert snap["stages"] == expected["stages"]
        assert snap["tasks"] == expected["tasks"]

    def test_fresh_pool_forks_clear_of_a_dropped_pool(self):
        """A pool ``stop()`` dropped can linger as cyclic garbage while its
        manager thread, still draining a straggler, holds the pool's
        shutdown lock.  A worker forked then inherits that lock held; if
        it also inherited the dead pool, its own GC would run the pool's
        weakref callback, which takes the lock, and hang the worker (and
        whoever joins it) forever."""
        import gc
        import threading

        old = ProcessBackend(max_workers=1, warmup=False)
        dropped = old._ensure_pool()
        dropped.submit(time.sleep, 1.0)  # keeps its manager thread alive
        cycle = [dropped]
        cycle.append(cycle)
        lock = dropped._shutdown_lock
        old.stop()
        del dropped
        held, release = threading.Event(), threading.Event()

        def hold_lock():  # as the draining manager thread does
            with lock:
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_lock)
        was_enabled = gc.isenabled()
        gc.disable()
        new = ProcessBackend(max_workers=1, warmup=False)
        try:
            del cycle
            holder.start()
            held.wait(5.0)
            threading.Timer(0.3, release.set).start()
            pool = new._ensure_pool()
            assert pool.submit(gc.collect).result(timeout=10) >= 0
        finally:
            release.set()
            holder.join()
            if was_enabled:
                gc.enable()
            for process in list((getattr(new._pool, "_processes", None) or {}).values()):
                process.kill()  # a hung worker must not outlive the test
            new.stop()


class TestBackendSelectionPlumbing:
    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_backend("sequential", 4), SequentialBackend)
        thread = resolve_backend("thread", 4)
        assert isinstance(thread, ThreadBackend) and thread.max_workers == 4
        same = resolve_backend(thread, 8)
        assert same is thread
        with pytest.raises(ValueError):
            resolve_backend("cluster", 4)
        assert set(BACKENDS) == {"sequential", "thread", "process"}

    def test_parallel_flag_maps_to_thread_backend(self):
        with EngineContext(default_parallelism=2, parallel=True) as ctx:
            assert ctx.backend_name == "thread"
            assert ctx.parallel
        assert EngineContext().backend_name == "sequential"

    def test_backend_options_forwarded(self):
        ctx = EngineContext(
            backend="process", backend_options={"chunk_size": 3, "warmup": False}
        )
        assert ctx.backend.chunk_size == 3
        ctx.stop()

    def test_using_backend_scopes_override(self):
        with make_ctx("sequential") as ctx:
            assert ctx.backend_name == "sequential"
            with ctx.using_backend("thread"):
                assert ctx.backend_name == "thread"
                assert ctx.parallelize(range(10), 2).map(double).collect() == [
                    2 * x for x in range(10)
                ]
            assert ctx.backend_name == "sequential"

    def test_selector_backend_override_is_eager_and_correct(self):
        events = generate_nyc_events(200, seed=9, days=5)
        query = Envelope(-74.05, 40.6, -73.9, 40.85)
        t = Duration(events[0].temporal_extent.start, events[-1].temporal_extent.end)
        with make_ctx("sequential") as ctx:
            plain = Selector(query, t).select(ctx, events).collect()
            threaded = Selector(query, t, backend="thread").select(ctx, events)
            # eager: already a source RDD, evaluated under the override
            assert ctx.backend_name == "sequential"
            assert element_bytes(threaded.collect()) == element_bytes(plain)

    def test_cli_exposes_backend_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--backend", "process", "info", "somewhere"]
        )
        assert args.backend == "process"

    def test_cost_model_chunking(self):
        assert suggest_task_chunks(0, 4) == 1
        assert suggest_task_chunks(8, 4) == 1  # fine-grained below a wave
        assert suggest_task_chunks(96, 4, target_waves=3) == 8
        with pytest.raises(ValueError):
            suggest_task_chunks(8, 0)
