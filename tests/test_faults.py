"""The fault-injection & recovery subsystem.

Contracts under test:

* :class:`FaultPlan` decisions are pure functions of (seed, site) — the
  same plan fires the same faults in every process, on every backend —
  and injected faults never outlast the retry/recovery machinery (the
  ``max_attempt`` convergence guarantee).
* The unified :class:`RetryPolicy` reproduces the historical attempt-cap
  semantics and adds backoff, deadline, and stage-budget behavior.
* Worker loss on the process backend salvages finished outcomes and
  recomputes only the lost partitions; repeated loss demotes the backend
  down the ladder; either way the job's *result* is unchanged.
* Corrupt on-disk blocks either surface as :class:`CorruptPartitionError`
  or quarantine to an empty partition, by caller choice.
* Pipeline checkpoint/resume is bit-identical to an uninterrupted run on
  every backend.
* Speculative-copy failures are charged exactly once (the double-meter
  regression).

Everything shipped to process workers is module-level, so the suite also
passes without cloudpickle installed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import Pipeline, Selector, TimeSeriesStructure
from repro.core.converters import Event2TsConverter
from repro.core.extractors import TsFlowExtractor
from repro.datasets import NYC_BBOX, generate_nyc_events
from repro.datasets.common import EPOCH_2013
from repro.engine import (
    CorruptPartitionError,
    EngineContext,
    EngineError,
    FaultPlan,
    FaultRule,
    InjectedWorkerLoss,
    PipelineCheckpoint,
    RecoveryOptions,
    RetryBudgetExhausted,
    RetryPolicy,
    TaskFailure,
)
from repro.engine.exec.base import run_task_attempts
from repro.engine.exec.process import _ChunkState, _note_copy_failure
from repro.engine.faults import (
    COMPLETE_MARKER,
    RetryBudget,
    corrupt_bytes,
    demotion_target,
)
from repro.stio import StDataset, save_dataset
from repro.temporal import Duration

ALL_BACKENDS = ["sequential", "thread", "process"]
WORKERS = 2


def make_ctx(backend: str = "sequential", **kwargs) -> EngineContext:
    options = kwargs.pop("backend_options", {})
    if backend == "process":
        options.setdefault("warmup", False)
    return EngineContext(
        default_parallelism=WORKERS,
        backend=backend,
        backend_options=options or None,
        **kwargs,
    )


def identity_task(partition: int) -> list:
    return [partition * 10 + i for i in range(3)]


def double(x: int) -> int:
    return 2 * x


# -- FaultPlan determinism -------------------------------------------------------


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan([FaultRule("task_error", probability=0.5, max_attempt=99)], seed=7)
        b = FaultPlan([FaultRule("task_error", probability=0.5, max_attempt=99)], seed=7)
        sites = [(s, p, att) for s in range(3) for p in range(8) for att in (1, 2)]
        decisions = [a.decide("task_error", *site) for site in sites]
        assert decisions == [b.decide("task_error", *site) for site in sites]
        assert any(d is not None for d in decisions)
        assert any(d is None for d in decisions)

    def test_decisions_survive_pickling(self):
        plan = FaultPlan([FaultRule("delay", probability=0.4, delay_seconds=0.01)], seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        for partition in range(10):
            assert (clone.decide("delay", 1, partition, 1) is None) == (
                plan.decide("delay", 1, partition, 1) is None
            )
        # Worker-local mutable state does not travel.
        plan.corrupt_read("part-00000.stb", b"xx")
        restored = pickle.loads(pickle.dumps(plan))
        assert restored._read_counts == {}
        assert restored.fired == []

    def test_seed_changes_decisions(self):
        rule = FaultRule("task_error", probability=0.5, max_attempt=99)
        sites = [(1, p, 1) for p in range(64)]
        fires = lambda seed: [  # noqa: E731
            FaultPlan([rule], seed=seed).decide("task_error", *s) is not None for s in sites
        ]
        assert fires(1) != fires(2)

    def test_max_attempt_gates_refiring(self):
        plan = FaultPlan([FaultRule("task_error")])  # max_attempt=1, p=1.0
        assert plan.decide("task_error", 1, 0, 1) is not None
        assert plan.decide("task_error", 1, 0, 2) is None

    def test_json_round_trip(self):
        plan = FaultPlan.chaos(seed=5, task_error=0.2, worker_kill=0.1, delay=0.3)
        clone = FaultPlan.from_spec(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.rules == plan.rules

    def test_from_spec_accepts_path_and_dict(self, tmp_path):
        plan = FaultPlan([FaultRule("corrupt_read", probability=0.5)], seed=11)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_spec(str(path)).rules == plan.rules
        assert FaultPlan.from_spec(plan.to_dict()).rules == plan.rules
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec(plan) is plan

    def test_from_env(self, monkeypatch):
        plan = FaultPlan([FaultRule("task_error", partition=2)], seed=9)
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
        ctx = EngineContext(default_parallelism=2)
        try:
            assert ctx.fault_plan is not None
            assert ctx.fault_plan.rules == plan.rules
        finally:
            ctx.stop()
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert FaultPlan.from_env() is None

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("meteor_strike")
        with pytest.raises(ValueError, match="probability"):
            FaultRule("task_error", probability=1.5)
        with pytest.raises(ValueError, match="max_attempt"):
            FaultRule("task_error", max_attempt=0)

    def test_corrupt_bytes_defeats_pickle(self):
        raw = pickle.dumps(list(range(100)))
        mangled = corrupt_bytes(raw)
        assert mangled != raw
        assert corrupt_bytes(raw) == mangled  # deterministic
        with pytest.raises(Exception):
            pickle.loads(mangled)


# -- RetryPolicy / RetryBudget ---------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(stage_attempt_budget=0)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_seconds=0.01, backoff_multiplier=2.0, backoff_max_seconds=0.03)
        assert policy.delay_before_retry(1) == pytest.approx(0.01)
        assert policy.delay_before_retry(2) == pytest.approx(0.02)
        assert policy.delay_before_retry(3) == pytest.approx(0.03)
        assert policy.delay_before_retry(4) == pytest.approx(0.03)
        assert RetryPolicy(backoff_seconds=0.0).delay_before_retry(1) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_seconds=0.01, jitter_fraction=0.5)
        delays = {policy.delay_before_retry(1, partition=p) for p in range(16)}
        assert len(delays) > 1  # jitter actually spreads
        for d in delays:
            assert 0.005 <= d <= 0.015
        assert policy.delay_before_retry(1, partition=3) == policy.delay_before_retry(
            1, partition=3
        )

    def test_budget_consume(self):
        budget = RetryBudget(2)
        assert budget.consume() and budget.consume()
        assert not budget.consume()
        clone = pickle.loads(pickle.dumps(budget))
        assert clone.used == 3 and clone.limit == 2

    def test_deadline_stops_retries_early(self):
        policy = RetryPolicy(max_attempts=50, retry_deadline_seconds=0.02)

        def always_fail(partition: int) -> list:
            import time

            time.sleep(0.015)
            raise RuntimeError("nope")

        with pytest.raises(TaskFailure) as exc_info:
            run_task_attempts(always_fail, 0, 50, policy=policy)
        assert exc_info.value.attempts < 50

    def test_context_policy_supersedes_max_task_retries(self):
        ctx = make_ctx(retry_policy=RetryPolicy(max_attempts=5))
        try:
            assert ctx.max_task_retries == 5
        finally:
            ctx.stop()


# -- injection through the engine ------------------------------------------------


class TestInjection:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_task_error_recovers_on_retry(self, backend):
        plan = FaultPlan([FaultRule("task_error", partition=1)])
        clean = make_ctx(backend)
        faulty = make_ctx(backend, fault_plan=plan)
        try:
            expected = clean.parallelize(range(40), 4).map(double).collect()
            got = faulty.parallelize(range(40), 4).map(double).collect()
            assert got == expected
            assert faulty.metrics.faults_injected >= 1
            assert clean.metrics.faults_injected == 0
        finally:
            clean.stop()
            faulty.stop()

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_worker_kill_inprocess_degrades_to_retry(self, backend):
        # No process to kill on in-process backends: the rule raises
        # InjectedWorkerLoss, which the attempt loop retries like any fault.
        plan = FaultPlan([FaultRule("worker_kill", partition=0)])
        ctx = make_ctx(backend, fault_plan=plan)
        try:
            assert ctx.parallelize(range(20), 4).map(double).collect() == [
                2 * x for x in range(20)
            ]
            assert ctx.metrics.faults_injected >= 1
            assert ctx.metrics.worker_losses == 0
        finally:
            ctx.stop()

    def test_delay_injection_is_metered(self):
        plan = FaultPlan([FaultRule("delay", partition=2, delay_seconds=0.01)])
        ctx = make_ctx(fault_plan=plan)
        try:
            assert ctx.parallelize(range(40), 4).map(double).count() == 40
            assert ctx.metrics.injected_delay_seconds >= 0.01
            assert ctx.metrics.faults_injected >= 1
        finally:
            ctx.stop()

    def test_attempt_history_rides_the_failure(self):
        plan = FaultPlan([FaultRule("task_error", partition=1, max_attempt=99)])
        ctx = make_ctx(fault_plan=plan)
        try:
            with pytest.raises(TaskFailure) as exc_info:
                ctx.parallelize(range(8), 4).map(double).collect()
            failure = exc_info.value
            assert failure.attempts == ctx.max_task_retries
            assert len(failure.history) == ctx.max_task_retries
            assert [a for a, _ in failure.history] == list(
                range(1, ctx.max_task_retries + 1)
            )
            assert "attempt history" in str(failure)
            assert "InjectedFault" in str(failure)
        finally:
            ctx.stop()

    def test_stage_budget_exhaustion_surfaces_cause(self):
        plan = FaultPlan([FaultRule("task_error", max_attempt=99)])
        policy = RetryPolicy(max_attempts=10, stage_attempt_budget=3)
        ctx = make_ctx(fault_plan=plan, retry_policy=policy)
        try:
            with pytest.raises(TaskFailure) as exc_info:
                ctx.parallelize(range(8), 4).map(double).collect()
            assert isinstance(exc_info.value.cause, RetryBudgetExhausted)
            assert exc_info.value.history  # the trail is attached
        finally:
            ctx.stop()

    def test_injection_parity_same_backend(self):
        # Same plan, two fresh contexts: identical fired sites and results.
        def run():
            plan = FaultPlan.chaos(seed=23, task_error=0.5)
            ctx = make_ctx(fault_plan=plan)
            try:
                result = ctx.parallelize(range(60), 6).map(double).collect()
                return result, ctx.metrics.faults_injected, list(plan.fired)
            finally:
                ctx.stop()

        first, second = run(), run()
        assert first == second
        assert first[1] >= 1


# -- worker loss & recovery (process backend) ------------------------------------


class TestWorkerLossRecovery:
    def test_kill_mid_stage_recomputes_lost_partitions(self):
        plan = FaultPlan([FaultRule("worker_kill", partition=5)])
        clean = make_ctx("process")
        faulty = make_ctx("process", fault_plan=plan)
        try:
            expected = clean.parallelize(range(64), 8).map(double).collect()
            got = faulty.parallelize(range(64), 8).map(double).collect()
            assert got == expected
            assert faulty.metrics.worker_losses >= 1
            assert faulty.metrics.partitions_recomputed >= 1
        finally:
            clean.stop()
            faulty.stop()

    def test_repeated_loss_demotes_backend(self):
        plan = FaultPlan([FaultRule("worker_kill", partition=3)])
        ctx = make_ctx(
            "process",
            fault_plan=plan,
            recovery=RecoveryOptions(demote_after_worker_losses=1),
        )
        try:
            result = ctx.parallelize(range(32), 8).map(double).collect()
            assert result == [2 * x for x in range(32)]
            assert ctx.metrics.backend_demotions == 1
            assert ctx.backend.name == "thread"
            # Post-demotion stages keep working (and stay demoted).
            assert ctx.parallelize(range(10), 2).map(double).count() == 10
            assert ctx.backend.name == "thread"
        finally:
            ctx.stop()

    def test_recovery_rounds_are_bounded(self):
        # Every re-dispatch dies again (max_attempt is huge), so the engine
        # must give up after max_stage_recoveries instead of looping.
        plan = FaultPlan([FaultRule("worker_kill", partition=3, max_attempt=99)])
        ctx = make_ctx(
            "process",
            fault_plan=plan,
            recovery=RecoveryOptions(max_stage_recoveries=1, demote=False),
        )
        try:
            with pytest.raises(EngineError, match="recovery"):
                ctx.parallelize(range(32), 8).map(double).collect()
        finally:
            ctx.stop()

    def test_demotion_ladder_shape(self):
        assert demotion_target("process") == "thread"
        assert demotion_target("thread") == "sequential"
        assert demotion_target("sequential") is None
        with pytest.raises(ValueError):
            RecoveryOptions(demote_after_worker_losses=0)


# -- speculative double-meter regression -----------------------------------------


class TestCopyFailureAccounting:
    def _chunk(self, **attrs) -> _ChunkState:
        chunk = _ChunkState([0], 0.0)
        for name, value in attrs.items():
            setattr(chunk, name, value)
        return chunk

    def test_timed_out_original_is_not_charged_twice(self):
        # The original timed out (charged via resubmits) and its zombie
        # failure lands while the re-dispatch is still running: swallow it
        # without adding waste — the resubmit fold already covers it.
        chunk = self._chunk(resubmits=1, futures={object(): False})
        failure = TaskFailure(0, 2, RuntimeError("zombie"), elapsed_seconds=0.5)
        assert _note_copy_failure(chunk, failure, was_speculative=False) is None
        assert chunk.swallowed_timeouts == 1
        assert chunk.wasted_attempts == 0

    def test_speculative_copy_failure_accumulates_waste(self):
        chunk = self._chunk(futures={object(): False})
        failure = TaskFailure(0, 3, RuntimeError("spec died"), elapsed_seconds=0.2)
        assert _note_copy_failure(chunk, failure, was_speculative=True) is None
        assert chunk.wasted_attempts == 3
        assert chunk.wasted_seconds == pytest.approx(0.2)

    def test_last_copy_failure_merges_waste_once(self):
        chunk = self._chunk(wasted_attempts=3, wasted_seconds=0.2)
        failure = TaskFailure(
            0, 2, RuntimeError("last"), elapsed_seconds=0.1, history=((1, "e"),)
        )
        fatal = _note_copy_failure(chunk, failure, was_speculative=False)
        assert fatal is not None
        assert fatal.attempts == 5  # 2 own + 3 discarded, each exactly once
        assert fatal.elapsed_seconds == pytest.approx(0.3)
        assert fatal.history == ((1, "e"),)
        assert isinstance(fatal.cause, RuntimeError)

    def test_last_copy_without_waste_passes_through(self):
        chunk = self._chunk()
        failure = TaskFailure(0, 2, RuntimeError("only copy"))
        assert _note_copy_failure(chunk, failure, was_speculative=False) is failure


# -- corrupt partitions ----------------------------------------------------------


def _write_event_dataset(directory, n=40, partitions=8):
    events = generate_nyc_events(n, seed=3)
    save_dataset(directory, events, "event", num_partitions=partitions)
    return events


def _corrupt_block(directory, index, junk=b"not a block") -> str:
    """Overwrite the ``index``-th block the metadata names; returns its filename."""
    filename = StDataset(directory).metadata().partitions[index].filename
    assert (directory / filename).is_file()
    (directory / filename).write_bytes(junk)
    return filename


class TestCorruptPartitions:
    def test_raise_surfaces_corrupt_partition_error(self, tmp_path):
        _write_event_dataset(tmp_path / "ds")
        corrupt = _corrupt_block(tmp_path / "ds", 2)
        ctx = make_ctx()
        try:
            rdd, _ = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            with pytest.raises(TaskFailure) as exc_info:
                rdd.collect()
            assert isinstance(exc_info.value.cause, CorruptPartitionError)
            assert corrupt == "part-00002.stb"
            assert corrupt in str(exc_info.value.cause)
        finally:
            ctx.stop()

    def test_quarantine_loads_partition_empty(self, tmp_path):
        events = _write_event_dataset(tmp_path / "ds")
        meta = StDataset(tmp_path / "ds").metadata()
        lost = meta.partitions[2].count
        corrupt = _corrupt_block(tmp_path / "ds", 2)
        ctx = make_ctx()
        try:
            rdd, stats = StDataset(tmp_path / "ds").read(
                ctx, use_metadata=False, on_corrupt="quarantine"
            )
            assert rdd.count() == len(events) - lost
            assert stats.partitions_quarantined == 1
            assert stats.quarantined_files == [corrupt]
        finally:
            ctx.stop()

    def test_selector_records_quarantine_counter(self, tmp_path):
        from repro.obs import Tracer, installed

        _write_event_dataset(tmp_path / "ds")
        _corrupt_block(tmp_path / "ds", 1, b"junk")
        ctx = make_ctx()
        tracer = Tracer()
        try:
            with installed(tracer):
                selector = Selector(
                    NYC_BBOX.to_envelope(), on_corrupt="quarantine"
                )
                selector.select(ctx, tmp_path / "ds", use_metadata=False).count()
            assert tracer.counters.get("partitions_quarantined", 0) == 1
        finally:
            ctx.stop()

    def test_on_corrupt_validation(self, tmp_path):
        with pytest.raises(ValueError, match="on_corrupt"):
            Selector(NYC_BBOX.to_envelope(), on_corrupt="explode")
        _write_event_dataset(tmp_path / "ds")
        ctx = make_ctx()
        try:
            with pytest.raises(ValueError, match="on_corrupt"):
                StDataset(tmp_path / "ds").read(ctx, on_corrupt="explode")
        finally:
            ctx.stop()

    def test_injected_corrupt_read_is_transient(self, tmp_path):
        events = _write_event_dataset(tmp_path / "ds")
        plan = FaultPlan([FaultRule("corrupt_read", path="part-00000")])
        clean_ctx = make_ctx()
        ctx = make_ctx(fault_plan=plan)
        try:
            clean_rdd, _ = StDataset(tmp_path / "ds").read(clean_ctx, use_metadata=False)
            rdd, stats = StDataset(tmp_path / "ds").read(ctx, use_metadata=False)
            assert rdd.count() == len(events) == clean_rdd.count()
            assert ctx.metrics.faults_injected >= 1
            assert stats.partitions_quarantined == 0  # transient, not quarantined
        finally:
            clean_ctx.stop()
            ctx.stop()


# -- pipeline checkpoint & resume ------------------------------------------------


def _flow_pipeline():
    one_day = Duration(EPOCH_2013, EPOCH_2013 + 86_400.0)
    return Pipeline(
        selector=Selector(NYC_BBOX.to_envelope(), one_day),
        converter=Event2TsConverter(TimeSeriesStructure.of_interval(one_day, 21_600.0)),
        extractor=TsFlowExtractor(),
    )


class TestCheckpointResume:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_resume_is_bit_identical(self, backend, tmp_path):
        _write_event_dataset(tmp_path / "ds", n=200, partitions=4)
        ctx = make_ctx(backend)
        try:
            baseline = _flow_pipeline().run(ctx, tmp_path / "ds")
            first = _flow_pipeline().run(
                ctx, tmp_path / "ds", checkpoint_dir=tmp_path / "ckpt"
            )
            ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
            assert ckpt.has("selection") and ckpt.has("conversion")
            # Resume must not touch the source: hand it a bogus path.
            resumed = _flow_pipeline().run(
                ctx, tmp_path / "does-not-exist", checkpoint_dir=tmp_path / "ckpt"
            )
            for result in (first, resumed):
                assert pickle.dumps(result.cell_values()) == pickle.dumps(
                    baseline.cell_values()
                )
        finally:
            ctx.stop()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_extentless_phase_output_round_trips(self, backend, tmp_path):
        """Partial collective instances, and raw state with no ST extent at
        all (a non-filterable block), come back from a checkpoint unchanged."""
        from repro.stio import open_v2_block

        events = _write_event_dataset(tmp_path / "ds", n=120, partitions=3)
        ctx = make_ctx(backend)
        try:
            pipe = _flow_pipeline()
            partials = pipe.converter.convert(ctx.parallelize(events, 3))._collect_partitions()
            raw = [[{"windows": {0: 3, 7: [1.5, 2.0]}, "seen": 7}], [], [("k", 1), None]]
            ckpt = PipelineCheckpoint(tmp_path / "ckpt", ctx)
            ckpt.save("partials", ctx.from_partitions(partials))
            ckpt.save("raw", ctx.from_partitions(raw))
            for phase in ("partials", "raw"):
                meta = StDataset(ckpt.phase_dir(phase)).metadata()
                assert (meta.block_format, meta.codec) == ("v2", "pickle")
                blocks = [open_v2_block(ckpt.phase_dir(phase) / m.filename) for m in meta.partitions]
                assert [len(b) for b in blocks] == [m.count for m in meta.partitions]
                if phase == "raw":
                    assert not any(b.filterable for b in blocks if len(b))
            assert ckpt.load("raw")._collect_partitions() == raw
            loaded = ckpt.load("partials")._collect_partitions()
            assert [[type(p) for p in part] for part in loaded] == [
                [type(p) for p in part] for part in partials
            ]
            assert [[p.cell_values() for p in part] for part in loaded] == [
                [p.cell_values() for p in part] for part in partials
            ]
            assert pickle.dumps(pipe.extractor.extract(ckpt.load("partials")).cell_values()) == (
                pickle.dumps(pipe.extractor.extract(ctx.from_partitions(partials)).cell_values())
            )
        finally:
            ctx.stop()

    def test_torn_checkpoint_recomputes_phase(self, tmp_path):
        _write_event_dataset(tmp_path / "ds", n=200, partitions=4)
        ctx = make_ctx()
        try:
            baseline = _flow_pipeline().run(
                ctx, tmp_path / "ds", checkpoint_dir=tmp_path / "ckpt"
            )
            # A crash mid-checkpoint leaves no marker: conversion recomputes
            # (from the selection checkpoint — the bogus source proves it).
            (tmp_path / "ckpt" / "conversion" / COMPLETE_MARKER).unlink()
            resumed = _flow_pipeline().run(
                ctx, tmp_path / "bogus", checkpoint_dir=tmp_path / "ckpt"
            )
            assert resumed.cell_values() == baseline.cell_values()
            assert (tmp_path / "ckpt" / "conversion" / COMPLETE_MARKER).exists()
        finally:
            ctx.stop()

    def test_resume_false_ignores_existing_checkpoints(self, tmp_path):
        _write_event_dataset(tmp_path / "ds", n=200, partitions=4)
        ctx = make_ctx()
        try:
            baseline = _flow_pipeline().run(
                ctx, tmp_path / "ds", checkpoint_dir=tmp_path / "ckpt"
            )
            # resume=False must recompute from the source — a bogus source
            # therefore fails instead of silently resuming.
            with pytest.raises(FileNotFoundError):
                _flow_pipeline().run(
                    ctx,
                    tmp_path / "bogus",
                    checkpoint_dir=tmp_path / "ckpt",
                    resume=False,
                )
            again = _flow_pipeline().run(
                ctx, tmp_path / "ds", checkpoint_dir=tmp_path / "ckpt", resume=False
            )
            assert again.cell_values() == baseline.cell_values()
        finally:
            ctx.stop()

    def test_checkpoint_survives_chaos(self, tmp_path):
        plan = FaultPlan.chaos(seed=41, task_error=0.3, corrupt_read=0.3)
        _write_event_dataset(tmp_path / "ds", n=200, partitions=4)
        clean = make_ctx()
        faulty = make_ctx(fault_plan=plan)
        try:
            baseline = _flow_pipeline().run(clean, tmp_path / "ds")
            chaotic = _flow_pipeline().run(
                faulty, tmp_path / "ds", checkpoint_dir=tmp_path / "ckpt"
            )
            assert chaotic.cell_values() == baseline.cell_values()
        finally:
            clean.stop()
            faulty.stop()


# -- attempt-offset semantics (recovery re-dispatch) -----------------------------


class TestAttemptOffset:
    def test_offset_precharges_attempt_caps(self):
        def fine(partition: int) -> list:
            return [partition]

        outcome = run_task_attempts(fine, 0, 3, attempt_offset=1)
        assert outcome.attempts == 2  # first post-recovery attempt is #2
        with pytest.raises(TaskFailure):
            run_task_attempts(fine, 0, 3, attempt_offset=3)  # cap already spent

    def test_offset_skips_first_attempt_fault_rules(self):
        # A kill rule with max_attempt=1 fired before the worker died; the
        # recovery re-dispatch (offset 1 → attempt 2) must not re-trigger it.
        plan = FaultPlan([FaultRule("worker_kill", partition=0)])
        with pytest.raises(TaskFailure) as exc_info:
            run_task_attempts(identity_task, 0, 1, fault_plan=plan)
        assert isinstance(exc_info.value.cause, InjectedWorkerLoss)
        outcome = run_task_attempts(
            identity_task, 0, 3, fault_plan=plan, attempt_offset=1
        )
        assert outcome.result == identity_task(0)
        assert outcome.injected_faults == 0
