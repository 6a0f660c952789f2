"""The strict-mode runtime sanitizer (``EngineContext(strict=True)``)."""

import threading

import pytest

from repro.engine import Accumulator, EngineContext, StrictModeViolation
from repro.engine.sanitizer import is_accumulator, validate_partitioner
from repro.index.boxes import STBox
from tests.conftest import make_events


@pytest.fixture(params=["sequential", "thread", "process"])
def strict_ctx(request):
    with EngineContext(default_parallelism=2, backend=request.param, strict=True) as ctx:
        yield ctx


class TestStrictMode:
    def test_clean_pipeline_passes(self, strict_ctx):
        out = strict_ctx.parallelize(range(20), 2).map(lambda x: x * 2).collect()
        assert out == [x * 2 for x in range(20)]

    def test_unpicklable_capture_caught(self, strict_ctx):
        # Regression: a lock smuggled into a closure must be rejected
        # driver-side on *every* backend, not crash mid-shuffle on process.
        lock = threading.Lock()
        with pytest.raises(StrictModeViolation) as err:
            # The lock capture is the point of the test.
            strict_ctx.parallelize(range(4), 2).map(lambda x: (lock, x) and x).collect()
        assert err.value.rule == "REPRO105"
        assert "lock" in str(err.value)

    def test_mutable_capture_mutation_caught(self, strict_ctx):
        seen = []
        if strict_ctx.backend_name == "process":
            # The write lands in a worker's copy of the closure, so the
            # driver-side list never changes — the exact data loss the
            # sanitizer exists to flag on the in-process backends.
            strict_ctx.parallelize(range(4), 2).map(
                lambda x: seen.append(x) or x  # deliberate hazard
            ).collect()
            assert seen == []
        else:
            with pytest.raises(StrictModeViolation) as err:
                strict_ctx.parallelize(range(4), 2).map(
                    lambda x: seen.append(x) or x  # deliberate hazard
                ).collect()
            assert err.value.rule == "REPRO104"

    def test_accumulator_is_exempt(self, strict_ctx):
        acc = Accumulator(0, lambda a, b: a + b)
        strict_ctx.parallelize(range(10), 2).foreach(lambda x: acc.add(x))
        assert acc.value == 45

    def test_broadcast_mutation_caught(self):
        with EngineContext(default_parallelism=2, strict=True) as ctx:
            table = ctx.broadcast({"k": 1})
            with pytest.raises(StrictModeViolation) as err:
                ctx.parallelize(range(4), 2).map(
                    lambda x: table.value.__setitem__("k", x) or x  # deliberate hazard
                ).collect()
            assert err.value.rule == "REPRO109"

    def test_broadcast_read_is_fine(self, strict_ctx):
        table = strict_ctx.broadcast({"k": 10})
        out = strict_ctx.parallelize(range(4), 2).map(lambda x: x + table.value["k"])
        assert out.collect() == [10, 11, 12, 13]

    def test_non_strict_context_unchanged(self):
        with EngineContext(default_parallelism=2) as ctx:
            seen = []
            ctx.parallelize(range(4), 2).map(
                lambda x: seen.append(x) or x  # deliberate hazard
            ).collect()
            assert sorted(seen) == [0, 1, 2, 3]

    def test_worker_copy_sheds_sanitizer(self):
        import pickle

        ctx = EngineContext(strict=True)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone._sanitizer is None
        assert clone._worker_side

    def test_accumulator_protocol_detection(self):
        assert is_accumulator(Accumulator(0, lambda a, b: a + b))
        assert not is_accumulator(set())  # has .add but no .reset
        assert not is_accumulator([])


class _BrokenAssign:
    """Minimal partitioner double breaking the assign contract."""

    def __init__(self, n=2, result=99):
        self.num_partitions = n
        self._result = result

    def assign(self, instance):
        return self._result

    def boundaries(self):
        box = STBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        return [box] * self.num_partitions


class TestPartitionerValidation:
    def test_out_of_range_assign_rejected(self):
        events = make_events(5)
        with pytest.raises(StrictModeViolation) as err:
            validate_partitioner(_BrokenAssign(), events)
        assert err.value.rule == "REPRO110"

    def test_zero_partitions_rejected(self):
        with pytest.raises(StrictModeViolation):
            validate_partitioner(_BrokenAssign(n=0), [])

    def test_real_partitioner_validates_through_partition(self):
        from repro.partitioners import TSTRPartitioner

        events = make_events(200)
        with EngineContext(default_parallelism=4, strict=True) as ctx:
            out = TSTRPartitioner(gt=2, gs=2).partition(ctx.parallelize(events, 4))
            assert out.count() == len(events)

    def test_broken_partitioner_caught_through_partition(self):
        class Bad(_BrokenAssign):
            def fit(self, sample):
                pass

            def partition(self, rdd):
                from repro.partitioners.base import STPartitioner

                return STPartitioner.partition(self, rdd)

        events = make_events(50)
        with EngineContext(default_parallelism=2, strict=True) as ctx:
            with pytest.raises(StrictModeViolation) as err:
                Bad().partition(ctx.parallelize(events, 2))
            assert err.value.rule == "REPRO110"


class TestCapturedContextOrRdd:
    """A task may capture the context or an RDD: the worker copy sheds the
    driver's state and runs the nested stage inline, on every backend, so
    strict mode has nothing to flag."""

    @pytest.mark.parametrize("capture", ["context", "rdd"])
    def test_nested_stage_in_task_is_answered(self, strict_ctx, capture):
        if capture == "context":

            def task(x):
                return x + strict_ctx.parallelize(range(3), 1).count()

        else:
            other = strict_ctx.parallelize(range(3), 1)

            def task(x):
                return x + other.count()

        out = strict_ctx.parallelize(range(4), 2).map(task).collect()
        assert out == [3, 4, 5, 6]
