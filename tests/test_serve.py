"""The serve daemon: admission, queueing, caching, parity, invalidation."""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cli import main as cli_main
from repro.columnar.boxtable import BoxTable
from repro.columnar.cache import (
    PartitionIndexCache,
    configure_selection_cache,
    selection_cache,
)
from repro.columnar.packed_rtree import PackedRTree
from repro.core import Selector
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.instances import Event
from repro.serve import (
    AdmissionController,
    BoundedPriorityQueue,
    CachedResult,
    QueryServer,
    ResultCache,
    ServeClient,
    ServeConfig,
    TenantPolicy,
    TokenBucket,
    wait_until_ready,
)
from repro.serve.protocol import (
    parse_query_range,
    parse_request,
    query_cache_key,
    records_document,
    result_document,
)
from repro.stio import StDataset
from repro.stio.metadata import DatasetMetadata
from repro.temporal import Duration
from tests.conftest import make_events


@pytest.fixture(autouse=True)
def _restore_selection_cache():
    """QueryServer reconfigures the process-wide index cache; restore it."""
    yield
    cache = configure_selection_cache(capacity=64, max_bytes=None)
    cache.clear()


@contextmanager
def running_server(directory, **config_kwargs):
    server = QueryServer(directory, ServeConfig(**config_kwargs))
    host, port = server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        wait_until_ready(host, port)
        yield server, host, port
    finally:
        server.stop()
        thread.join(timeout=5)


def write_dataset(directory, n=2000, partitions=8):
    events = make_events(n)
    StDataset.write(directory, [events[i::partitions] for i in range(partitions)], "event")
    return events


# ---------------------------------------------------------------------------
# Admission control


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert all(bucket.try_acquire() for _ in range(3))
        assert not bucket.try_acquire()
        now[0] = 1.0  # 2 tokens refilled
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: now[0])
        now[0] = 60.0
        assert bucket.tokens == 2.0

    def test_zero_rate_never_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        now[0] = 1e9
        assert not bucket.try_acquire()


class TestTenantPolicy:
    def test_from_spec_full_and_partial(self):
        name, policy = TenantPolicy.from_spec("ml:100:40:16")
        assert name == "ml" and policy == TenantPolicy(100.0, 40.0, 16)
        _, partial = TenantPolicy.from_spec("ml:5")
        assert partial.rate == 5.0
        assert partial.burst == TenantPolicy().burst
        assert partial.max_inflight == TenantPolicy().max_inflight

    @pytest.mark.parametrize("spec", [":5", "a:b", "a:1:2:3:4"])
    def test_from_spec_rejects(self, spec):
        with pytest.raises(ValueError):
            TenantPolicy.from_spec(spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy(rate=-1)
        with pytest.raises(ValueError):
            TenantPolicy(max_inflight=0)


class TestAdmissionController:
    def test_inflight_cap_and_release(self):
        ctrl = AdmissionController(default=TenantPolicy(rate=1000, burst=100, max_inflight=2))
        assert ctrl.admit("t") is None
        assert ctrl.admit("t") is None
        assert ctrl.admit("t") == "max_inflight"
        ctrl.release("t")
        assert ctrl.admit("t") is None

    def test_rate_shed_and_snapshot(self):
        now = [0.0]
        ctrl = AdmissionController(
            default=TenantPolicy(rate=0, burst=1, max_inflight=10), clock=lambda: now[0]
        )
        assert ctrl.admit("a") is None
        assert ctrl.admit("a") == "rate_limit"
        ctrl.release("a")
        snap = ctrl.snapshot()["a"]
        assert snap == {
            "admitted": 1, "completed": 1, "shed_rate": 1,
            "shed_inflight": 0, "inflight": 0,
        }

    def test_named_tenants_do_not_share_budgets(self):
        ctrl = AdmissionController(
            default=TenantPolicy(rate=0, burst=1, max_inflight=8),
            tenants={"vip": TenantPolicy(rate=0, burst=3, max_inflight=8)},
        )
        assert ctrl.admit("vip") is None
        assert ctrl.admit("anon") is None
        assert ctrl.admit("anon") == "rate_limit"
        assert ctrl.admit("vip") is None  # vip budget untouched by anon


# ---------------------------------------------------------------------------
# Queueing


class TestBoundedPriorityQueue:
    def test_priority_order_fifo_within(self):
        q = BoundedPriorityQueue(depth=8)
        q.offer("low-a", 10)
        q.offer("high", 1)
        q.offer("low-b", 10)
        assert [q.take() for _ in range(3)] == ["high", "low-a", "low-b"]

    def test_rejects_when_full(self):
        q = BoundedPriorityQueue(depth=2)
        assert q.offer("a") and q.offer("b")
        assert not q.offer("c")
        assert q.rejected == 1 and q.peak_depth == 2

    def test_take_timeout_and_close(self):
        q = BoundedPriorityQueue(depth=2)
        assert q.take(timeout=0.01) is None
        q.close()
        assert not q.offer("late")
        assert q.take() is None


# ---------------------------------------------------------------------------
# Result cache


def _entry(nbytes, generation=0):
    return CachedResult(records=[], count=0, nbytes=nbytes, generation=generation)


class TestResultCache:
    def test_lru_byte_eviction_keeps_newest(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", _entry(60))
        cache.put("b", _entry(60))  # over budget: a evicted
        assert cache.get("a") is None and cache.get("b") is not None
        assert cache.bytes == 60 and cache.evictions == 1
        cache.put("c", _entry(500))  # alone over budget: still kept
        assert cache.get("c") is not None and len(cache) == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_bytes=100)
        cache.put("a", _entry(40))
        cache.put("b", _entry(40))
        assert cache.get("a") is not None
        cache.put("c", _entry(40))  # b is now LRU
        assert cache.get("b") is None and cache.get("a") is not None

    def test_put_replaces_without_leaking_bytes(self):
        cache = ResultCache(max_bytes=1000)
        cache.put("a", _entry(100))
        cache.put("a", _entry(50))
        assert cache.bytes == 50 and len(cache) == 1

    def test_drop_stale_generations(self):
        cache = ResultCache(max_bytes=1000)
        cache.put("old1", _entry(10, generation=0))
        cache.put("old2", _entry(10, generation=0))
        cache.put("new", _entry(10, generation=1))
        assert cache.drop_stale_generations(1) == 2
        assert cache.get("new") is not None and cache.bytes == 10
        assert cache.snapshot()["invalidations"] == 2


# ---------------------------------------------------------------------------
# Selection-index cache byte accounting (satellite: max_bytes + nbytes)


class _Sized:
    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestIndexCacheBytes:
    def test_max_bytes_evicts_lru(self):
        cache = PartitionIndexCache(capacity=64, max_bytes=100)
        p1, p2 = [1], [2]
        cache.get_or_build(p1, "k", lambda p: _Sized(70))
        cache.get_or_build(p2, "k", lambda p: _Sized(70))
        assert cache.bytes == 70 and cache.evictions == 1
        _, hit = cache.get_or_build(p1, "k", lambda p: _Sized(70))
        assert not hit  # p1 was the evicted one

    def test_newest_survives_even_over_budget(self):
        cache = PartitionIndexCache(capacity=64, max_bytes=10)
        cache.get_or_build([1], "k", lambda p: _Sized(500))
        assert len(cache) == 1 and cache.bytes == 500

    def test_configure_rebounds_in_place(self):
        cache = PartitionIndexCache(capacity=64)
        for i in range(4):
            cache.get_or_build([i], "k", lambda p: _Sized(50))
        assert cache.bytes == 200
        cache.configure(max_bytes=100)
        assert cache.bytes <= 100 and cache.evictions == 2
        assert cache.max_bytes == 100 and cache.capacity == 64

    def test_real_indexes_report_nbytes(self):
        events = make_events(200)
        table = BoxTable.from_instances(events)
        mins, maxs = table.coords()
        tree = PackedRTree(mins, maxs, capacity=16)
        assert table.nbytes > 0
        # Exact: at least the reordered entry arrays plus the row order.
        assert tree.nbytes >= mins.nbytes + maxs.nbytes + 200 * 8


# ---------------------------------------------------------------------------
# Protocol


class TestProtocol:
    def test_parse_request_errors(self):
        with pytest.raises(ValueError):
            parse_request("{not json")
        with pytest.raises(ValueError):
            parse_request("[1,2]")
        with pytest.raises(ValueError):
            parse_request('{"no": "op"}')

    def test_parse_query_range(self):
        spatial, temporal = parse_query_range(
            {"bbox": [0, 1, 2, 3], "time": [10, 20]}
        )
        assert spatial == Envelope(0, 1, 2, 3)
        assert (temporal.start, temporal.end) == (10.0, 20.0)
        with pytest.raises(ValueError):
            parse_query_range({})
        with pytest.raises(ValueError):
            parse_query_range({"bbox": [1, 2, 3]})
        with pytest.raises(ValueError):
            parse_query_range({"time": [1]})

    def test_query_cache_key_generation_sensitivity(self):
        spatial = Envelope(0, 0, 5, 5)
        temporal = Duration(0, 100)
        key0 = query_cache_key(spatial, temporal, 0)
        assert query_cache_key(spatial, temporal, 0) == key0
        assert query_cache_key(spatial, temporal, 1) != key0
        assert query_cache_key(Envelope(0, 0, 5, 6), temporal, 0) != key0

    def test_result_document_matches_records_document(self):
        events = make_events(20)
        doc = records_document(events)
        import json

        payload = json.loads(doc)
        response = {"count": payload["count"], "records": payload["records"]}
        assert result_document(response) == doc


# ---------------------------------------------------------------------------
# The daemon, end to end


BBOXES = [
    (0.0, 0.0, 4.0, 4.0),
    (2.0, 2.0, 8.0, 8.0),
    (5.0, 1.0, 9.0, 6.0),
    (1.0, 5.0, 6.0, 9.5),
]
WINDOW = (0.0, 60_000.0)


def one_shot_document(directory, bbox, window=WINDOW):
    ctx = EngineContext(default_parallelism=4)
    try:
        selector = Selector(Envelope(*bbox), Duration(*window))
        return records_document(selector.select(ctx, directory).collect())
    finally:
        ctx.stop()


class TestServeDaemon:
    def test_parity_with_one_shot_select(self, tmp_path):
        write_dataset(tmp_path / "ds")
        with running_server(tmp_path / "ds", workers=2) as (_, host, port):
            with ServeClient(host, port) as client:
                for bbox in BBOXES:
                    response = client.query(bbox=bbox, time_range=WINDOW)
                    assert response["status"] == "ok"
                    assert result_document(response) == one_shot_document(
                        tmp_path / "ds", bbox
                    )

    def test_parity_with_cli_select_json(self, tmp_path, capsys):
        write_dataset(tmp_path / "ds")
        bbox = BBOXES[1]
        assert (
            cli_main(
                [
                    "select", str(tmp_path / "ds"),
                    "--bbox", *[str(v) for v in bbox],
                    "--time", *[str(v) for v in WINDOW],
                    "--format", "json",
                ]
            )
            == 0
        )
        cli_doc = capsys.readouterr().out.strip()
        with running_server(tmp_path / "ds", workers=2) as (_, host, port):
            with ServeClient(host, port) as client:
                response = client.query(bbox=bbox, time_range=WINDOW)
        assert result_document(response) == cli_doc

    def test_warm_round_hits_cache_and_is_faster(self, tmp_path):
        write_dataset(tmp_path / "ds", n=4000)
        with running_server(tmp_path / "ds", workers=2) as (server, host, port):
            with ServeClient(host, port) as client:

                def round_trip():
                    latencies = []
                    for bbox in BBOXES:
                        start = time.perf_counter()
                        response = client.query(bbox=bbox, time_range=WINDOW)
                        latencies.append(time.perf_counter() - start)
                        assert response["status"] == "ok"
                    return latencies

                cold = round_trip()
                warm = round_trip()
            snap = server.result_cache.snapshot()
            assert snap["hits"] >= len(BBOXES)
            assert statistics.median(warm) < statistics.median(cold)
            # Warm responses say so.
            assert server.counters["serve_cache_hits"] >= len(BBOXES)

    def test_overloaded_tenant_sheds_others_unaffected(self, tmp_path):
        write_dataset(tmp_path / "ds")
        # rate=0, burst=2: "limited" gets exactly two requests, ever.
        with running_server(
            tmp_path / "ds",
            workers=2,
            tenants={"limited": TenantPolicy(rate=0, burst=2, max_inflight=8)},
        ) as (_, host, port):
            with ServeClient(host, port) as client:
                statuses = [
                    client.query(bbox=BBOXES[0], time_range=WINDOW, tenant="limited")
                    for _ in range(4)
                ]
                assert [r["status"] for r in statuses] == ["ok", "ok", "SHED", "SHED"]
                assert {r["reason"] for r in statuses[2:]} == {"rate_limit"}
                # Another tenant is untouched — and still answers correctly.
                other = client.query(bbox=BBOXES[0], time_range=WINDOW, tenant="ok-team")
                assert other["status"] == "ok"
                assert result_document(other) == one_shot_document(
                    tmp_path / "ds", BBOXES[0]
                )

    def test_queue_full_sheds_explicitly(self, tmp_path):
        write_dataset(tmp_path / "ds", n=200, partitions=2)
        # No workers: admitted requests park in the depth-1 queue forever,
        # so the second concurrent request must shed with queue_full.
        with running_server(
            tmp_path / "ds", workers=0, queue_depth=1, request_timeout=1.0
        ) as (_, host, port):
            first_started = threading.Event()
            results = {}

            def park():
                with ServeClient(host, port) as client:
                    first_started.set()
                    results["first"] = client.query(bbox=BBOXES[0])

            blocker = threading.Thread(target=park)
            blocker.start()
            assert first_started.wait(2.0)
            time.sleep(0.1)  # let the first request reach the queue
            with ServeClient(host, port) as client:
                shed = client.query(bbox=BBOXES[0], tenant="other")
            blocker.join(timeout=5)
            assert shed["status"] == "SHED" and shed["reason"] == "queue_full"
            assert results["first"]["status"] == "error"  # server-side timeout

    def test_max_inflight_sheds(self, tmp_path):
        write_dataset(tmp_path / "ds", n=200, partitions=2)
        with running_server(
            tmp_path / "ds",
            workers=0,
            queue_depth=16,
            request_timeout=1.0,
            tenants={"solo": TenantPolicy(rate=1000, burst=100, max_inflight=1)},
        ) as (_, host, port):
            parked = threading.Event()

            def park():
                with ServeClient(host, port) as client:
                    parked.set()
                    client.query(bbox=BBOXES[0], tenant="solo")

            blocker = threading.Thread(target=park)
            blocker.start()
            assert parked.wait(2.0)
            time.sleep(0.1)
            with ServeClient(host, port) as client:
                shed = client.query(bbox=BBOXES[0], tenant="solo")
            blocker.join(timeout=5)
            assert shed["status"] == "SHED" and shed["reason"] == "max_inflight"

    def test_concurrent_tenants_all_correct(self, tmp_path):
        write_dataset(tmp_path / "ds")
        expected = {bbox: one_shot_document(tmp_path / "ds", bbox) for bbox in BBOXES}
        with running_server(tmp_path / "ds", workers=4) as (_, host, port):
            failures = []

            def hammer(tenant, rounds=4):
                with ServeClient(host, port, tenant=tenant) as client:
                    for i in range(rounds):
                        bbox = BBOXES[i % len(BBOXES)]
                        response = client.query(bbox=bbox, time_range=WINDOW)
                        if response["status"] != "ok":
                            failures.append((tenant, response))
                        elif result_document(response) != expected[bbox]:
                            failures.append((tenant, "mismatch", bbox))

            threads = [
                threading.Thread(target=hammer, args=(f"tenant-{i % 2}",))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not failures


# ---------------------------------------------------------------------------
# Invalidation on dataset edits (satellite: generation bumps drop caches)


class TestInvalidation:
    def test_append_bumps_generation_and_drops_caches(self, tmp_path):
        write_dataset(tmp_path / "ds", n=400, partitions=4)
        with running_server(tmp_path / "ds", workers=2) as (server, host, port):
            with ServeClient(host, port) as client:
                bbox = (0.0, 0.0, 10.0, 10.0)
                first = client.query(bbox=bbox)
                again = client.query(bbox=bbox)
                assert again["cached"] is True
                index_entries_before = len(selection_cache())
                assert index_entries_before > 0
                # Edit the dataset behind the server's back.
                StDataset(tmp_path / "ds").append(
                    [[Event.of_point(5.0, 5.0, 1_000.0, data="fresh")]]
                )
                after = client.query(bbox=bbox)
                assert after["generation"] == first["generation"] + 1
                assert after["cached"] is False
                assert after["count"] == first["count"] + 1
            assert server.state.invalidations == 1
            assert server.result_cache.snapshot()["invalidations"] >= 1

    def test_rewrite_in_place_bumps_generation(self, tmp_path):
        events = write_dataset(tmp_path / "ds", n=300, partitions=3)
        with running_server(tmp_path / "ds", workers=2) as (server, host, port):
            with ServeClient(host, port) as client:
                bbox = (0.0, 0.0, 10.0, 10.0)
                first = client.query(bbox=bbox)
                # Repartition in place: same records, new layout → new
                # partition identities, new generation.
                StDataset.write(
                    tmp_path / "ds", [events[i::5] for i in range(5)], "event"
                )
                after = client.query(bbox=bbox)
                assert after["generation"] == first["generation"] + 1
                assert after["cached"] is False
                assert after["count"] == first["count"]
                assert result_document(after) != ""  # answered, not errored
            assert server.state.invalidations == 1

    def test_generation_survives_save_load_and_merge(self, tmp_path):
        write_dataset(tmp_path / "ds", n=100, partitions=2)
        meta = DatasetMetadata.load(tmp_path / "ds")
        assert meta.generation == 0
        ds = StDataset(tmp_path / "ds")
        ds.append([[Event.of_point(1.0, 1.0, 10.0, data="a")]])
        assert DatasetMetadata.load(tmp_path / "ds").generation == 1
        ds.append([[Event.of_point(2.0, 2.0, 20.0, data="b")]])
        assert DatasetMetadata.load(tmp_path / "ds").generation == 2

    def test_append_rdd_bumps_generation(self, tmp_path, ctx):
        write_dataset(tmp_path / "ds", n=100, partitions=2)
        ds = StDataset(tmp_path / "ds")
        extra = ctx.parallelize([Event.of_point(3.0, 3.0, 30.0, data="c")], 1)
        ds.append_rdd(extra)
        assert DatasetMetadata.load(tmp_path / "ds").generation == 1

    def test_ingest_invalidates_resident_daemon(self, tmp_path):
        """A resident daemon observes ``ingest()`` edits: generation bumps,
        caches drop, post-ingest queries answer fresh with the new data,
        and the advanced watermark shows up in ping and stats."""
        write_dataset(tmp_path / "ds", n=400, partitions=4)
        with running_server(tmp_path / "ds", workers=2) as (server, host, port):
            with ServeClient(host, port) as client:
                bbox = (0.0, 0.0, 10.0, 10.0)
                first = client.query(bbox=bbox)
                assert client.query(bbox=bbox)["cached"] is True
                assert client.ping()["watermark"] is None
                # Feed two micro-batches behind the server's back.
                ds = StDataset(tmp_path / "ds")
                ds.ingest(
                    [Event.of_point(5.0, 5.0, 1_000.0, data="b1")],
                )
                ds.ingest(
                    [
                        Event.of_point(6.0, 6.0, 2_000.0, data="b2a"),
                        Event.of_point(7.0, 7.0, 3_000.0, data="b2b"),
                    ],
                )
                after = client.query(bbox=bbox)
                assert after["generation"] == first["generation"] + 2
                assert after["cached"] is False
                assert after["count"] == first["count"] + 3
                # The refresh made the advanced watermark resident too.
                assert client.ping()["watermark"] == 3_000.0
                stats = client.stats()
                assert stats["dataset"]["watermark"] == 3_000.0
                assert stats["dataset"]["generation"] == after["generation"]
            assert server.state.invalidations == 1
            assert server.result_cache.snapshot()["invalidations"] >= 1
