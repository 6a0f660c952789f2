"""The serve daemon: admission, queueing, caching, parity, invalidation."""

from __future__ import annotations

import json
import os
import pickle
import socket
import statistics
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import Selector
from repro.engine import EngineContext
from repro.geometry import Envelope, Point, Polygon
from repro.instances import Entry, Event, Trajectory
from repro.partitioners import TSTRPartitioner
from repro.serve import (
    AdmissionController,
    BoundedPriorityQueue,
    CachedResult,
    DatasetState,
    QueryServer,
    ResultCache,
    ServeClient,
    ServeConfig,
    TenantPolicy,
    TokenBucket,
    wait_until_ready,
)
from repro.serve.protocol import (
    canonical_dumps,
    parse_query_range,
    parse_request,
    query_cache_key,
    records_document,
    records_fragment,
    result_document,
    spliced_dumps,
)
from repro.serve.server import MAX_REQUEST_LINE_BYTES, BlockMovedError
from repro.stio import StDataset
from repro.stio.formats import decode_record, encode_record
from repro.stio.metadata import DatasetMetadata
from repro.temporal import Duration
from tests import reference
from tests.conftest import make_events, make_trajectories


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
    return CachedResult(records="x" * nbytes, count=0, generation=generation)


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
        """Eight connections on four workers, hits answered on the handler
        threads, under a shortened switch interval: every answer right and
        every admission released."""
        write_dataset(tmp_path / "ds")
        expected = {bbox: one_shot_document(tmp_path / "ds", bbox) for bbox in BBOXES}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with running_server(tmp_path / "ds", workers=4) as (server, host, port):
                self._hammer(host, port, expected)
                tenants = server.admission.snapshot()
        finally:
            sys.setswitchinterval(interval)
        assert {t: (s["inflight"], s["admitted"]) for t, s in tenants.items()} == {
            "tenant-0": (0, 16), "tenant-1": (0, 16)
        }
        assert all(s["completed"] == s["admitted"] for s in tenants.values())

    @staticmethod
    def _hammer(host, port, expected):
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
        assert not any(t.is_alive() for t in threads)
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
                resident_before = server.state.resident_blocks()
                assert resident_before > 0
                # Edit the dataset behind the server's back.
                StDataset(tmp_path / "ds").append(
                    [[Event.of_point(5.0, 5.0, 1_000.0, data="fresh")]]
                )
                after = client.query(bbox=bbox)
                assert after["generation"] == first["generation"] + 1
                assert after["cached"] is False
                assert after["count"] == first["count"] + 1
                # Block names are never reused: the refresh kept every
                # resident block, and the query loaded only the new one.
                assert server.state.resident_blocks() == resident_before + 1
                assert server.state.blocks_loaded == resident_before + 1
            assert server.state.invalidations == 1
            assert server.result_cache.snapshot()["invalidations"] >= 1

    def test_ingest_keeps_surviving_blocks_resident(self, tmp_path):
        """A query over old data after an ingest loads no block, and
        answers as the one-shot ``Selector`` does."""
        directory = tmp_path / "ds"
        ds = StDataset(directory)
        ds.ingest(make_events(300, t_extent=1_000.0), TSTRPartitioner(1, 4), instance_type="event")
        state = DatasetState(directory)
        old = (Envelope(0.0, 0.0, 10.0, 10.0), Duration(0.0, 1_000.0))
        state.select(*old)
        loaded = state.blocks_loaded
        assert loaded == 4
        later = [Event.of_point(e.spatial.x, e.spatial.y, e.temporal.start + 5_000.0, data=e.data)
                 for e in make_events(200)]
        ds.ingest(later, TSTRPartitioner(1, 2))
        assert state.refresh()
        got, scanned, total = state.select(*old)
        assert (state.blocks_loaded, scanned, total) == (loaded, 4, 6)
        ctx = EngineContext(default_parallelism=2)
        expected = records_document(Selector(*old).select(ctx, directory).collect())
        assert spliced_dumps({"count": got.count}, "records", got.records) == expected

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


# ---------------------------------------------------------------------------
# Hostile and unusual request lines (the daemon's input, not its protocol)


def _raw_lines(host, port, *lines: bytes) -> list:
    """Send ``lines`` on one raw connection; the decoded response lines."""
    with socket.create_connection((host, port), timeout=10) as sock:
        reader = sock.makefile("rb")
        responses = []
        for line in lines:
            sock.sendall(line + b"\n")
            responses.append(json.loads(reader.readline()))
        return responses


class TestRequestInput:
    def test_overlong_line_is_refused_without_buffering_it(self, tmp_path):
        write_dataset(tmp_path / "ds", n=200, partitions=2)
        flood = b"x" * (32 * MAX_REQUEST_LINE_BYTES)  # allocated before tracing
        with running_server(tmp_path / "ds", workers=1) as (_, host, port):
            tracemalloc.start()
            try:
                with socket.create_connection((host, port), timeout=10) as sock:

                    def send():
                        try:
                            sock.sendall(flood)  # no newline, ever
                        except OSError:
                            pass  # the daemon hung up mid-line, as it should

                    sender = threading.Thread(target=send, daemon=True)
                    sender.start()
                    reader = sock.makefile("rb")
                    response = json.loads(reader.readline())
                    try:
                        rest = reader.readline()
                    except ConnectionResetError:
                        rest = b""
                    sender.join(timeout=10)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert response["status"] == "error"
            assert f"longer than {MAX_REQUEST_LINE_BYTES} bytes" in response["error"]
            assert rest == b""  # the daemon closed the connection
            # What the daemon buffered is bounded by the cap, not the line.
            assert peak < 4 * MAX_REQUEST_LINE_BYTES
            with ServeClient(host, port) as client:
                other = client.query(bbox=BBOXES[0], time_range=WINDOW)
            assert result_document(other) == one_shot_document(tmp_path / "ds", BBOXES[0])

    def test_line_at_the_cap_is_answered(self, tmp_path):
        write_dataset(tmp_path / "ds", n=200, partitions=2)
        ping = b'{"op":"ping"}'
        padded = ping + b" " * (MAX_REQUEST_LINE_BYTES - len(ping) - 1)
        with running_server(tmp_path / "ds", workers=1) as (_, host, port):
            [response] = _raw_lines(host, port, padded)
        assert response["status"] == "ok" and response["protocol"] >= 1

    def test_unbounded_range_answers_like_one_shot(self, tmp_path, capsys):
        """``1e999`` is standard JSON for ``inf``; the daemon answers it as
        ``repro select --time 0 1e999`` does, and caches it."""
        write_dataset(tmp_path / "ds", n=400, partitions=4)
        argv = ["select", str(tmp_path / "ds"), "--time", "0", "1e999", "--format", "json"]
        assert cli_main(argv) == 0
        cli_doc = capsys.readouterr().out.strip()
        line = b'{"op":"query","id":1,"time":[0,1e999]}'
        with running_server(tmp_path / "ds", workers=1) as (_, host, port):
            first, again = _raw_lines(host, port, line, line)
        assert first["status"] == "ok" and first["count"] == 400
        assert result_document(first) == cli_doc
        assert again["cached"] is True and result_document(again) == cli_doc


# ---------------------------------------------------------------------------
# The daemon's selection: resident blocks vs the oracle


def test_trajectory_parity_with_selector(tmp_path):
    """Trajectories take the exact refinement on the daemon too: served bytes
    equal ``records_document(Selector.select(...))``."""
    trajs = make_trajectories(120)
    StDataset.write(tmp_path / "ds", [trajs[i::4] for i in range(4)], "trajectory")
    bbox, window = (2.0, 2.0, 6.0, 6.0), (10_000.0, 60_000.0)
    expected = one_shot_document(tmp_path / "ds", bbox, window)
    assert 0 < json.loads(expected)["count"] < len(trajs)
    with running_server(tmp_path / "ds", workers=2) as (_, host, port):
        with ServeClient(host, port) as client:
            response = client.query(bbox=bbox, time_range=window)
    assert result_document(response) == expected


#: Binary-exact lattice: every coordinate and bound is a multiple of 1/2,
#: so boxes touch records' faces exactly.
lattice = st.integers(0, 12).map(lambda k: k / 2)
steps = st.integers(0, 4).map(lambda k: k / 2)
sides = st.integers(1, 4).map(lambda k: k / 2)


@st.composite
def lattice_record(draw):
    """``data → record``: one record on the lattice, its payload left open."""
    x, y, t = draw(lattice), draw(lattice), draw(lattice)
    kind = draw(st.sampled_from(["point", "envelope", "polygon", "trajectory", "interval"]))
    if kind == "point":
        return lambda i: Event.of_point(x, y, t, data=i)
    if kind == "envelope":
        dx, dy, dt = draw(steps), draw(steps), draw(steps)
        return lambda i: Event(Envelope(x, y, x + dx, y + dy), Duration(t, t + dt), data=i)
    if kind == "polygon":
        ring = [(x, y), (x + draw(sides), y), (x, y + draw(sides))]
        dt, value = draw(steps), draw(lattice)
        return lambda i: Event(Polygon(ring), Duration(t, t + dt), value, data=i)
    entries = []
    for _ in range(draw(st.integers(2, 4))):
        end = t + (draw(steps) if kind == "interval" else 0.0)
        entries.append(Entry(Point(x, y), Duration(t, end), draw(st.none() | lattice)))
        x, y, t = draw(lattice), draw(lattice), end + 0.5 + draw(steps)
    return lambda i: Trajectory(entries, data=i)


#: ``data`` payloads: anything JSON writes, tuples included, and the
#: non-finite floats it refuses.
payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def query_range(draw):
    bounded = draw(st.sampled_from(["both", "spatial", "temporal"]))
    spatial = temporal = None
    if bounded != "temporal":
        x, y = draw(lattice), draw(lattice)
        spatial = Envelope(x, y, x + draw(lattice), y + draw(lattice))
    if bounded != "spatial":
        t = draw(lattice)
        temporal = Duration(t, t + draw(lattice))
    return spatial, temporal


def served_document(state, spatial, temporal) -> str:
    """The result document of ``state.select``, spliced as the daemon does."""
    answer, _, _ = state.select(spatial, temporal)
    return spliced_dumps({"count": answer.count}, "records", answer.records)


class TestByteContract:
    """The daemon never encodes a record per query: it renders stored rows
    once and splices documents from the fragments.  Both must give the
    bytes ``canonical_dumps`` of the whole object gives."""

    @staticmethod
    def _render(obj):
        try:
            return canonical_dumps(obj)
        except ValueError as exc:
            return repr(exc)

    @given(lattice_record(), payloads)
    @settings(max_examples=200, deadline=None)
    def test_stored_tuple_renders_as_its_instance(self, make, payload):
        """Byte for byte, or the same error (a non-finite float)."""
        stored = pickle.loads(pickle.dumps(encode_record(make(payload))))
        assert self._render(stored) == self._render(encode_record(decode_record(stored)))

    @given(
        st.none() | st.integers() | st.text() | st.text(alphabet="äö→€😀\"\\", min_size=1),
        st.text(),
        st.lists(lattice_record(), max_size=4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_spliced_response_is_its_canonical_dump(self, request_id, tenant, makers, cached):
        records = [encode_record(make(i)) for i, make in enumerate(makers)]
        header = {
            "id": request_id, "status": "ok", "tenant": tenant, "count": len(records),
            "cached": cached, "generation": 3, "queue_ms": 0.0, "exec_ms": 0.125,
        }
        fragment = records_fragment([canonical_dumps(r) for r in records])
        assert fragment == canonical_dumps(records)
        line = spliced_dumps(header, "records", fragment)
        assert line == canonical_dumps({**header, "records": records})
        assert spliced_dumps({"count": len(records)}, "records", fragment) == records_document(
            [make(i) for i, make in enumerate(makers)]
        )


class TestResidentSelection:
    """``DatasetState.select`` — the daemon's whole selection, no socket —
    against ``tests/reference.select``: the same document bytes."""

    @given(
        st.lists(lattice_record(), min_size=1, max_size=24),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_cold_resident_and_quarantined(self, makers, k, data):
        records = [make(i) for i, make in enumerate(makers)]
        owner = data.draw(st.lists(st.integers(0, k - 1), min_size=len(records), max_size=len(records)))
        blocks = [[r for r, b in zip(records, owner) if b == j] for j in range(k)]
        queries = data.draw(st.lists(query_range(), min_size=1, max_size=3))
        lost = data.draw(st.integers(0, k - 1))
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "ds"
            StDataset.write(directory, blocks, "event")
            state = DatasetState(directory)
            in_block_order = [r for block in blocks for r in block]
            for spatial, temporal in queries:
                expected = records_document(reference.select(in_block_order, spatial, temporal))
                for _ in ("cold", "resident"):
                    assert served_document(state, spatial, temporal) == expected
            # One block unreadable: a new file under its name (the first
            # state's map keeps the old inode), answered without it.
            path = directory / state.meta.partitions[lost].filename
            path.with_name("bad.tmp").write_bytes(b"bad")
            os.replace(path.with_name("bad.tmp"), path)
            survivors = [r for j, block in enumerate(blocks) if j != lost for r in block]
            quarantining = DatasetState(directory, on_corrupt="quarantine")
            for spatial, temporal in queries:
                expected = records_document(reference.select(survivors, spatial, temporal))
                for _ in ("cold", "resident"):
                    assert served_document(quarantining, spatial, temporal) == expected


def _three_ingests(directory) -> list:
    events = make_events(1_500, t_extent=3_000.0)
    events.sort(key=lambda e: e.temporal.start)
    ds = StDataset(directory)
    for i in range(3):
        ds.ingest(events[i * 500 : (i + 1) * 500], TSTRPartitioner(2, 2), instance_type="event")
    return events


class TestCommitRace:
    """A commit that unlinks blocks between the daemon's ``refresh()`` and
    its read of them is not corruption: the query refreshes and selects
    once more."""

    @pytest.mark.parametrize("on_corrupt", ["raise", "quarantine"])
    def test_compaction_after_refresh_answers_every_row(self, tmp_path, on_corrupt):
        directory = tmp_path / "ds"
        events = _three_ingests(directory)
        state = DatasetState(directory, on_corrupt=on_corrupt)
        assert state.resident_blocks() == 0
        StDataset(directory).compact()
        everything = (Envelope(0.0, 0.0, 10.0, 10.0), None)
        document = served_document(state, *everything)
        assert json.loads(document)["count"] == len(events)
        ctx = EngineContext(default_parallelism=2)
        assert document == records_document(Selector(*everything).select(ctx, directory).collect())
        assert state.blocks_quarantined == 0

    def test_a_second_move_is_an_error(self, tmp_path, monkeypatch):
        directory = tmp_path / "ds"
        _three_ingests(directory)
        state = DatasetState(directory, on_corrupt="quarantine")
        refresh = state.refresh

        def refresh_then_commit():
            moved = refresh()
            StDataset(directory).compact()  # moves again before the re-select reads
            return moved

        StDataset(directory).compact()
        monkeypatch.setattr(state, "refresh", refresh_then_commit)
        with pytest.raises(BlockMovedError):
            state.select(Envelope(0.0, 0.0, 10.0, 10.0), None)
        assert state.blocks_quarantined == 0


class TestRowRenderErrors:
    """A row that JSON cannot hold (a NaN value) fails only the queries
    that select it, as ``repro select --format json`` does; its block
    still loads, and the error is never cached."""

    def test_nan_row_is_its_own_queries_error(self, tmp_path):
        fine = Event.of_point(1.0, 1.0, 10.0, data="fine")
        bad = Event.of_point(8.0, 8.0, 10.0, value=float("nan"), data="bad")
        StDataset.write(tmp_path / "ds", [[fine, bad]], "event")
        near_fine, near_bad = (0.0, 0.0, 2.0, 2.0), (7.0, 7.0, 9.0, 9.0)
        with running_server(tmp_path / "ds", workers=1, on_corrupt="quarantine") as (
            server, host, port,
        ):
            with ServeClient(host, port) as client:
                for _ in ("cold", "resident"):
                    failed = client.query(bbox=near_bad)
                    assert failed["status"] == "error"
                    assert failed["error"].startswith(
                        "ValueError: Out of range float values are not JSON compliant"
                    )
                    answered = client.query(bbox=near_fine)
                    assert answered["status"] == "ok"
                    assert result_document(answered) == records_document([fine])
                assert client.query(bbox=near_bad)["status"] == "error"
            assert server.state.blocks_loaded == 1
            assert server.state.blocks_quarantined == 0
            assert len(server.result_cache) == 1  # only the fine answer


class TestProtocolFuzz:
    """Hostile lines and connections against a cached and an uncached
    range: admission is released on every exit path."""

    QUERY = '{{"op":"query","id":{id},"tenant":"fuzz","bbox":{bbox}}}'

    def _send(self, host, port, payload: bytes, half_close=False, read=True):
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            if read:
                return sock.makefile("rb").readline()
        return None

    def test_every_exit_path_releases_admission(self, tmp_path):
        write_dataset(tmp_path / "ds", n=400, partitions=4)
        cached_box, uncached_box = list(BBOXES[0]), list(BBOXES[1])
        with running_server(tmp_path / "ds", workers=2) as (server, host, port):
            with ServeClient(host, port, tenant="fuzz") as client:
                assert client.query(bbox=cached_box)["status"] == "ok"
            for n, bbox in enumerate([cached_box, uncached_box]):
                query = self.QUERY.format(id=n, bbox=json.dumps(bbox)).encode()
                for line in (query[:-5], b"[1,2]", b'"query"', b'{"op":"query","id":'):
                    reply = json.loads(self._send(host, port, line + b"\n"))
                    assert reply["status"] == "error"
                invalid_utf8 = query.replace(b'"fuzz"', b'"fu\xffzz"')
                reply = self._send(host, port, invalid_utf8 + b"\n")
                assert json.loads(reply)["status"] == "ok"  # decoded with replacement
                # Half-closed mid-line: a truncated line, then a whole
                # request with no newline; each is answered, then EOF.
                reply = self._send(host, port, query[:10], half_close=True)
                assert json.loads(reply)["status"] == "error"
                reply = self._send(host, port, query, half_close=True)
                assert canonical_dumps(json.loads(reply)) == reply.decode().rstrip("\n")
                # Gone before its answer.
                self._send(host, port, query + b"\n", read=False)
            deadline = time.monotonic() + 10
            with ServeClient(host, port) as client:
                while True:
                    tenants = client.stats()["tenants"]
                    if all(t["inflight"] == 0 for t in tenants.values()):
                        break
                    assert time.monotonic() < deadline, tenants
                    time.sleep(0.02)
                assert tenants["fuzz"]["admitted"] == tenants["fuzz"]["completed"]
                assert client.query(bbox=uncached_box)["status"] == "ok"
