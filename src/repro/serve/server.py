"""The ``repro serve`` daemon: resident state + control plane + transport.

Architecture (one dataset per server)::

    client ── TCP line ──▶ handler thread (socketserver.ThreadingMixIn)
                             │  parse → admission control (token bucket,
                             │  in-flight cap) → bounded priority queue
                             ▼                    │ SHED on any rejection
                       query workers (N threads) ◀┘
                             │  result cache → resident partitions →
                             │  Selector (same filter path as batch)
                             ▼
                       response line back through the handler

What stays resident between queries — the whole point of the daemon,
versus the one-shot CLI that pays all of this per invocation:

* the :class:`~repro.stio.StDataset` handle and its parsed
  :class:`~repro.stio.metadata.DatasetMetadata`;
* decoded partition block lists (:class:`DatasetState`), whose stable
  object identity is what lets the per-partition selection-index cache of
  :mod:`repro.columnar.cache` hit across queries;
* the :class:`~repro.serve.cache.ResultCache`, keyed on canonical
  ``st_query_box`` + dataset generation;
* the engine backend's worker pool (``Backend.prestart()`` at startup).

Invalidation: every query round-trips an ``os.stat`` of the metadata file
(:meth:`DatasetState.refresh`); when an append or re-index bumped the
dataset generation, the resident blocks and selection indexes are dropped
and the result cache's stale generations are swept.  Every request is
metered through :mod:`repro.obs` when a tracer is installed — the same
span/counter machinery batch runs profile with.
"""

from __future__ import annotations

import socketserver
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.columnar.cache import (
    configure_selection_cache,
    invalidate_partition_indexes,
    seed_partition_boxtable,
    selection_cache,
)
from repro.core.selector import Selector
from repro.engine.context import EngineContext
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.protocol import (
    DEFAULT_PRIORITY,
    PROTOCOL_VERSION,
    STATUS_OK,
    canonical_dumps,
    encode_records,
    error_response,
    parse_query_range,
    parse_request,
    query_cache_key,
    shed_response,
)
from repro.serve.queueing import BoundedPriorityQueue
from repro.stio.dataset import StDataset
from repro.stio.metadata import METADATA_FILENAME, DatasetMetadata

#: Queue-pressure shed reason (admission reasons live in serve.admission).
REASON_QUEUE_FULL = "queue_full"


@dataclass
class ServeConfig:
    """Everything the daemon is configured with."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    queue_depth: int = 64
    request_timeout: float = 60.0
    cache_bytes: int = 64 << 20
    index_cache_bytes: int | None = 256 << 20
    index_cache_entries: int = 1024
    max_resident_blocks: int = 4096
    default_tenant: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    index: bool = True
    allow_shutdown: bool = True
    #: "raise" answers queries over an undecodable block with an error;
    #: "quarantine" skips the block (partial answers, counted in stats).
    on_corrupt: str = "raise"


class DatasetState:
    """Resident handles for the served dataset; thread-safe.

    Holds the dataset handle, its parsed metadata, and an LRU of decoded
    partition blocks keyed on filename.  :meth:`refresh` is the
    invalidation edge: a changed metadata file (append bumped the
    generation, a re-index rewrote the directory) drops the resident
    blocks and the process-wide selection-index cache — the block lists'
    identities are about to change, so the old indexes can never hit
    again and would only squat on the byte budget.
    """

    def __init__(
        self,
        directory: str | Path,
        max_resident_blocks: int = 4096,
        on_corrupt: str = "raise",
    ):
        self.dataset = StDataset(directory)
        self.max_resident_blocks = max_resident_blocks
        self.on_corrupt = on_corrupt
        self._lock = threading.Lock()
        self._blocks: dict[str, list] = {}
        self._block_order: list[str] = []
        self.blocks_loaded = 0
        self.block_evictions = 0
        self.blocks_quarantined = 0
        self.refreshes = 0
        self.invalidations = 0
        self.meta: DatasetMetadata = self.dataset.metadata()
        self._meta_sig = self._signature()

    def _signature(self) -> tuple[int, int]:
        stat = (self.dataset.directory / METADATA_FILENAME).stat()
        return (stat.st_mtime_ns, stat.st_size)

    @property
    def generation(self) -> int:
        """The resident metadata's dataset generation."""
        return self.meta.generation

    def refresh(self) -> bool:
        """Re-stat the metadata file; reload + invalidate if it changed.

        Returns True when the dataset changed underneath the server.  The
        stat round-trip is a few microseconds — cheap enough to pay per
        query for the guarantee that a stale answer is never served.
        """
        with self._lock:
            self.refreshes += 1
            signature = self._signature()
            if signature == self._meta_sig:
                return False
            self.meta = self.dataset.metadata()
            self._meta_sig = signature
            self._blocks.clear()
            self._block_order.clear()
            self.invalidations += 1
            invalidate_partition_indexes()
            return True

    def partitions_for(self, spatial, temporal) -> tuple[list[list], int, int]:
        """Resident partition lists overlapping the query range.

        Returns ``(partitions, scanned, total)`` where ``scanned`` is the
        number of partitions surviving metadata pruning — the same
        shortlist a one-shot :meth:`StDataset.read` would deserialize,
        except here previously loaded blocks come from residency.

        Disk reads and block decode happen *outside* the lock (REPRO203:
        a decode can take tens of milliseconds, and every other request
        thread would stall on the lock for the duration).  Two threads
        missing on the same block may both decode it; the second store is
        dropped so all callers share one resident object per filename.

        Each decode also yields a BoxTable whose extent columns are views
        into the mmapped block file; it is seeded into the
        selection-index cache against the *adopted* resident list, so
        the first query over a fresh block already hits the columnar
        index.  Under ``on_corrupt="quarantine"`` an undecodable block
        answers as empty (and is counted, never cached, so a repaired
        file is picked up on the next query).
        """
        with self._lock:
            meta_snapshot = self.meta
            codec = meta_snapshot.codec
            selected = meta_snapshot.select_partitions(spatial, temporal)
            total = len(meta_snapshot.partitions)
            blocks: dict[str, list] = {}
            misses = []
            for meta in selected:
                block = self._blocks.get(meta.filename)
                if block is None:
                    misses.append(meta)
                else:
                    # Touch for LRU recency.
                    self._block_order.remove(meta.filename)
                    self._block_order.append(meta.filename)
                    blocks[meta.filename] = block
        decoded = {
            meta.filename: self.dataset.read_block_indexed(
                meta, codec=codec, on_corrupt=self.on_corrupt
            )
            for meta in misses
        }
        quarantined = {
            meta.filename
            for meta in misses
            if meta.count > 0 and not decoded[meta.filename][0]
        }
        if decoded:
            with self._lock:
                for filename, (block, table) in decoded.items():
                    blocks[filename] = block
                    if filename in quarantined:
                        # Selected partitions always have count > 0, so an
                        # empty decode means the block was quarantined:
                        # answer without it, never cache it — a repaired
                        # file must be re-read next query.
                        self.blocks_quarantined += 1
                        continue
                    if self.meta is not meta_snapshot:
                        # A refresh() swapped the dataset mid-decode; the
                        # answer (built from the old snapshot) is still
                        # consistent, but caching the stale block would
                        # poison the fresh residency set.
                        continue
                    resident = self._blocks.get(filename)
                    if resident is not None:
                        # A concurrent miss decoded it first; keep the
                        # resident object so every caller shares one copy.
                        blocks[filename] = resident
                        continue
                    self._blocks[filename] = block
                    self._block_order.append(filename)
                    self.blocks_loaded += 1
                    if table is not None:
                        # Key the mmapped BoxTable on the list object that
                        # just became resident — exactly the identity the
                        # Selector will probe the cache with.
                        seed_partition_boxtable(block, table)
                    while len(self._block_order) > self.max_resident_blocks:
                        evicted = self._block_order.pop(0)
                        self._blocks.pop(evicted, None)
                        self.block_evictions += 1
        partitions = [blocks[meta.filename] for meta in selected]
        return partitions, len(selected), total

    def resident_blocks(self) -> int:
        """Number of currently resident decoded blocks."""
        with self._lock:
            return len(self._blocks)


class _Pending:
    """One admitted query waiting for (or being processed by) a worker."""

    __slots__ = (
        "request", "tenant", "spatial", "temporal",
        "enqueued", "started_wall", "event", "response",
    )

    def __init__(self, request: dict, tenant: str, spatial, temporal):
        self.request = request
        self.tenant = tenant
        self.spatial = spatial
        self.temporal = temporal
        self.enqueued = time.monotonic()
        self.started_wall = time.time()
        self.event = threading.Event()
        self.response: dict | None = None


class QueryServer:
    """The daemon: resident dataset state + admission + workers + cache."""

    def __init__(
        self,
        directory: str | Path,
        config: ServeConfig | None = None,
        ctx: EngineContext | None = None,
    ):
        self.config = config or ServeConfig()
        self.directory = Path(directory)
        self.ctx = ctx or EngineContext()
        self.state = DatasetState(
            self.directory,
            max_resident_blocks=self.config.max_resident_blocks,
            on_corrupt=self.config.on_corrupt,
        )
        self.result_cache = ResultCache(max_bytes=self.config.cache_bytes)
        self.admission = AdmissionController(
            default=self.config.default_tenant, tenants=self.config.tenants
        )
        self.queue = BoundedPriorityQueue(depth=self.config.queue_depth)
        configure_selection_cache(
            capacity=self.config.index_cache_entries,
            max_bytes=self.config.index_cache_bytes,
        )
        self.started = time.time()
        self._counters_lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self._workers: list[threading.Thread] = []
        self._tcp: _TCPServer | None = None
        self._serving = threading.Event()
        self._stopped = False

    # -- metering -----------------------------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        """Bump a server counter, mirrored to the installed tracer."""
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + value
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.counter(name, value)

    def _trace_request(
        self, pending: _Pending, status: str, queue_wait: float, **args: Any
    ) -> None:
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.add_span(
                "request",
                "serve",
                pending.started_wall,
                time.time(),
                track="serve",
                tenant=pending.tenant,
                status=status,
                queue_wait_seconds=round(queue_wait, 6),
                **args,
            )

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the socket, warm the backend, start the query workers.

        Returns the bound ``(host, port)`` — with ``port=0`` this is how
        the caller learns the ephemeral port.
        """
        if self._tcp is not None:
            raise RuntimeError("server already started")
        # Warm worker residency: spawn the execution pool now so the first
        # query doesn't pay process/thread startup.
        self.ctx.backend.prestart()
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-query-{i}", daemon=True
            )
            thread.start()
            self._workers.append(thread)
        self._tcp = _TCPServer((self.config.host, self.config.port), _Handler, self)
        self._serving.set()
        return self._tcp.server_address[0], self._tcp.server_address[1]

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` (or a shutdown op)."""
        if self._tcp is None:
            self.start()
        try:
            self._tcp.serve_forever(poll_interval=0.1)
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut down the transport, the workers, and the engine backend."""
        if self._stopped:
            return
        self._stopped = True
        self._serving.clear()
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self.queue.close()
        for thread in self._workers:
            thread.join(timeout=2.0)
        self.ctx.stop()

    def __enter__(self) -> "QueryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- request handling (called from handler threads) -----------------------------

    def handle_line(self, line: str) -> tuple[str, bool]:
        """Process one request line; returns ``(response_line, keep_open)``."""
        try:
            request = parse_request(line)
        except ValueError as exc:
            self._count("serve_errors")
            return canonical_dumps(error_response(None, str(exc))), True
        op = request.get("op")
        request_id = request.get("id")
        try:
            if op == "query":
                return canonical_dumps(self._handle_query(request)), True
            if op == "ping":
                return canonical_dumps(self._handle_ping(request_id)), True
            if op == "stats":
                return canonical_dumps(self._handle_stats(request_id)), True
            if op == "shutdown":
                return self._handle_shutdown(request_id)
            self._count("serve_errors")
            return (
                canonical_dumps(error_response(request_id, f"unknown op {op!r}")),
                True,
            )
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            self._count("serve_errors")
            return (
                canonical_dumps(
                    error_response(request_id, f"{type(exc).__name__}: {exc}")
                ),
                True,
            )

    def _handle_query(self, request: dict) -> dict:
        tenant = str(request.get("tenant", "default"))
        request_id = request.get("id")
        self._count("serve_requests")
        self._count(f"serve_requests[{tenant}]")
        try:
            spatial, temporal = parse_query_range(request)
        except ValueError as exc:
            self._count("serve_errors")
            return error_response(request_id, str(exc))
        pending = _Pending(request, tenant, spatial, temporal)
        reason = self.admission.admit(tenant)
        if reason is not None:
            return self._shed(pending, reason)
        priority = request.get("priority", DEFAULT_PRIORITY)
        try:
            priority = int(priority)
        except (TypeError, ValueError):
            priority = DEFAULT_PRIORITY
        if not self.queue.offer(pending, priority):
            self.admission.release(tenant)
            return self._shed(pending, REASON_QUEUE_FULL)
        if not pending.event.wait(self.config.request_timeout):
            # The worker will still complete (and release admission); the
            # client just stops waiting.
            self._count("serve_timeouts")
            return error_response(request_id, "request timed out server-side")
        return pending.response

    def _shed(self, pending: _Pending, reason: str) -> dict:
        self._count("serve_shed")
        self._count(f"serve_shed_{reason}")
        self._count(f"serve_shed[{pending.tenant}]")
        self._trace_request(pending, "SHED", 0.0, reason=reason)
        return shed_response(pending.request.get("id"), reason, pending.tenant)

    # -- query execution (worker threads) -------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            pending = self.queue.take(timeout=0.2)
            if pending is None:
                if self._stopped:
                    return
                continue
            try:
                pending.response = self._execute(pending)
            except Exception as exc:  # noqa: BLE001 - answer, don't die
                self._count("serve_errors")
                pending.response = error_response(
                    pending.request.get("id"), f"{type(exc).__name__}: {exc}"
                )
            finally:
                self.admission.release(pending.tenant)
                pending.event.set()

    def _execute(self, pending: _Pending) -> dict:
        queue_wait = time.monotonic() - pending.enqueued
        self._count("serve_queue_wait_seconds", round(queue_wait, 6))
        started = time.monotonic()
        if self.state.refresh():
            self._count("serve_invalidations")
            self.result_cache.drop_stale_generations(self.state.generation)
        generation = self.state.generation
        key = query_cache_key(pending.spatial, pending.temporal, generation)
        cached = self.result_cache.get(key)
        if cached is not None:
            self._count("serve_cache_hits")
            self._trace_request(
                pending, STATUS_OK, queue_wait, cache_hit=True, records=cached.count
            )
            return self._ok(pending, cached, generation, queue_wait, started, True)
        self._count("serve_cache_misses")
        partitions, scanned, total = self.state.partitions_for(
            pending.spatial, pending.temporal
        )
        self._count("serve_partitions_scanned", scanned)
        self._count("serve_partitions_pruned", total - scanned)
        selector = Selector(
            pending.spatial,
            pending.temporal,
            index=self.config.index,
        )
        # copy=False keeps the resident lists' identity, so the
        # per-partition selection-index cache hits on repeat visits.
        rdd = self.ctx.from_partitions(partitions, copy=False)
        instances = selector.select(self.ctx, rdd).collect()
        records = encode_records(instances)
        entry = CachedResult(
            records=records,
            count=len(records),
            nbytes=len(canonical_dumps(records)),
            generation=generation,
        )
        self.result_cache.put(key, entry)
        self._trace_request(
            pending,
            STATUS_OK,
            queue_wait,
            cache_hit=False,
            records=entry.count,
            partitions_scanned=scanned,
        )
        return self._ok(pending, entry, generation, queue_wait, started, False)

    def _ok(
        self,
        pending: _Pending,
        entry: CachedResult,
        generation: int,
        queue_wait: float,
        started: float,
        cached: bool,
    ) -> dict:
        return {
            "id": pending.request.get("id"),
            "status": STATUS_OK,
            "tenant": pending.tenant,
            "count": entry.count,
            "records": entry.records,
            "cached": cached,
            "generation": generation,
            "queue_ms": round(queue_wait * 1e3, 3),
            "exec_ms": round((time.monotonic() - started) * 1e3, 3),
        }

    # -- control ops ----------------------------------------------------------------

    def _handle_ping(self, request_id: Any) -> dict:
        return {
            "id": request_id,
            "status": STATUS_OK,
            "protocol": PROTOCOL_VERSION,
            "dataset": str(self.directory),
            "generation": self.state.generation,
            "watermark": self.state.meta.watermark,
        }

    def _handle_stats(self, request_id: Any) -> dict:
        index_cache = selection_cache()
        with self._counters_lock:
            counters = {
                k: v for k, v in self.counters.items() if "[" not in k
            }
        return {
            "id": request_id,
            "status": STATUS_OK,
            "uptime_seconds": round(time.time() - self.started, 3),
            "backend": self.ctx.backend_name,
            "counters": counters,
            "result_cache": self.result_cache.snapshot(),
            "index_cache": {
                "entries": len(index_cache),
                "bytes": index_cache.bytes,
                "max_bytes": index_cache.max_bytes,
                "hits": index_cache.hits,
                "misses": index_cache.misses,
                "evictions": index_cache.evictions,
            },
            "tenants": self.admission.snapshot(),
            "queue": {
                "depth": len(self.queue),
                "max_depth": self.queue.depth,
                "peak_depth": self.queue.peak_depth,
                "rejected": self.queue.rejected,
            },
            "dataset": {
                "generation": self.state.generation,
                "watermark": self.state.meta.watermark,
                "partitions": len(self.state.meta.partitions),
                "records": self.state.meta.total_records,
                "resident_blocks": self.state.resident_blocks(),
                "blocks_loaded": self.state.blocks_loaded,
                "blocks_quarantined": self.state.blocks_quarantined,
                "invalidations": self.state.invalidations,
            },
        }

    def _handle_shutdown(self, request_id: Any) -> tuple[str, bool]:
        if not self.config.allow_shutdown:
            self._count("serve_errors")
            return (
                canonical_dumps(
                    error_response(request_id, "shutdown disabled on this server")
                ),
                True,
            )
        # Acknowledge first; the handler flushes the line before the
        # transport goes down (stop() runs from a helper thread because
        # TCPServer.shutdown blocks until serve_forever exits).
        threading.Thread(target=self.stop, name="serve-shutdown", daemon=True).start()
        return canonical_dumps({"id": request_id, "status": STATUS_OK, "bye": True}), False


class _TCPServer(socketserver.ThreadingTCPServer):
    """Threading TCP server wired to a :class:`QueryServer`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], handler, query_server: QueryServer):
        self.query_server = query_server
        super().__init__(address, handler)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: loop reading request lines until EOF."""

    def handle(self) -> None:
        server: QueryServer = self.server.query_server
        while True:
            try:
                raw = self.rfile.readline()
            except (ConnectionError, OSError):
                return
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            response_line, keep_open = server.handle_line(line)
            try:
                self.wfile.write(response_line.encode("utf-8") + b"\n")
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if not keep_open:
                return
