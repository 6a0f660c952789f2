"""The ``repro serve`` daemon: resident state + control plane + transport.

Architecture (one dataset per server)::

    client ── TCP line ──▶ handler thread (socketserver.ThreadingMixIn)
                             │  bounded read → parse → admission control
                             │  (token bucket, in-flight cap) → refresh →
                             │  result cache: a hit's line is spliced and
                             ▼  answered right here   │ SHED on any rejection
                       bounded priority queue ◀───────┘ (misses only)
                             ▼
                       query workers (N threads): resident blocks →
                             │  extent-column selection (select_candidates)
                             ▼  → joined row fragments, cached
                       response line back through the handler

What stays resident between queries — the whole point of the daemon,
versus the one-shot CLI that pays all of this per invocation:

* the :class:`~repro.stio.StDataset` handle and its parsed
  :class:`~repro.stio.metadata.DatasetMetadata`;
* the blocks (:class:`DatasetState`): each one's mmapped
  :class:`~repro.stio.blockv2.V2Block`, whose extent columns a query
  masks, every row's canonical JSON fragment, rendered once when the
  block loads, which the surviving row indices pick, and a decoded
  instance only for the rows the exact test needs;
* the :class:`~repro.serve.cache.ResultCache` of rendered ``records``
  arrays, keyed on the canonical ``st_query_box`` + dataset generation.

No record is encoded per query: a miss joins fragments, a hit and a
miss alike splice the array into the response line.  A miss runs on a
worker thread with no engine context, stage or R-tree — the same kernel
and refinement a fused scan and a pushdown read use.

Invalidation: every query round-trips an ``os.stat`` of the metadata file
(:meth:`DatasetState.refresh`); when an append or re-index bumped the
dataset generation, the resident blocks are dropped and the result
cache's stale generations are swept.  Every request is metered through
:mod:`repro.obs` when a tracer is installed — the same span/counter
machinery batch runs profile with.
"""

from __future__ import annotations

import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.selector import select_candidates
from repro.engine.errors import CorruptPartitionError
from repro.index.boxes import st_query_box
from repro.obs.tracer import current_tracer
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.protocol import (
    DEFAULT_PRIORITY,
    PROTOCOL_VERSION,
    STATUS_OK,
    canonical_dumps,
    error_response,
    parse_query_range,
    parse_request,
    query_cache_key,
    records_fragment,
    shed_response,
    spliced_dumps,
)
from repro.serve.queueing import BoundedPriorityQueue
from repro.stio.blockv2 import open_v2_block
from repro.stio.dataset import StDataset
from repro.stio.formats import decode_record, encode_record
from repro.stio.metadata import METADATA_FILENAME, DatasetMetadata

#: Queue-pressure shed reason (admission reasons live in serve.admission).
REASON_QUEUE_FULL = "queue_full"

#: Longest request line a connection may send, newline included; a longer
#: one is answered with an error and the connection closed, so no client
#: makes the daemon buffer more than this.
MAX_REQUEST_LINE_BYTES = 1 << 20


@dataclass
class ServeConfig:
    """Everything the daemon is configured with."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    queue_depth: int = 64
    request_timeout: float = 60.0
    cache_bytes: int = 64 << 20
    max_resident_blocks: int = 4096
    default_tenant: TenantPolicy = field(default_factory=TenantPolicy)
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    allow_shutdown: bool = True
    #: "raise" answers queries over an undecodable block with an error;
    #: "quarantine" skips the block (partial answers, counted in stats).
    on_corrupt: str = "raise"


class BlockMovedError(RuntimeError):
    """A block left the manifest while a query was reading it (a commit
    unlinked it after the query's snapshot): not corruption."""


class DatasetState:
    """Resident handles for the served dataset; thread-safe.

    Holds the dataset handle, its parsed metadata, and an LRU of resident
    blocks keyed on filename: each one's mmapped
    :class:`~repro.stio.blockv2.V2Block`, every row's canonical JSON
    fragment, and a decoded instance for just the rows the box test
    cannot decide (none, for point events).
    :meth:`refresh` is the invalidation edge: a changed metadata file
    (an append, a compaction, a re-index) drops the resident blocks whose
    names left the manifest.  Block names are never reused, so a name
    that survives still holds the rows resident under it.
    """

    def __init__(self, directory: str | Path, max_resident_blocks: int = 4096,
                 on_corrupt: str = "raise"):
        self.dataset = StDataset(directory)
        self.max_resident_blocks = max_resident_blocks
        self.on_corrupt = on_corrupt
        self._lock = threading.Lock()
        self._blocks: OrderedDict[str, tuple] = OrderedDict()
        self.blocks_loaded = 0
        self.blocks_quarantined = 0
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
            signature = self._signature()
            if signature == self._meta_sig:
                return False
            self.meta = self.dataset.metadata()
            self._meta_sig = signature
            live = {p.filename for p in self.meta.partitions}
            for filename in [f for f in self._blocks if f not in live]:
                del self._blocks[filename]
            self.invalidations += 1
            return True

    def _load(self, meta, codec: str) -> tuple | None:
        """``(block, fragments, inexact)``: the mapped block, each row's
        canonical JSON (or the error rendering it raised, for the queries
        that select the row) and ``{row: instance}`` of the rows the box
        test cannot decide; ``None`` when quarantined."""
        try:
            block = open_v2_block(self.dataset.directory / meta.filename)
            rows = block.load_rows(range(block.n))
            inexact = {
                r: decode_record(rows[r]) if codec == "tuple" else rows[r]
                for r in np.flatnonzero(~(block.box_exact & block.filterable)).tolist()
            }
        except Exception as exc:
            if isinstance(exc, FileNotFoundError) and meta.filename not in {
                p.filename for p in DatasetMetadata.load(self.dataset.directory).partitions
            }:
                raise BlockMovedError(f"{meta.filename} left the manifest mid-query") from exc
            if self.on_corrupt == "quarantine":
                return None
            raise CorruptPartitionError(meta.filename, repr(exc)) from exc
        fragments: list = []
        for row in rows:
            try:
                fragments.append(canonical_dumps(row if codec == "tuple" else encode_record(row)))
            except (TypeError, ValueError) as exc:  # the row's own queries answer it
                fragments.append(exc.with_traceback(None))
        return block, fragments, inexact

    def resident(self, spatial, temporal) -> tuple[list[tuple], int, int, int]:
        """``(blocks, scanned, total, generation)``: the resident entries
        (:meth:`_load`) of the partitions metadata pruning keeps, in
        metadata order, and the generation of that metadata snapshot.

        ``scanned`` counts the surviving partitions — the shortlist a
        one-shot :meth:`StDataset.read` would open — and ``total`` all of
        them.  Loads happen *outside* the lock (REPRO203: one can take tens
        of milliseconds); of two concurrent loads of a block the first
        store wins, so callers share one entry per filename.  Under
        ``on_corrupt="quarantine"`` an undecodable block is left out
        (counted, never cached, so a repaired file is picked up later).
        """
        with self._lock:
            meta_snapshot = self.meta
            selected = meta_snapshot.select_partitions(spatial, temporal)
            total = len(meta_snapshot.partitions)
            found: dict[str, tuple] = {}
            misses = []
            for meta in selected:
                entry = self._blocks.get(meta.filename)
                if entry is None:
                    misses.append(meta)
                else:
                    self._blocks.move_to_end(meta.filename)
                    found[meta.filename] = entry
        loaded = {meta.filename: self._load(meta, meta_snapshot.codec) for meta in misses}
        if loaded:
            with self._lock:
                for filename, entry in loaded.items():
                    if entry is None:
                        self.blocks_quarantined += 1
                    elif self.meta is not meta_snapshot:
                        # A refresh() swapped the dataset mid-load: the old
                        # snapshot's answer is consistent, but its blocks
                        # must not enter the fresh residency set.
                        found[filename] = entry
                    else:
                        # A concurrent miss may have stored it first: every
                        # caller shares the one resident entry.
                        found[filename] = self._blocks.setdefault(filename, entry)
                        if found[filename] is entry:
                            self.blocks_loaded += 1
                            while len(self._blocks) > self.max_resident_blocks:
                                self._blocks.popitem(last=False)
        blocks = [found[m.filename] for m in selected if m.filename in found]
        return blocks, len(selected), total, meta_snapshot.generation

    def select(self, spatial, temporal) -> tuple[CachedResult, int, int]:
        """``(answer, scanned, total)`` of an ST-range query.

        ``answer.records`` renders what ``Selector.select`` returns from
        the directory with no partitioner, in order: per block
        ``candidate_rows`` on the extent columns, then
        :func:`~repro.core.selector.select_candidates` over the candidates
        the box test does not decide, their fragments joined.  A block a
        commit unlinked since the snapshot makes it refresh and select
        once more; a second move raises :class:`BlockMovedError`.  A
        selected row that did not render raises its error.
        """
        try:
            blocks, scanned, total, generation = self.resident(spatial, temporal)
        except BlockMovedError:
            self.refresh()
            blocks, scanned, total, generation = self.resident(spatial, temporal)
        box = st_query_box(spatial, temporal)
        chosen: list = []
        for block, fragments, inexact in blocks:
            rows = block.candidate_rows(box).tolist()
            if inexact:
                tested = [inexact[r] for r in rows if r in inexact]
                exact = np.zeros(len(tested), dtype=bool)
                kept = set(map(id, select_candidates(tested, exact, spatial, temporal)))
                rows = [r for r in rows if r not in inexact or id(inexact[r]) in kept]
            chosen += map(fragments.__getitem__, rows)
        try:
            records = records_fragment(chosen)
        except TypeError:  # a row that did not render: the first one answers
            records = None
        if records is None:
            raise next(f for f in chosen if not isinstance(f, str)).with_traceback(None)
        return CachedResult(records, len(chosen), generation), scanned, total

    def resident_blocks(self) -> int:
        """Number of currently resident blocks."""
        with self._lock:
            return len(self._blocks)


def _priority(request: dict) -> int:
    try:
        return int(request.get("priority", DEFAULT_PRIORITY))
    except (TypeError, ValueError):
        return DEFAULT_PRIORITY


class _Pending:
    """One admitted query waiting for (or being processed by) a worker."""

    __slots__ = ("request", "tenant", "spatial", "temporal", "enqueued", "started_wall",
                 "event", "response")

    def __init__(self, request: dict, tenant: str, spatial, temporal):
        self.request, self.tenant, self.spatial, self.temporal = request, tenant, spatial, temporal
        self.enqueued = time.monotonic()
        self.started_wall = time.time()
        self.event = threading.Event()
        self.response: str | None = None


class QueryServer:
    """The daemon: resident dataset state + admission + workers + cache."""

    def __init__(self, directory: str | Path, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.directory = Path(directory)
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
        self.started = time.time()
        self._counters_lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self._workers: list[threading.Thread] = []
        self._tcp: _TCPServer | None = None
        self._stopped = False

    # -- metering -----------------------------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        """Bump a server counter, mirrored to the installed tracer."""
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + value
        tracer = current_tracer()
        if tracer is not None:
            tracer.counter(name, value)

    def _trace_request(self, pending: _Pending, status: str, queue_wait: float, **args) -> None:
        tracer = current_tracer()
        if tracer is not None:
            tracer.add_span("request", "serve", pending.started_wall, time.time(), track="serve",
                            tenant=pending.tenant, status=status,
                            queue_wait_seconds=round(queue_wait, 6), **args)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the socket, start the query workers.

        Returns the bound ``(host, port)`` — with ``port=0`` this is how
        the caller learns the ephemeral port.
        """
        if self._tcp is not None:
            raise RuntimeError("server already started")
        for i in range(self.config.workers):
            thread = threading.Thread(target=self._worker_loop, name=f"serve-query-{i}",
                                      daemon=True)
            thread.start()
            self._workers.append(thread)
        self._tcp = _TCPServer((self.config.host, self.config.port), _Handler, self)
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
        """Shut down the transport and the workers."""
        if self._stopped:
            return
        self._stopped = True
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self.queue.close()
        for thread in self._workers:
            thread.join(timeout=2.0)

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
            return self._error(None, str(exc)), True
        op = request.get("op")
        request_id = request.get("id")
        try:
            if op == "query":
                return self._handle_query(request), True
            if op == "ping":
                return canonical_dumps(self._handle_ping(request_id)), True
            if op == "stats":
                return canonical_dumps(self._handle_stats(request_id)), True
            if op == "shutdown":
                return self._handle_shutdown(request_id)
            return self._error(request_id, f"unknown op {op!r}"), True
        except Exception as exc:  # noqa: BLE001 - a request must never kill the server
            return self._error(request_id, f"{type(exc).__name__}: {exc}"), True

    def _error(self, request_id: Any, message: str) -> str:
        """A counted ``error`` response line."""
        self._count("serve_errors")
        return canonical_dumps(error_response(request_id, message))

    def _handle_query(self, request: dict) -> str:
        """Admit, then answer a cache hit right here on the handler thread;
        only a miss is queued for a worker."""
        tenant = str(request.get("tenant", "default"))
        self._count("serve_requests")
        self._count(f"serve_requests[{tenant}]")
        try:
            spatial, temporal = parse_query_range(request)
        except ValueError as exc:
            return self._error(request.get("id"), str(exc))
        pending = _Pending(request, tenant, spatial, temporal)
        reason = self.admission.admit(tenant)
        if reason is not None:
            return self._shed(pending, reason)
        queued = False
        try:
            hit = self._cached(pending)
            if hit is None:
                queued = self.queue.offer(pending, _priority(request))
        finally:
            if not queued:  # answered here, refused by the queue, or failed
                self.admission.release(tenant)
        if hit is not None:
            return hit
        if not queued:
            return self._shed(pending, REASON_QUEUE_FULL)
        if not pending.event.wait(self.config.request_timeout):
            # The worker will still complete (and release admission); the
            # client just stops waiting.
            self._count("serve_timeouts")
            return canonical_dumps(
                error_response(request.get("id"), "request timed out server-side")
            )
        return pending.response

    def _cached(self, pending: _Pending) -> str | None:
        """The response line of a result-cache hit, or ``None`` on a miss."""
        started = time.monotonic()
        if self.state.refresh():
            self._count("serve_invalidations")
            self.result_cache.drop_stale_generations(self.state.generation)
        key = query_cache_key(pending.spatial, pending.temporal, self.state.generation)
        cached = self.result_cache.get(key)
        if cached is None:
            self._count("serve_cache_misses")
            return None
        self._count("serve_cache_hits")
        self._trace_request(pending, STATUS_OK, 0.0, cache_hit=True, records=cached.count)
        return self._ok(pending, cached, 0.0, started, True)

    def _shed(self, pending: _Pending, reason: str) -> str:
        self._count("serve_shed")
        self._count(f"serve_shed_{reason}")
        self._count(f"serve_shed[{pending.tenant}]")
        self._trace_request(pending, "SHED", 0.0, reason=reason)
        return canonical_dumps(shed_response(pending.request.get("id"), reason, pending.tenant))

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
                pending.response = self._error(
                    pending.request.get("id"), f"{type(exc).__name__}: {exc}"
                )
            finally:
                self.admission.release(pending.tenant)
                pending.event.set()

    def _execute(self, pending: _Pending) -> str:
        """Answer a miss from the resident fragments and cache the answer."""
        queue_wait = time.monotonic() - pending.enqueued
        self._count("serve_queue_wait_seconds", round(queue_wait, 6))
        started = time.monotonic()
        entry, scanned, total = self.state.select(pending.spatial, pending.temporal)
        self._count("serve_partitions_scanned", scanned)
        self._count("serve_partitions_pruned", total - scanned)
        key = query_cache_key(pending.spatial, pending.temporal, entry.generation)
        self.result_cache.put(key, entry)
        self._trace_request(pending, STATUS_OK, queue_wait, cache_hit=False,
                            records=entry.count, partitions_scanned=scanned)
        return self._ok(pending, entry, queue_wait, started, False)

    def _ok(self, pending: _Pending, entry: CachedResult, queue_wait: float,
            started: float, cached: bool) -> str:
        header = {
            "id": pending.request.get("id"),
            "status": STATUS_OK,
            "tenant": pending.tenant,
            "count": entry.count,
            "cached": cached,
            "generation": entry.generation,
            "queue_ms": round(queue_wait * 1e3, 3),
            "exec_ms": round((time.monotonic() - started) * 1e3, 3),
        }
        return spliced_dumps(header, "records", entry.records)

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
        with self._counters_lock:
            counters = {k: v for k, v in self.counters.items() if "[" not in k}
        return {
            "id": request_id,
            "status": STATUS_OK,
            "uptime_seconds": round(time.time() - self.started, 3),
            "counters": counters,
            "result_cache": self.result_cache.snapshot(),
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
            return self._error(request_id, "shutdown disabled on this server"), True
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
    """One connection: loop reading request lines until EOF (or until a
    line longer than :data:`MAX_REQUEST_LINE_BYTES`, which is answered with
    an error and ends the connection)."""

    def handle(self) -> None:
        server: QueryServer = self.server.query_server
        while True:
            try:
                raw = self.rfile.readline(MAX_REQUEST_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not raw:
                return
            if len(raw) > MAX_REQUEST_LINE_BYTES:
                message = f"request line longer than {MAX_REQUEST_LINE_BYTES} bytes"
                response_line, keep_open = server._error(None, message), False
            else:
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
