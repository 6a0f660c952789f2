"""``repro.serve`` — the long-lived query daemon.

ST4ML's batch pipeline pays dataset open, metadata parse and block
decode on *every* invocation.  This package keeps that resident behind a
socket: a :class:`~repro.serve.server.QueryServer` holds the dataset
handle, the mmapped and decoded blocks and the server-wide result cache,
answering concurrent ST-range queries over a line-delimited-JSON
protocol with per-tenant admission control and explicit load shedding.

Modules:

* :mod:`repro.serve.protocol` — wire format + the result codec shared
  with ``repro select --format json`` (byte-for-byte parity);
* :mod:`repro.serve.admission` — token buckets, in-flight caps, tenant
  policies;
* :mod:`repro.serve.queueing` — bounded priority queue with explicit
  rejection;
* :mod:`repro.serve.cache` — the generation-keyed LRU result cache;
* :mod:`repro.serve.server` — resident state, workers, transport;
* :mod:`repro.serve.client` — the thin client behind ``repro query``.
"""

from repro.serve.admission import (
    AdmissionController,
    TenantPolicy,
    TokenBucket,
)
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.client import ServeClient, ServeError, wait_until_ready
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    canonical_dumps,
    encode_records,
    records_document,
    result_document,
)
from repro.serve.queueing import BoundedPriorityQueue
from repro.serve.server import DatasetState, QueryServer, ServeConfig

__all__ = [
    "AdmissionController",
    "BoundedPriorityQueue",
    "CachedResult",
    "DatasetState",
    "PROTOCOL_VERSION",
    "QueryServer",
    "ResultCache",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "TenantPolicy",
    "TokenBucket",
    "canonical_dumps",
    "encode_records",
    "records_document",
    "result_document",
    "wait_until_ready",
]
