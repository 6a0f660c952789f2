"""The line-delimited-JSON wire protocol and the shared result codec.

One request per line, one response per line, UTF-8 JSON both ways — the
simplest protocol a shell script, a notebook, or another service can
speak.  Requests carry an ``op`` plus op-specific fields::

    {"op": "query", "tenant": "ml-team", "bbox": [-74.0, 40.6, -73.9, 40.8],
     "time": [1356998400, 1357603200], "priority": 5}

Responses carry ``status``: ``"ok"``, ``"SHED"`` (admission control or
queue pressure rejected the request — explicit, never a silent drop), or
``"error"``.

Every JSON document either side emits is canonical — sorted keys,
minimal separators, no NaN (:func:`canonical_dumps`) — and a record's
wire form is its on-disk tuple
(:func:`repro.stio.formats.encode_record`; JSON writes tuples as
arrays).  ``repro select --format json`` dumps its whole document
(:func:`records_document`); the daemon renders each resident row once,
as a JSON *fragment*, and splices its answers from fragments
(:func:`records_fragment`, :func:`spliced_dumps`) without encoding a
record again.  Both must give the same bytes, which makes "served
results are byte-for-byte identical to the one-shot CLI" a testable
property rather than a hope.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.geometry.envelope import Envelope
from repro.index.boxes import STBox, st_query_box
from repro.instances.base import Instance
from repro.stio.formats import encode_record
from repro.temporal.duration import Duration

#: Bumped when the wire format changes incompatibly; ``ping`` reports it.
PROTOCOL_VERSION = 1

#: Default priority for requests that do not set one (lower = sooner).
DEFAULT_PRIORITY = 10

#: Explicit load-shed status — the contract is SHED responses, never
#: silent drops.
STATUS_OK = "ok"
STATUS_SHED = "SHED"
STATUS_ERROR = "error"


#: The one encoder behind every document (``json.dumps`` builds a new one
#: per call for non-default options).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators, no NaN."""
    return _CANONICAL.encode(obj)


def records_fragment(fragments: Sequence[str]) -> str:
    """The JSON array of rendered records: ``canonical_dumps`` of the list."""
    return "[" + ",".join(fragments) + "]"


def spliced_dumps(header: dict, key: str, fragment: str) -> str:
    """``canonical_dumps({**header, key: value})`` where ``fragment`` is the
    value already rendered: the header's keys either side of ``key`` are
    dumped and the fragment goes between them, so the value is never
    encoded again."""
    head = canonical_dumps({k: v for k, v in header.items() if k < key})[1:-1]
    tail = canonical_dumps({k: v for k, v in header.items() if k > key})[1:-1]
    middle = canonical_dumps(key) + ":" + fragment
    return "{" + ",".join(part for part in (head, middle, tail) if part) + "}"


def records_document(instances: Sequence[Instance]) -> str:
    """The one-shot-CLI result document: ``{"count": N, "records": [...]}``.

    ``repro select --format json`` prints exactly this string;
    ``repro query --format json`` re-derives it from a query response via
    :func:`result_document`.  Byte-for-byte parity between the two paths
    is asserted by tests and the serve-smoke CI job.
    """
    records = [encode_record(inst) for inst in instances]
    return canonical_dumps({"count": len(records), "records": records})


def result_document(response: dict) -> str:
    """Rebuild the :func:`records_document` string from an ``ok`` response."""
    return canonical_dumps(
        {"count": response.get("count", 0), "records": response.get("records", [])}
    )


def parse_query_range(request: dict) -> tuple[Envelope | None, Duration | None]:
    """Extract and validate the ST range of a ``query`` request.

    ``bbox`` is ``[min_x, min_y, max_x, max_y]``; ``time`` is
    ``[start, end]``.  Either may be absent (unconstrained), but not both
    — the same rule the ``Selector`` constructor enforces.
    """
    spatial = None
    temporal = None
    bbox = request.get("bbox")
    if bbox is not None:
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise ValueError("bbox must be [min_x, min_y, max_x, max_y]")
        spatial = Envelope(*(float(v) for v in bbox))
    window = request.get("time")
    if window is not None:
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ValueError("time must be [start, end]")
        temporal = Duration(float(window[0]), float(window[1]))
    if spatial is None and temporal is None:
        raise ValueError("a query needs bbox and/or time")
    return spatial, temporal


def query_cache_key(spatial: Envelope | None, temporal: Duration | None, generation: int) -> tuple:
    """Canonical result-cache key: ``(generation, mins, maxs)`` of the
    ``st_query_box``.

    Built on :func:`~repro.index.boxes.st_query_box` — the same canonical
    box metadata pruning and in-memory filtering share — so two requests
    that mean the same range (e.g. one passes the dataset's full time span
    explicitly, another passes the equivalent box) hit the same entry, and
    a generation bump (append / repartition) makes every old key
    unreachable without any eager sweep.  A tuple of floats, not JSON: an
    unbounded range (``1e999`` parses to ``inf``) is a valid query and a
    valid key.
    """
    box: STBox = st_query_box(spatial, temporal)
    return (generation, tuple(box.mins), tuple(box.maxs))


def parse_request(line: str) -> dict:
    """Decode one request line; raises ``ValueError`` with a client-safe
    message on malformed input."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON request: {exc.msg}") from exc
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    op = request.get("op")
    if not isinstance(op, str) or not op:
        raise ValueError("request needs a string 'op'")
    return request


def shed_response(request_id: Any, reason: str, tenant: str) -> dict:
    """An explicit SHED response (admission control / queue pressure)."""
    return {
        "id": request_id,
        "status": STATUS_SHED,
        "reason": reason,
        "tenant": tenant,
    }


def error_response(request_id: Any, message: str) -> dict:
    """An error response carrying a client-safe message."""
    return {"id": request_id, "status": STATUS_ERROR, "error": message}
