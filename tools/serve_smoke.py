"""CI smoke for the serve daemon: concurrency, parity, shedding, traces.

What it proves, end to end, against a real daemon on the quickstart-sized
dataset:

1. **Concurrency** — at least 16 queries race across 2 tenants (one
   connection per thread) and every one answers ``ok``;
2. **Parity** — each served result document is byte-for-byte identical to
   a one-shot ``repro select --format json`` subprocess over the same
   range (the CLI path, not an in-process shortcut);
3. **Shedding** — a deliberately starved tenant (``rate=0``) receives
   explicit ``SHED`` responses while the others keep completing;
4. **Observability** — the daemon runs under a tracer, and the per-request
   spans/counters are written to ``traces/serve-smoke.*`` for the CI
   artifact upload;
5. **Canonical lines** — raw response lines of a miss and of its cached
   repeat, read off a plain socket, are each exactly ``canonical_dumps``
   of their own parse: the daemon splices pre-rendered records into its
   lines, and the splice must still be canonical JSON.

Run::

    PYTHONPATH=src python tools/serve_smoke.py

Exit code 0 only when all five hold.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datasets import generate_nyc_events  # noqa: E402
from repro.datasets.common import EPOCH_2013  # noqa: E402
from repro.obs import Tracer, installed, write_trace_files  # noqa: E402
from repro.partitioners import TSTRPartitioner  # noqa: E402
from repro.serve import (  # noqa: E402
    QueryServer,
    ServeClient,
    ServeConfig,
    TenantPolicy,
    result_document,
    wait_until_ready,
)
from repro.serve.protocol import canonical_dumps  # noqa: E402
from repro.stio import save_dataset  # noqa: E402

QUERIES = [
    {"bbox": [-74.02, 40.60, -73.96, 40.70], "time": [EPOCH_2013, EPOCH_2013 + 10 * 86_400.0]},
    {"bbox": [-74.00, 40.70, -73.92, 40.78], "time": [EPOCH_2013, EPOCH_2013 + 20 * 86_400.0]},
    {"bbox": [-73.98, 40.64, -73.90, 40.74], "time": [EPOCH_2013 + 5 * 86_400.0, EPOCH_2013 + 25 * 86_400.0]},
    {"bbox": [-74.03, 40.66, -73.94, 40.76], "time": [EPOCH_2013, EPOCH_2013 + 30 * 86_400.0]},
]


#: Asked only over the raw socket, so its first answer is a miss.
RAW_QUERY = {
    "bbox": [-74.01, 40.62, -73.95, 40.72],
    "time": [EPOCH_2013, EPOCH_2013 + 7 * 86_400.0],
}


def raw_lines(host: str, port: int, request: dict, n: int) -> list[str]:
    """``n`` response lines to ``request`` on one plain socket, as sent."""
    line = canonical_dumps(request).encode("utf-8") + b"\n"
    with socket.create_connection((host, port), timeout=60) as sock:
        reader = sock.makefile("rb")
        answers = []
        for _ in range(n):
            sock.sendall(line)
            answers.append(reader.readline().decode("utf-8").rstrip("\n"))
    return answers


def one_shot_cli(dataset: Path, query: dict) -> str:
    """The canonical result document via a real `repro select` subprocess."""
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "select", str(dataset),
            "--bbox", *[str(v) for v in query["bbox"]],
            "--time", *[str(v) for v in query["time"]],
            "--format", "json",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        cwd=REPO_ROOT,
    )
    return result.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=10_000)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "traces" / "serve-smoke")
    args = parser.parse_args(argv)

    print(f"[serve-smoke] dataset: {args.records} quickstart-style events", flush=True)
    events = generate_nyc_events(args.records, seed=17, days=30)
    failures: list[str] = []
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        dataset = Path(tmp) / "nyc"
        save_dataset(dataset, events, "event", partitioner=TSTRPartitioner(4, 4))
        expected = {i: one_shot_cli(dataset, q) for i, q in enumerate(QUERIES)}
        expected_raw = one_shot_cli(dataset, RAW_QUERY)

        config = ServeConfig(
            workers=4,
            tenants={"starved": TenantPolicy(rate=0, burst=2, max_inflight=8)},
        )
        with installed(tracer):
            server = QueryServer(dataset, config)
            host, port = server.start()
            serve_thread = threading.Thread(target=server.serve_forever, daemon=True)
            serve_thread.start()
            try:
                wait_until_ready(host, port)

                # 1+2: concurrent queries across two tenants, each checked
                # against the one-shot CLI bytes.
                def worker(thread_id: int) -> None:
                    tenant = f"team-{thread_id % 2}"
                    query_id = thread_id % len(QUERIES)
                    query = QUERIES[query_id]
                    try:
                        with ServeClient(host, port, tenant=tenant) as client:
                            response = client.query(
                                bbox=query["bbox"], time_range=query["time"]
                            )
                    except Exception as exc:  # noqa: BLE001 - report, don't hang CI
                        failures.append(f"thread {thread_id}: {exc}")
                        return
                    if response.get("status") != "ok":
                        failures.append(f"thread {thread_id}: {response}")
                    elif result_document(response) != expected[query_id]:
                        failures.append(
                            f"thread {thread_id}: served bytes != one-shot CLI bytes"
                        )

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(args.concurrency)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                print(
                    f"[serve-smoke] {args.concurrency} concurrent queries "
                    f"across 2 tenants: {len(failures)} failures",
                    flush=True,
                )

                # 5: a miss and its hit, as raw lines off a plain socket.
                request = {"op": "query", "id": "raw-é", "tenant": "team-0", **RAW_QUERY}
                for n, line in enumerate(raw_lines(host, port, request, 2)):
                    response = json.loads(line)
                    if canonical_dumps(response) != line:
                        failures.append(f"raw line {n} is not canonical JSON: {line[:200]}")
                    elif response.get("cached") is not bool(n):
                        failures.append(f"raw line {n}: cached={response.get('cached')}")
                    elif result_document(response) != expected_raw:
                        failures.append(f"raw line {n}: served bytes != one-shot CLI bytes")
                print("[serve-smoke] raw miss + hit lines checked canonical", flush=True)

                # 3: the starved tenant must shed — others already completed.
                shed_statuses = []
                with ServeClient(host, port, tenant="starved") as client:
                    for _ in range(4):
                        response = client.query(
                            bbox=QUERIES[0]["bbox"], time_range=QUERIES[0]["time"]
                        )
                        shed_statuses.append(response.get("status"))
                if shed_statuses.count("SHED") < 2:
                    failures.append(f"starved tenant never shed: {shed_statuses}")
                else:
                    print(
                        f"[serve-smoke] starved tenant statuses: {shed_statuses}",
                        flush=True,
                    )
                counters = {
                    k: v for k, v in sorted(server.counters.items()) if "[" not in k
                }
                print(f"[serve-smoke] server counters: {counters}", flush=True)
                if not counters.get("serve_shed"):
                    failures.append("no serve_shed counter recorded")
            finally:
                server.stop()
                serve_thread.join(timeout=5)

    # 4: the trace artifact — every request span the daemon recorded.
    paths = write_trace_files(tracer, args.out)
    for kind, path in sorted(paths.items()):
        print(f"[serve-smoke] {kind} trace written to {path}")
    spans = sum(1 for s in tracer.spans if s.category == "serve")
    print(f"[serve-smoke] {spans} serve request spans traced")
    if spans < args.concurrency:
        failures.append(f"expected >= {args.concurrency} request spans, got {spans}")

    if failures:
        for failure in failures:
            print(f"[serve-smoke] FAIL: {failure}")
        return 1
    print("[serve-smoke] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
