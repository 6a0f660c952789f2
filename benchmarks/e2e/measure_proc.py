"""The measured process: replay a plan against the system, time every op.

``trace 0`` is the end-to-end pass: nothing staged, nothing traced, only
a clock read before and after each op.  ``trace 1`` is the shorter staged
pass of the batch workloads (every 4th range, once as the user writes it
and once layer by layer under spans); for ``stream_update`` and
``serve_mix`` the layer boundaries are the public calls and the response
fields of the same pass, so both traces replay the same ops.

Every pass is a list of *rounds* doing the same work; the output keeps
them apart so the harness can take medians over rounds.

The generator is never imported here (the plan carries everything).  Peak RSS is read when the timed
work ends; checking answers happens later, in the harness.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import threading
import time
import traceback

from benchmarks.e2e import adapter
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.verify import document_hash


def _vm_hwm_kib(pid) -> tuple[int, str]:
    """(VmHWM in KiB, parent pid) of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as f:
        fields = dict(line.split(":", 1) for line in f if ":" in line)
    return int(fields["VmHWM"].split()[0]), fields["PPid"].strip()


def _rss_mib() -> float:
    """High-water RSS of this process plus its largest child, MiB.

    Both are the kernel's ``VmHWM``.  ``ru_maxrss`` will not do for this
    process: it survives fork and exec, so it starts at whatever the harness
    held when it started us.  Pool workers are still alive when this is read
    (the backend shuts its pool down without waiting); children already
    reaped count through ``RUSAGE_CHILDREN``.
    """
    me = str(os.getpid())
    largest = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            hwm, parent = _vm_hwm_kib(entry)
        except (OSError, KeyError):  # exited while we were looking; a kernel thread
            continue
        if parent == me:
            largest = max(largest, hwm)
    return (_vm_hwm_kib(me)[0] + largest) / 1024.0


def _timed(run_one, rows) -> dict:
    """Run ``run_one(row)`` over ``rows``; latencies, answers, failures, wall."""
    latencies, answers, errors = [], [], []
    start = time.perf_counter()
    for row in rows:
        t0 = time.perf_counter()
        try:
            answer = run_one(row)
        except Exception:  # one failed op must not end the run; it is counted
            traceback.print_exc()
            answer = None
            errors.append(row)
        latencies.append(time.perf_counter() - t0)
        answers.append(answer)
    return {"rows": list(rows), "latencies": latencies, "answers": answers,
            "errors": errors, "wall": time.perf_counter() - start}


def measure_batch(plan: dict, trace: bool) -> dict:
    path, kind, grid, boxes = plan["path"], plan["kind"], plan["grid"], plan["boxes"]
    per_round = len(boxes) // plan["rounds"]
    rounds = [range(r * per_round, (r + 1) * per_round) for r in range(plan["rounds"])]
    if trace:
        rounds = plan["staged"]
    ctx = adapter.open_context(plan["backend"])
    out: dict = {}
    try:
        def plain(i):
            return adapter.run_op(ctx, path, kind, boxes[i], grid)

        plain(0)  # untimed warm-up: imports, pool spawn, page cache
        out["rounds"] = [_timed(plain, rows) for rows in rounds]
        if trace:
            if plan["backend"] != "sequential":
                seq = adapter.open_context("sequential")
                try:
                    adapter.run_op(seq, path, kind, boxes[0], grid)
                    out["sequential_rounds"] = [
                        _timed(lambda i: adapter.run_op(seq, path, kind, boxes[i], grid), rows)
                        for rows in rounds
                    ]
                finally:
                    seq.stop()
            rec = SpanRecorder()
            adapter.run_op_staged(ctx, path, kind, boxes[0], grid, SpanRecorder(), -1)
            out["staged_rounds"] = [
                _timed(lambda i: adapter.run_op_staged(ctx, path, kind, boxes[i], grid, rec, i),
                       rows)
                for rows in rounds
            ]
            out["spans"] = rec.spans
        out["rss_mib"] = _rss_mib()
    finally:
        ctx.stop()
    return out


def measure_stream(plan: dict, trace: bool) -> dict:
    ctx = adapter.open_context("sequential")
    rounds, vectors = [], []
    try:
        for path, files in zip(plan["feed_paths"], plan["batch_files"]):
            runner = adapter.StreamRunner(
                ctx, path, plan["box"], plan["slot_seconds"], plan["threshold"]
            )
            reports, errors = [], []
            for i, name in enumerate(files):
                batch = adapter.load_instances(name)  # the feed's work, not the system's
                t0 = time.perf_counter()
                try:
                    report = runner.ingest(batch)
                    t1 = time.perf_counter()
                    report["stale"] = runner.update()
                except Exception:
                    traceback.print_exc()
                    errors.append(i)
                    report, t1 = {}, time.perf_counter()
                reports.append({"t0": t0, "t1": t1, "t2": time.perf_counter(), **report})
            # Batch 0 creates the dataset: the feed's untimed warm-up op.
            latencies = [r["t2"] - r["t0"] for r in reports[1:]]
            rounds.append({"rows": list(range(1, len(files))), "latencies": latencies,
                           "errors": errors, "wall": sum(latencies), "reports": reports})
            vectors.append(runner.vector())
        rss = _rss_mib()
    finally:
        ctx.stop()
    return {"rounds": rounds, "vectors": vectors, "rss_mib": rss}


def measure_serve(plan: dict, trace: bool) -> dict:
    pool, draws, port = plan["pool"], plan["draws"], plan["port"]
    untimed, segment = plan["untimed"], plan["segment"]
    per_conn: list[list] = [[] for _ in range(draws.shape[0])]

    def connection(k: int) -> None:
        try:
            client = adapter.serve_client(port)
            try:
                for i, q in enumerate(draws[k].tolist()):
                    t0 = time.perf_counter()
                    response = adapter.serve_query(client, pool[q])
                    t1 = time.perf_counter()
                    document = adapter.serve_document(response)
                    records = response.get("records")
                    per_conn[k].append({
                        "t0": t0, "t1": t1, "q": q,
                        "round": (i - untimed) // segment if i >= untimed else -1,
                        "status": response.get("status"),
                        "count_ok": isinstance(records, list)
                        and response.get("count") == len(records),
                        "cached": bool(response.get("cached")),
                        "queue_ms": response.get("queue_ms"),
                        "exec_ms": response.get("exec_ms"),
                        "bytes": len(document),
                        "doc": document_hash(document),
                    })
            finally:
                client.close()
        except Exception:  # the connection's unsent queries count as failed
            traceback.print_exc()

    threads = [threading.Thread(target=connection, args=(k,)) for k in range(len(per_conn))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    client = adapter.serve_client(port)
    try:
        stats = client.stats()
    finally:
        client.close()
    replies = [r for conn in per_conn for r in conn]
    rounds = []
    for r in range(plan["rounds"]):
        rows = [x for x in replies if x["round"] == r]
        lost = segment * len(per_conn) - len(rows)
        rounds.append({
            "rows": rows,
            "latencies": [x["t1"] - x["t0"] for x in rows],
            "errors": [],
            "lost": lost,  # queries a dead connection never sent
            "wall": max(x["t1"] for x in rows) - min(x["t0"] for x in rows) if rows else 0.0,
        })
    return {"rounds": rounds, "replies": replies, "stats": stats}


def main(argv: list[str]) -> int:
    workdir, kind, trace = argv[0], argv[1], argv[2] == "1"
    with open(os.path.join(workdir, "plan.pkl"), "rb") as f:
        plan = pickle.load(f)
    measured = {"batch": measure_batch, "stream": measure_stream, "serve": measure_serve}[kind](
        plan, trace
    )
    with open(os.path.join(workdir, "measured.pkl"), "wb") as f:
        pickle.dump(measured, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
