"""One run of one workload: set up, measure, read RSS, verify, report.

Three kinds of process take part.  This one (the harness) owns the work
directory, starts the others and checks the answers.  The *set-up*
process generates inputs and writes datasets; it runs ``SETUP_REPS``
times and ``setup_s`` is the median.  The *measured* process replays the
plan; for ``serve_mix`` it is the load generator and the system under test
is the ``repro serve`` daemon, started here as part of set-up.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from benchmarks.e2e import adapter, paths, verify, workloads
from benchmarks.e2e.spans import SpanRecorder, layer_self_times, write_jsonl

#: Set-up repetitions of an end-to-end run (a traced or smoke run sets up once).
#: The driver's contract asks for several per run and their median; halving the
#: timed rounds did not widen any spread, so the ~2 s are not missed there.
SETUP_REPS = 3


def _run_child(module: str, args: list[str]) -> str:
    """Run one of the benchmark's own modules to completion; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", module, *args],
        env=paths.child_env(), cwd=paths.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{module} exited with {done.returncode}")
    return done.stdout


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


class Daemon:
    """The ``repro serve`` subprocess of one set-up repetition."""

    def __init__(self, plan: dict):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            adapter.serve_argv(plan["path"], plan["workers"], plan["cache_bytes"]),
            env=paths.child_env(), cwd=paths.ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = adapter.serve_port(self.proc.stdout.readline())
            adapter.serve_wait_ready(self.port)
        except Exception:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def peak_rss_mib(self) -> float:
        """The daemon's own high-water mark, as the kernel keeps it."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve daemon")

    def stop(self) -> None:
        """Ask the daemon to shut down; make sure it has ended either way."""
        if self.proc.poll() is None:
            try:
                adapter.serve_client(self.port).shutdown()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def summarize(rounds: list, tail_pct: int, aligned: bool) -> dict:
    """op_p50_ms, op_tail_ms and throughput_ops_s of a run made of rounds.

    This box slows by 10-25 % for seconds at a time, so the median and the
    throughput are not taken from one round alone.  Where rounds repeat the
    same ops in the same positions (``aligned``: passes over the same ranges,
    feeds of the same shape) an op's latency is the median of its position
    across rounds, and ``op_p50_ms`` is the median position.  Where they do
    not (segments of one query stream) it is the median round's own median.
    Throughput is the median round's ops / wall.

    ``op_tail_ms`` is the percentile over every timed op of the run, so the
    ops beyond it can be counted (``plan["ops"]`` of them are ranked) and the
    rare slow ones - a compaction, a cache miss - are among them.
    """
    per_round = [[l * 1e3 for l in r["latencies"]] for r in rounds]
    if aligned:
        per_position: dict = {}
        for r, ms in zip(rounds, per_round):
            for row, latency in zip(r["positions"], ms):
                per_position.setdefault(row, []).append(latency)
        p50 = statistics.median(statistics.median(v) for v in per_position.values())
    else:
        p50 = statistics.median(statistics.median(ms) for ms in per_round if ms)
    tail = float(np.percentile([l for ms in per_round for l in ms], tail_pct))
    done = [(len(r["latencies"]) - len(r["errors"])) / r["wall"] for r in rounds if r["wall"]]
    return {"op_p50_ms": p50, "op_tail_ms": tail, "throughput_ops_s": statistics.median(done)}


def _batch_layers(measured: dict, setup: dict) -> tuple[dict, list]:
    """Per-layer numbers of a staged batch pass, and the checked arithmetic.

    Times are medians and counts are means over the staged ops.  For every
    staged op, the layers' self times plus its unattributed time add up to
    the wall time of the same op run unstaged.
    """
    spans = measured["spans"]
    per_op = layer_self_times(spans)
    counts: dict[str, list] = {}
    for s in spans:
        prefix = "engine" if s.layer == "bench" else s.layer
        for key, value in s.counts.items():
            counts.setdefault(f"{prefix}.{key}", []).append(value)

    def flat(key):
        return {i: l for r in measured[key] for i, l in zip(r["rows"], r["latencies"])}

    plain, staged = flat("rounds"), flat("staged_rounds")
    unattributed, problems = [], []
    for root in (s for s in spans if s.parent is None):
        layers = per_op[root.op]
        attributed = sum(v for layer, v in layers.items() if layer != "bench")
        root.counts["unstaged_wall_s"] = plain[root.op]
        root.counts["unattributed_s"] = plain[root.op] - attributed
        unattributed.append(root.counts["unattributed_s"])
        if abs(sum(layers.values()) - root.duration) > 1e-6:
            problems.append(f"op {root.op}: layer self times do not add up to its span")

    def layer_time(layer):
        return _median([layers.get(layer) for layers in per_op.values()])

    loaded = sum(v or 0 for v in counts.get("stio.records_loaded", []))
    selected = sum(v or 0 for v in counts.get("selector.records_out", []))
    values = {
        "stio.load_s": layer_time("stio"),
        "stio.decode_useful_ratio": selected / loaded if loaded else None,
        "stio.write_s": setup["write_s"],
        "stio.bytes_written": setup["bytes"],
        "selector.filter_s": layer_time("selector"),
        "partitioners.partition_s": layer_time("partitioners"),
        "converters.convert_s": layer_time("converters"),
        "extractors.extract_s": layer_time("extractors"),
        "ml.tensor_s": layer_time("ml"),
        "engine.proc_vs_seq_ratio": (
            statistics.median(plain.values()) / statistics.median(flat("sequential_rounds").values())
            if "sequential_rounds" in measured else None
        ),
        "bench.unattributed_s": _median(unattributed),
        "bench.staging_ratio": sum(staged.values()) / sum(plain.values()),
    }
    for name, series in counts.items():
        if name in workloads.PER_LAYER:
            values[name] = _median(series) if name.endswith("_s") else _mean(series)
    return values, problems


def _stream_layers(measured: dict, final_bytes: int) -> tuple[dict, list]:
    rec = SpanRecorder()
    rows, growth = [], []
    for feed, r in enumerate(measured["rounds"]):
        timed = r["reports"][1:]
        rows += timed
        for i, x in enumerate(timed):
            op = feed * 1000 + i
            root = rec.add("op", "bench", op, x["t0"], x["t2"])
            rec.add("StDataset.ingest", "stream", op, x["t0"], x["t1"], root.id,
                    {k: x.get(k) for k in ("late_records", "blocks_added", "compacted")})
            rec.add("Pipeline.run_incremental", "stream", op, x["t1"], x["t2"], root.id,
                    {"stale": x.get("stale")})
        # Growth between compactions: the update just before a compaction
        # (most banked blocks) against the one just after the previous one.
        calm = [x["t2"] - x["t1"] for x in timed if not x.get("stale")]
        if len(calm) >= 10:
            growth.append(statistics.median(calm[-5:]) / statistics.median(calm[:5]))
    ingest = [x["t1"] - x["t0"] for x in rows]
    typical = statistics.median(x["t2"] - x["t0"] for x in rows)
    values = {
        "stio.write_s": sum(ingest),
        "stio.bytes_written": final_bytes,
        "stream.ingest_s": statistics.median(ingest),
        "stream.update_s": statistics.median(x["t2"] - x["t1"] for x in rows),
        "stream.update_growth": _median(growth),
        "stream.compactions": sum(bool(x.get("compacted")) for x in rows),
        "stream.compact_stall_s": sum(
            max(0.0, (x["t2"] - x["t0"]) - typical)
            for x in rows if x.get("compacted") or x.get("stale")
        ),
        "stream.stale_rebootstraps": sum(bool(x.get("stale")) for x in rows),
        "stream.late_records": sum(x.get("late_records", 0) for x in rows),
        "stream.blocks_added": sum(x.get("blocks_added", 0) for x in rows),
    }
    return values, rec.spans


def _serve_layers(measured: dict, ready_s: float, setup: dict) -> tuple[dict, list]:
    rows = [x for r in measured["rounds"] for x in r["rows"] if x["status"] == "ok"]
    rec = SpanRecorder()
    for op, x in enumerate(rows):
        root = rec.add("ServeClient.query", "serve", op, x["t0"], x["t1"], None,
                       {"cached": x["cached"], "q": x["q"], "bytes": x["bytes"]})
        # The server reports durations, not clock readings: the spans are
        # laid end to end at the close of the client's interval.
        exec_s = x["exec_ms"] / 1e3
        rec.add("queue", "serve", op, x["t1"] - exec_s - x["queue_ms"] / 1e3, x["t1"] - exec_s,
                root.id)
        rec.add("exec", "serve", op, x["t1"] - exec_s, x["t1"], root.id)
    lat_ms = [(x["t1"] - x["t0"]) * 1e3 for x in rows]
    s = measured["stats"]
    cache, index = s.get("result_cache", {}), s.get("index_cache", {})

    def ratio(d):
        total = d.get("hits", 0) + d.get("misses", 0)
        return d["hits"] / total if total else None

    values = {
        "stio.write_s": setup["write_s"],
        "stio.bytes_written": setup["bytes"],
        "serve.exec_ms_p50": _median([x["exec_ms"] for x in rows]),
        "serve.queue_ms_p50": _median([x["queue_ms"] for x in rows]),
        "serve.wire_ms_p50": _median(
            [l - x["queue_ms"] - x["exec_ms"] for l, x in zip(lat_ms, rows)]
        ),
        "serve.hit_ms_p50": _median([l for l, x in zip(lat_ms, rows) if x["cached"]]),
        "serve.miss_ms_p50": _median([l for l, x in zip(lat_ms, rows) if not x["cached"]]),
        "serve.result_cache_hit_ratio": ratio(cache),
        "serve.result_cache_evictions": cache.get("evictions"),
        "serve.index_cache_hit_ratio": ratio(index),
        "serve.blocks_loaded": s.get("dataset", {}).get("blocks_loaded"),
        "serve.response_bytes_p50": _median([x["bytes"] for x in rows]),
        "serve.shed": s.get("counters", {}).get("serve_shed", 0),
        "serve.ready_s": ready_s,
    }
    return values, rec.spans


def tally(attempted: int, raised: int, wrong: list) -> tuple[int, float]:
    """(failed, failed_frac): ops that raised or were refused, plus one per
    distinct wrong answer or failed whole-run check."""
    failed = min(attempted, raised + len(set(wrong)))
    return failed, failed / attempted


def _verify(workload, plan: dict, measured: dict, built: dict, trace: bool) -> tuple[list, list]:
    """All answer checks of one run: (wrong, problems) as ``verify`` defines them."""
    wrong: list = []
    problems: list = []
    ctx = adapter.open_context("sequential")
    try:
        if workload.kind == "batch":
            passes = [measured["rounds"]] + ([measured["staged_rounds"]] if trace else [])
            if plan["kind"] == "traj_speed":
                everything = adapter.read_all(ctx, plan["path"])
            for rounds in passes:
                rows = [i for r in rounds for i in r["rows"]]
                answers = [a for r in rounds for a in r["answers"]]
                if plan["kind"] == "traj_speed":
                    w, p = verify.check_traj(
                        lambda box: (
                            adapter.traj_counts(ctx, everything, box, plan["grid"]),
                            adapter.traj_counts(ctx, plan["path"], box, plan["grid"])[0],
                        ),
                        plan["boxes"][rows], plan["cls"][rows], answers,
                    )
                else:
                    w, p = verify.check_flow(
                        built["data"], plan["kind"], plan["boxes"][rows], plan["grid"], answers
                    )
                wrong, problems = wrong + [rows[i] for i in w], problems + p
        elif workload.kind == "stream":
            for feed, (path, r, vector) in enumerate(
                zip(plan["feed_paths"], measured["rounds"], measured["vectors"])
            ):
                w, p = verify.check_stream(
                    vector, r["reports"], plan["records"][feed], plan["late"][feed],
                    adapter.stream_batch_vector(ctx, path, plan["box"], plan["slot_seconds"]),
                    adapter.dataset_records(path),
                )
                wrong, problems = wrong + [f"feed {feed}: {x}" for x in w], problems + p
        else:
            wrong, problems = verify.check_serve(
                measured["replies"],
                lambda box: verify.document_hash(
                    adapter.one_shot_document(ctx, plan["path"], box)
                ),
                plan["pool"],
            )
    finally:
        ctx.stop()
    return wrong, problems


def _set_up(workload, args: list, reps: int, work) -> tuple:
    """Run the set-up process ``reps`` times, each into a fresh directory, and
    keep the last: (reports, its plan, its directory, its daemon or None)."""
    reports, daemon = [], None
    for rep in range(reps):
        if daemon is not None:
            daemon.stop()
            daemon = None
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir(parents=True)
        if rep:
            shutil.rmtree(work / f"setup{rep - 1}")
        report = json.loads(
            _run_child("benchmarks.e2e.setup_proc", [*args, str(rep_dir)]).splitlines()[-1]
        )
        with open(rep_dir / "plan.pkl", "rb") as f:
            plan = pickle.load(f)
        if workload.kind == "serve":
            # Until it answers a ping the daemon is not set up.
            daemon = Daemon(plan)
            report["setup_s"] += daemon.ready_s
            plan["port"] = daemon.port
            with open(rep_dir / "plan.pkl", "wb") as f:
                pickle.dump(plan, f)
        reports.append(report)
    return reports, plan, rep_dir, daemon


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload once; returns the result document (see ``README.md``)."""
    workload = workloads.WORKLOADS[name]
    work = paths.OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    daemon = None
    try:
        setups, plan, rep_dir, daemon = _set_up(
            workload, [name, str(seed), str(seconds), "1" if smoke else "0"],
            1 if trace or smoke else SETUP_REPS, work,
        )
        setup = dict(setups[-1])
        setup["bytes"] = _dir_bytes(plan["path"]) if workload.kind != "stream" else 0

        _run_child("benchmarks.e2e.measure_proc",
                   [str(rep_dir), workload.kind, "1" if trace else "0"])
        with open(rep_dir / "measured.pkl", "rb") as f:
            measured = pickle.load(f)
        rss = daemon.peak_rss_mib() if daemon is not None else measured["rss_mib"]
        datasets = plan.get("feed_paths", [plan["path"]])
        disk_bytes = sum(_dir_bytes(d) for d in datasets)
        records = sum(adapter.dataset_records(d) for d in datasets)

        # Everything from here on is untimed and after the RSS reading.
        built = workloads.build(name, seed, seconds, smoke)
        wrong, problems = _verify(workload, plan, measured, built, trace)
        if built["digest"] != setup["digest"]:
            problems.append("set-up process generated different inputs than the harness")
            wrong.append(problems[-1])

        rounds = measured["rounds"]
        if not trace:
            for r in rounds:
                r["positions"] = (
                    plan["op"][r["rows"]].tolist() if workload.kind == "batch" else r["rows"]
                )
            values = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                **summarize(rounds, workload.tail_pct, aligned=workload.kind != "serve"),
                "peak_rss_mb": rss,
                "disk_bytes_per_rec": disk_bytes / records,
            }
            units = workloads.END_TO_END
        else:
            if workload.kind == "batch":
                values, arithmetic = _batch_layers(measured, setup)
                wrong, problems = wrong + arithmetic, problems + arithmetic
                spans = measured["spans"]
            elif workload.kind == "stream":
                values, spans = _stream_layers(measured, disk_bytes)
            else:
                values, spans = _serve_layers(measured, daemon.ready_s, setup)
            paths.OUT.mkdir(parents=True, exist_ok=True)
            write_jsonl(paths.OUT / f"trace-{name}.jsonl", spans)
            units = workloads.PER_LAYER

        lost = sum(r.get("lost", 0) for r in rounds)
        attempted = sum(len(r["latencies"]) for r in rounds) + lost
        raised = lost + sum(
            len(r["errors"]) for r in rounds + measured.get("staged_rounds", [])
        )
        failed, failed_frac = tally(attempted, raised, wrong)
        if not trace:
            values["ok_frac"] = 1.0 - failed_frac
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "digest": built["digest"],
            "correct": failed == 0,
            "attempted": attempted, "failed": failed, "failed_frac": failed_frac,
            "problems": problems[:20],
            "rounds": len(rounds), "tail_pct": workload.tail_pct,
            "measured_wall_s": sum(r["wall"] for r in rounds),
            # A source the workload does not have, or that a later PR removed,
            # reads None — never a guess.
            "metrics": {
                k: {"value": None if values.get(k) is None else float(values[k]), "unit": unit}
                for k, (unit, _) in units.items()
            },
        }
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)


def contract_line(result: dict) -> str:
    """The driver's last-line JSON: exactly correct, attempted, failed, metrics.

    The contract wants every listed metric as a number, so a per-layer metric
    with no source on this workload reads 0 here (and ``null`` in the results
    file of the ``run`` command).
    """
    metrics = {
        k: {"value": 0.0 if m["value"] is None else m["value"], "unit": m["unit"]}
        for k, m in result["metrics"].items()
    }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
