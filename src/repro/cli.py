"""Command-line interface: preprocessing, indexing, and selection.

The paper's Figure 1a points out that the legacy workflow forces
application programmers through CLIs for ingestion; ST4ML folds the
preprocessing step into the system.  This CLI covers the operational
surface a data engineer needs without writing code:

* ``generate`` — synthesize a seeded dataset (nyc / porto / air / osm);
* ``index``    — T-STR-partition an existing dataset and (re)build its
  on-disk metadata index;
* ``convert-format`` — upgrade a dataset of v1 (whole-partition pickle)
  blocks to the mmap-able columnar block format every other command
  reads and writes, preserving selection results;
* ``select``   — run a metadata-pruned ST range selection and report the
  pruning statistics (``--format json`` emits the canonical result
  document the serve protocol also uses);
* ``serve``    — long-lived query daemon over a dataset: resident
  metadata/blocks/indexes, a server-wide result cache, per-tenant
  admission control with explicit load shedding (see :mod:`repro.serve`);
* ``query``    — thin client for a running daemon (also ``--stats`` /
  ``--ping`` / ``--shutdown``);
* ``info``     — print a dataset's metadata summary;
* ``lint``     — static distributed-correctness checks: stage-closure
  rules (REPRO1xx) and lock-discipline rules (REPRO2xx); see
  :mod:`repro.analysis`;
* ``trace``    — run a pipeline script under the tracer and export its
  span tree (Chrome trace JSON / text summary / JSONL);
* ``locks``    — run a pipeline script under the runtime lock-order
  sanitizer (:mod:`repro.engine.lockwatch`) and report the lock-order
  graph, per-site hold/contention stats, and any deadlock hazards;
* ``chaos``    — run a pipeline script under a seeded
  :class:`~repro.engine.faults.FaultPlan` (injected task errors, worker
  kills, straggler delays, corrupt reads) and report what fired and what
  recovered; ``--parity`` asserts the faulted run's output matches a
  fault-free run.

Any subcommand also accepts ``--profile [PATH]``, which installs a tracer
around the whole command and writes the same three trace files.

Usage::

    python -m repro.cli generate nyc --records 50000 --out data/nyc
    python -m repro.cli select data/nyc --bbox -74.0 40.6 -73.9 40.8 \
        --time 1356998400 1357603200
    python -m repro.cli --profile traces/select select data/nyc --bbox ...
    python -m repro.cli serve data/nyc --port 7071 --tenant ml-team:100:40:16
    python -m repro.cli query --port 7071 --bbox -74.0 40.6 -73.9 40.8 --format json
    python -m repro.cli lint src/ tests/ --format github
    python -m repro.cli --backend process trace examples/quickstart.py
    python -m repro.cli --backend process chaos examples/quickstart.py --parity
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.datasets import (
    generate_air_records,
    generate_nyc_events,
    generate_osm_pois,
    generate_porto_trajectories,
)
from repro.engine import EngineContext
from repro.geometry import Envelope
from repro.partitioners import TSTRPartitioner
from repro.stio import DatasetMetadata, StDataset, save_dataset
from repro.temporal import Duration

_GENERATORS = {
    "nyc": ("event", lambda n, seed: generate_nyc_events(n, seed=seed)),
    "porto": ("trajectory", lambda n, seed: generate_porto_trajectories(n, seed=seed)),
    "air": (
        "event",
        lambda n, seed: generate_air_records(
            n_stations=max(1, n // 100), hours=100, seed=seed
        ),
    ),
    "osm": ("event", lambda n, seed: generate_osm_pois(n, seed=seed)),
}


def _rule_ids(value: str) -> list[str]:
    """argparse type for comma-separated rule-id lists."""
    return [v.strip() for v in value.split(",") if v.strip()]


def _make_ctx(args: argparse.Namespace) -> EngineContext:
    return EngineContext(default_parallelism=args.parallelism, backend=args.backend)


def _cmd_generate(args: argparse.Namespace) -> int:
    kind, generator = _GENERATORS[args.dataset]
    instances = generator(args.records, args.seed)
    ctx = _make_ctx(args)
    partitioner = TSTRPartitioner(args.gt, args.gs) if args.indexed else None
    save_dataset(args.out, instances, kind, partitioner=partitioner, ctx=ctx)
    print(
        f"wrote {len(instances):,} {kind} records to {args.out} "
        f"({'T-STR indexed' if args.indexed else 'unindexed'})"
    )
    ctx.stop()
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    ctx = _make_ctx(args)
    ds = StDataset(args.path)
    meta = ds.metadata()
    rdd, _ = ds.read(ctx)
    StDataset.write_rdd(
        args.out or args.path,
        rdd,
        meta.instance_type,
        partitioner=TSTRPartitioner(args.gt, args.gs),
    )
    print(
        f"re-indexed {meta.total_records:,} records "
        f"({meta.instance_type}) with T-STR(gt={args.gt}, gs={args.gs})"
    )
    ctx.stop()
    return 0


def _parse_query(args: argparse.Namespace) -> tuple[Envelope | None, Duration | None]:
    spatial = None
    temporal = None
    if args.bbox:
        min_x, min_y, max_x, max_y = args.bbox
        spatial = Envelope(min_x, min_y, max_x, max_y)
    if args.time:
        temporal = Duration(args.time[0], args.time[1])
    return spatial, temporal


def _cmd_select(args: argparse.Namespace) -> int:
    spatial, temporal = _parse_query(args)
    if spatial is None and temporal is None:
        print("select needs --bbox and/or --time", file=sys.stderr)
        return 2
    ctx = _make_ctx(args)
    from repro.core import Selector

    selector = Selector(spatial, temporal)
    start = time.perf_counter()
    selected = selector.select(ctx, args.path, use_metadata=not args.full_scan)
    if args.format == "json":
        # The canonical result document — built by the same codec the
        # serve protocol uses, so daemon answers are byte-for-byte
        # comparable to this output.  Nothing else goes to stdout.
        from repro.serve.protocol import records_document

        print(records_document(selected.collect()))
        ctx.stop()
        return 0
    count = selected.count()
    elapsed = time.perf_counter() - start
    stats = selector.last_load_stats
    print(f"selected {count:,} records in {elapsed:.2f}s ({args.backend} backend)")
    if stats is not None:
        print(
            f"partitions read: {stats.partitions_read}/{stats.partitions_total}  "
            f"records deserialized: {stats.records_loaded:,}  "
            f"bytes read: {stats.bytes_read:,}"
        )
    ctx.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QueryServer, ServeConfig, TenantPolicy

    tenants = {}
    for spec in args.tenant or []:
        try:
            name, policy = TenantPolicy.from_spec(spec)
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        tenants[name] = policy
    default = TenantPolicy()
    if args.default_tenant:
        try:
            _, default = TenantPolicy.from_spec(f"default:{args.default_tenant}")
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        cache_bytes=args.cache_bytes,
        index_cache_bytes=args.index_cache_bytes,
        default_tenant=default,
        tenants=tenants,
        allow_shutdown=not args.no_remote_shutdown,
    )
    ctx = _make_ctx(args)
    server = QueryServer(args.path, config, ctx=ctx)
    host, port = server.start()
    meta = server.state.meta
    print(
        f"serving {args.path} ({meta.total_records:,} {meta.instance_type} "
        f"records, {len(meta.partitions)} partitions, generation "
        f"{meta.generation}) on {host}:{port} "
        f"({args.backend} backend, {args.workers} query workers)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("serve: shut down cleanly")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.serve import STATUS_OK, STATUS_SHED, ServeClient, ServeError
    from repro.serve.protocol import result_document

    try:
        with ServeClient(args.host, args.port, tenant=args.tenant) as client:
            if args.ping:
                print(json.dumps(client.ping(), indent=2, sort_keys=True))
                return 0
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.shutdown:
                client.shutdown()
                print("daemon acknowledged shutdown")
                return 0
            if not args.bbox and not args.time:
                print("query needs --bbox and/or --time", file=sys.stderr)
                return 2
            response = client.query(
                bbox=args.bbox, time_range=args.time, priority=args.priority
            )
    except ServeError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 1
    status = response.get("status")
    if status == STATUS_SHED:
        print(
            f"SHED ({response.get('reason')}) for tenant "
            f"{response.get('tenant')!r}",
            file=sys.stderr,
        )
        return 3
    if status != STATUS_OK:
        print(f"query: {response.get('error', response)}", file=sys.stderr)
        return 1
    if args.format == "json":
        # Identical bytes to `repro select --format json` on the same range.
        print(result_document(response))
        return 0
    print(
        f"{response['count']:,} records (cached={response['cached']}, "
        f"generation={response['generation']}, queue={response['queue_ms']}ms, "
        f"exec={response['exec_ms']}ms)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintOptions, lint_paths, render, rules_by_id

    if args.list_rules:
        for rule_id, rule in sorted(rules_by_id().items()):
            summary = rule.description.split(". ")[0].rstrip(".")
            print(f"{rule_id}  {rule.name:<28} {summary}")
        return 0
    if not args.paths:
        print("lint needs at least one path (or --list-rules)", file=sys.stderr)
        return 2
    options = LintOptions(
        assume_cloudpickle=False if args.no_cloudpickle else None
    )
    try:
        report = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            options=options,
        )
    except ValueError as exc:  # unknown rule id in --select/--ignore
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    output = render(report, args.format)
    if output:
        print(output)
    from repro.analysis import Severity

    threshold = Severity[args.fail_on.upper()]
    return 1 if report.fails_at(threshold) else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os
    import runpy

    from repro.obs import Tracer, installed, text_tree, write_trace_files

    script = Path(args.script)
    if not script.exists():
        print(f"trace: no such script: {script}", file=sys.stderr)
        return 2
    out = args.out or Path("traces") / script.stem
    tracer = Tracer()
    # Scripts typically build their own EngineContext; REPRO_DEFAULT_BACKEND
    # steers those constructions without editing the script.
    previous_backend = os.environ.get("REPRO_DEFAULT_BACKEND")
    os.environ["REPRO_DEFAULT_BACKEND"] = args.backend
    try:
        with installed(tracer):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        if previous_backend is None:
            os.environ.pop("REPRO_DEFAULT_BACKEND", None)
        else:
            os.environ["REPRO_DEFAULT_BACKEND"] = previous_backend
    paths = write_trace_files(tracer, out)
    if not args.quiet:
        print(text_tree(tracer))
        print()
    for kind, path in sorted(paths.items()):
        print(f"{kind} trace written to {path}")
    return 0


def _cmd_locks(args: argparse.Namespace) -> int:
    import json
    import os
    import runpy

    from repro.engine import lockwatch

    script = Path(args.script)
    if not script.exists():
        print(f"locks: no such script: {script}", file=sys.stderr)
        return 2
    out = args.out or Path("traces") / f"locks-{script.stem}.json"
    previous_backend = os.environ.get("REPRO_DEFAULT_BACKEND")
    os.environ["REPRO_DEFAULT_BACKEND"] = args.backend
    watcher = lockwatch.install()
    watcher.reset()
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        if previous_backend is None:
            os.environ.pop("REPRO_DEFAULT_BACKEND", None)
        else:
            os.environ["REPRO_DEFAULT_BACKEND"] = previous_backend
    snapshot = watcher.snapshot()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True), encoding="utf-8")
    if not args.quiet:
        print(lockwatch.format_report(snapshot))
        print()
    print(f"lock-order graph written to {out}")
    return 1 if snapshot["violations"] else 0


def _run_script_traced(script: Path, backend: str, fault_env: str | None):
    """Run ``script`` under a fresh tracer, capturing its stdout.

    ``fault_env`` is the ``REPRO_FAULT_PLAN`` value for the run (``None``
    runs fault-free); the variable is restored afterwards either way, as
    is ``REPRO_DEFAULT_BACKEND``.  Returns ``(stdout_text, tracer)``.
    """
    import contextlib
    import io
    import os
    import runpy

    from repro.engine.faults import FAULT_PLAN_ENV
    from repro.obs import Tracer, installed

    tracer = Tracer()
    saved = {
        name: os.environ.get(name) for name in ("REPRO_DEFAULT_BACKEND", FAULT_PLAN_ENV)
    }
    os.environ["REPRO_DEFAULT_BACKEND"] = backend
    if fault_env is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    else:
        os.environ[FAULT_PLAN_ENV] = fault_env
    captured = io.StringIO()
    try:
        with installed(tracer), contextlib.redirect_stdout(captured):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return captured.getvalue(), tracer


def _cmd_chaos(args: argparse.Namespace) -> int:
    import re

    from repro.engine.faults import FaultPlan
    from repro.obs import text_tree, write_trace_files

    script = Path(args.script)
    if not script.exists():
        print(f"chaos: no such script: {script}", file=sys.stderr)
        return 2
    if args.plan is not None:
        plan = FaultPlan.from_spec(args.plan)
    else:
        mix = {
            "task_error": args.error,
            "worker_kill": args.kill,
            "delay": args.delay,
            "corrupt_read": args.corrupt,
        }
        if not any(p is not None for p in mix.values()):
            # No explicit mix: a default storm that every backend survives.
            mix = {
                "task_error": 0.2,
                "worker_kill": 0.1,
                "delay": 0.2,
                "corrupt_read": 0.2,
            }
        plan = FaultPlan.chaos(
            seed=args.seed,
            delay_seconds=args.delay_seconds,
            **{k: (v or 0.0) for k, v in mix.items()},
        )
    out = args.out or Path("traces") / f"chaos-{script.stem}"

    clean_output = None
    if args.parity:
        clean_output, _ = _run_script_traced(script, args.backend, None)
    chaos_output, tracer = _run_script_traced(script, args.backend, plan.to_json())

    if not args.quiet:
        sys.stdout.write(chaos_output)
        print(text_tree(tracer))
        print()
    counters = tracer.counters
    fault_keys = (
        "faults_injected",
        "fault_delay_seconds",
        "worker_losses",
        "partitions_recomputed",
        "backend_demotions",
        "partitions_quarantined",
        "checkpoint_saves",
        "checkpoint_resumes",
    )
    summary = {k: counters[k] for k in fault_keys if counters.get(k)}
    print(f"fault plan: seed={plan.seed} rules={len(plan.rules)} ({args.backend} backend)")
    if summary:
        print(
            "chaos summary: "
            + "  ".join(f"{k}={v:g}" for k, v in summary.items())
        )
    else:
        print("chaos summary: no faults fired (raise probabilities or change seed)")
    paths = write_trace_files(tracer, out)
    for kind, path in sorted(paths.items()):
        print(f"{kind} trace written to {path}")

    if args.parity:
        import tempfile

        ignore = re.compile(args.ignore_lines) if args.ignore_lines else None
        # Temp paths are run-unique by design; mask them so scripts that
        # print their scratch workspace still compare equal.
        tmp_path = re.compile(re.escape(tempfile.gettempdir()) + r"/\S+")

        def keep(text: str) -> list[str]:
            return [
                tmp_path.sub("<TMP>", line)
                for line in text.splitlines()
                if not (ignore and ignore.search(line))
            ]

        clean_lines, chaos_lines = keep(clean_output), keep(chaos_output)
        if clean_lines != chaos_lines:
            print("parity: FAIL — chaos output differs from fault-free run:")
            import difflib

            for line in difflib.unified_diff(
                clean_lines, chaos_lines, "fault-free", "chaos", lineterm="", n=1
            ):
                print(f"  {line}")
            return 1
        print(f"parity: OK — {len(chaos_lines)} output lines identical to fault-free run")
    return 0


def _cmd_convert_format(args: argparse.Namespace) -> int:
    meta = DatasetMetadata.load(args.path)
    if meta.block_format == "v2" and args.out is None:
        print(f"{args.path} already uses block format v2; nothing to do")
        return 0
    start = time.perf_counter()
    converted = StDataset(args.path).convert(out=args.out)
    elapsed = time.perf_counter() - start
    target = args.out or args.path
    print(
        f"converted {meta.total_records:,} records "
        f"({len(meta.partitions)} partitions) {meta.block_format} -> v2 "
        f"at {target} in {elapsed:.2f}s "
        f"(generation {converted.metadata().generation})"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    meta = DatasetMetadata.load(args.path)
    non_empty = [p for p in meta.partitions if p.count]
    sizes = [p.count for p in non_empty]
    watermark = (
        f"{meta.watermark:.3f}" if meta.watermark is not None else "(none)"
    )
    summary = [
        ("dataset", str(args.path)),
        ("instance type", meta.instance_type),
        ("block format", meta.block_format),
        ("generation", str(meta.generation)),
        ("watermark", watermark),
        ("partitions", str(len(meta.partitions))),
        ("records", f"{meta.total_records:,}"),
    ]
    if sizes:
        summary.append(
            (
                "partition sizes",
                f"min={min(sizes)} max={max(sizes)} "
                f"mean={sum(sizes) / len(sizes):.1f}",
            )
        )
    label_width = max(len(label) for label, _ in summary)
    for label, value in summary:
        print(f"{label:<{label_width}}  {value}")
    if not meta.partitions:
        return 0
    print()
    rows = [
        (
            str(i),
            p.filename,
            meta.block_format,
            f"{p.count:,}",
            f"[{p.bounds.mins[2]:.0f}, {p.bounds.maxs[2]:.0f}]"
            if p.count
            else "(empty)",
        )
        for i, p in enumerate(meta.partitions)
    ]
    header = ("part", "file", "format", "records", "time range")
    widths = [
        max(len(header[col]), max(len(r[col]) for r in rows))
        for col in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ST4ML reproduction: dataset tooling"
    )
    parser.add_argument("--parallelism", type=int, default=8)
    parser.add_argument(
        "--backend",
        choices=("sequential", "thread", "process"),
        default="sequential",
        help="stage-execution backend (process runs tasks on a multiprocess "
        "pool with straggler re-execution)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="traces/profile",
        default=None,
        metavar="PATH",
        help="profile the command: install a tracer and write "
        "PATH.trace.json (Chrome/Perfetto), PATH.summary.txt, and "
        "PATH.jsonl (default PATH: traces/profile)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a seeded dataset")
    gen.add_argument("dataset", choices=sorted(_GENERATORS))
    gen.add_argument("--records", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=17)
    gen.add_argument("--out", type=Path, required=True)
    gen.add_argument("--indexed", action="store_true", default=True)
    gen.add_argument("--no-indexed", dest="indexed", action="store_false")
    gen.add_argument("--gt", type=int, default=4)
    gen.add_argument("--gs", type=int, default=4)
    gen.set_defaults(func=_cmd_generate)

    idx = sub.add_parser("index", help="(re)build the T-STR on-disk index")
    idx.add_argument("path", type=Path)
    idx.add_argument("--out", type=Path, default=None)
    idx.add_argument("--gt", type=int, default=4)
    idx.add_argument("--gs", type=int, default=4)
    idx.set_defaults(func=_cmd_index)

    sel = sub.add_parser("select", help="metadata-pruned ST range selection")
    sel.add_argument("path", type=Path)
    sel.add_argument("--bbox", type=float, nargs=4, metavar=("MIN_X", "MIN_Y", "MAX_X", "MAX_Y"))
    sel.add_argument("--time", type=float, nargs=2, metavar=("START", "END"))
    sel.add_argument("--full-scan", action="store_true", help="bypass the metadata index")
    sel.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="json prints the canonical result document (the exact bytes "
        "the serve protocol returns for the same range)",
    )
    sel.set_defaults(func=_cmd_select)

    serve = sub.add_parser(
        "serve",
        help="long-lived query daemon with admission control and caching",
        description="Keeps the dataset's metadata, decoded blocks, "
        "selection indexes, result cache, and execution workers resident, "
        "answering concurrent ST-range queries over line-delimited JSON. "
        "Overloaded tenants receive explicit SHED responses (token-bucket "
        "rate limits, in-flight caps, bounded queue) — never silent drops. "
        "--profile records every request as a span in the trace exports.",
    )
    serve.add_argument("path", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick an ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="query worker threads (default 4)"
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded execution queue depth; overflow sheds (default 64)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=60.0,
        help="server-side seconds before an admitted request errors out",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=64 << 20,
        help="result-cache byte budget (default 64 MiB)",
    )
    serve.add_argument(
        "--index-cache-bytes", type=int, default=256 << 20,
        help="selection-index cache byte budget (default 256 MiB)",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        metavar="NAME:RATE[:BURST[:INFLIGHT]]",
        help="per-tenant admission policy (repeatable); RATE is tokens/sec "
        "(0 = no refill: exactly BURST requests ever), BURST the bucket "
        "size, INFLIGHT the concurrent-request cap",
    )
    serve.add_argument(
        "--default-tenant",
        metavar="RATE[:BURST[:INFLIGHT]]",
        default=None,
        help="admission policy for tenants not named by --tenant",
    )
    serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="reject the protocol's shutdown op (stop with SIGINT instead)",
    )
    serve.set_defaults(func=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="query a running serve daemon",
        description="Sends one ST-range query (or a control op) to a "
        "daemon started with `repro serve`.  --format json prints the "
        "same canonical result document as `repro select --format json`. "
        "Exit code 3 means the request was shed.",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--tenant", default="default")
    query.add_argument(
        "--bbox", type=float, nargs=4, metavar=("MIN_X", "MIN_Y", "MAX_X", "MAX_Y")
    )
    query.add_argument("--time", type=float, nargs=2, metavar=("START", "END"))
    query.add_argument(
        "--priority", type=int, default=None,
        help="queue priority (lower runs sooner; default 10)",
    )
    query.add_argument("--format", choices=("text", "json"), default="text")
    query.add_argument(
        "--stats", action="store_true", help="print the daemon's stats snapshot"
    )
    query.add_argument("--ping", action="store_true", help="liveness probe")
    query.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to stop"
    )
    query.set_defaults(func=_cmd_query)

    convert = sub.add_parser(
        "convert-format",
        help="upgrade a dataset of v1 blocks to the current block format",
        description="Rewrites every v1 (whole-partition pickle) block as "
        "an mmap-able columnar v2 block, preserving partition layout, "
        "record order, codec, watermark and bounds — selections answer "
        "identically before and after.  In place by default (the "
        "generation bumps and the old blocks are removed); --out writes a "
        "converted copy instead.",
    )
    convert.add_argument("path", type=Path)
    convert.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the converted dataset here instead of in place",
    )
    convert.set_defaults(func=_cmd_convert_format)

    info = sub.add_parser("info", help="print dataset metadata")
    info.add_argument("path", type=Path)
    info.set_defaults(func=_cmd_info)

    from repro.analysis import FORMATS

    lint = sub.add_parser(
        "lint",
        help="static distributed-correctness and lock-discipline checks",
        description="AST-based lint: the REPRO1xx family checks code that "
        "ships closures into engine stages (capture safety, picklability, "
        "determinism, broadcast immutability, partitioner contracts); the "
        "REPRO2xx family checks lock discipline (guarded mutation, "
        "balanced acquire/release, blocking calls under locks, global "
        "lock order, condition predicates, locks in stage closures).",
    )
    lint.add_argument("paths", nargs="*", type=Path)
    lint.add_argument("--format", choices=FORMATS, default="text")
    lint.add_argument(
        "--select",
        type=_rule_ids,
        action="extend",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        type=_rule_ids,
        action="extend",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--no-cloudpickle",
        action="store_true",
        help="lint as if cloudpickle were unavailable (stdlib pickle "
        "only), enabling the stricter REPRO105 closure checks",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    lint.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="warning",
        help="minimum finding severity that makes the exit code 1 "
        "(default: warning; 'error' still prints warnings but lets CI "
        "gate on errors only)",
    )
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="run a pipeline script under the tracer and export the trace",
        description="Executes SCRIPT (as __main__) with a tracer installed "
        "globally, then writes the Chrome trace-event JSON, text summary "
        "tree, and JSONL exports.  The script's EngineContexts pick up "
        "--backend via REPRO_DEFAULT_BACKEND.",
    )
    trace.add_argument("script", type=Path)
    trace.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path prefix (default: traces/<script-stem>)",
    )
    trace.add_argument(
        "--quiet", action="store_true", help="skip printing the summary tree"
    )
    trace.set_defaults(func=_cmd_trace)

    locks = sub.add_parser(
        "locks",
        help="run a script under the lock-order sanitizer and report",
        description="Executes SCRIPT (as __main__) with the runtime "
        "lock-order sanitizer installed (the REPRO_LOCK_SANITIZER=1 "
        "instrumentation): every Lock/RLock created by repro modules is "
        "watched, per-thread acquisition stacks build the global "
        "lock-order graph, and cycles (deadlock hazards) are reported.  "
        "Writes the graph + per-site hold/contention stats as JSON; "
        "exits 1 when any violation was recorded.",
    )
    locks.add_argument("script", type=Path)
    locks.add_argument(
        "--out",
        type=Path,
        default=None,
        help="JSON output path (default: traces/locks-<script-stem>.json)",
    )
    locks.add_argument(
        "--quiet", action="store_true", help="skip printing the report"
    )
    locks.set_defaults(func=_cmd_locks)

    chaos = sub.add_parser(
        "chaos",
        help="run a pipeline script under deterministic fault injection",
        description="Executes SCRIPT with a seeded FaultPlan active "
        "(REPRO_FAULT_PLAN) and a tracer installed, prints a fault/recovery "
        "summary, and writes the trace exports.  --parity additionally runs "
        "the script fault-free first and fails (exit 1) unless both runs "
        "print identical output — the determinism check the chaos-smoke CI "
        "job enforces.",
    )
    chaos.add_argument("script", type=Path)
    chaos.add_argument(
        "--plan",
        type=Path,
        default=None,
        help="JSON fault-plan file (overrides the probability flags)",
    )
    chaos.add_argument("--seed", type=int, default=17)
    chaos.add_argument(
        "--error", type=float, default=None, metavar="P",
        help="per-attempt probability of an injected task error",
    )
    chaos.add_argument(
        "--kill", type=float, default=None, metavar="P",
        help="per-attempt probability of killing the executing worker",
    )
    chaos.add_argument(
        "--delay", type=float, default=None, metavar="P",
        help="per-attempt probability of an injected straggler delay",
    )
    chaos.add_argument(
        "--corrupt", type=float, default=None, metavar="P",
        help="per-read probability of corrupting a block file's bytes",
    )
    chaos.add_argument(
        "--delay-seconds", type=float, default=0.02,
        help="duration of each injected delay (default 0.02)",
    )
    chaos.add_argument(
        "--parity",
        action="store_true",
        help="also run fault-free and require identical script output",
    )
    chaos.add_argument(
        "--ignore-lines",
        default=r"^engine work:",
        metavar="REGEX",
        help="output lines matching REGEX are excluded from the parity "
        "comparison (default: '^engine work:' — attempt counters "
        "legitimately differ under retries)",
    )
    chaos.add_argument(
        "--out",
        type=Path,
        default=None,
        help="trace output path prefix (default: traces/chaos-<script-stem>)",
    )
    chaos.add_argument(
        "--quiet",
        action="store_true",
        help="skip echoing script output and the summary tree",
    )
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile is not None and args.command != "trace":
        from repro.obs import Tracer, installed, write_trace_files

        tracer = Tracer()
        with installed(tracer):
            code = args.func(args)
        paths = write_trace_files(tracer, args.profile)
        for kind, path in sorted(paths.items()):
            print(f"{kind} trace written to {path}")
        return code
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
