"""``PYTHONPATH=src python -m benchmarks.e2e {run,compare,selftest}``."""

from __future__ import annotations

import argparse
import json
import sys
import time

from benchmarks.e2e import paths


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"    {name:32}{value:>14} {m['unit']}")


def cmd_run(args) -> int:
    paths.require_source()
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import NOMINAL_SECONDS, WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    doc = {
        "schema": 1, "seed": args.seed, "seconds": NOMINAL_SECONDS, "smoke": args.smoke,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {},
    }
    ok = True
    for name in names:
        plain = harness.run_workload(name, args.seed, NOMINAL_SECONDS, False, args.smoke)
        traced = harness.run_workload(name, args.seed, NOMINAL_SECONDS, True, args.smoke)
        failed = plain["failed"] + traced["failed"]
        attempted = plain["attempted"] + traced["attempted"]
        entry = {
            "digest": plain["digest"], "why": WORKLOADS[name].why,
            "ops": plain["attempted"], "staged_ops": traced["attempted"],
            "rounds": plain["rounds"], "tail_pct": plain["tail_pct"],
            "measured_wall_s": plain["measured_wall_s"],
            "correct": plain["correct"] and traced["correct"],
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "problems": plain["problems"] + traced["problems"],
            "end_to_end": plain["metrics"], "per_layer": traced["metrics"],
        }
        doc["workloads"][name] = entry
        ok = ok and entry["correct"]
        print(f"{name}: {entry['ops']} ops in {entry['rounds']} rounds, "
              f"{entry['measured_wall_s']:.1f} s, "
              f"op_tail = p{entry['tail_pct']}, digest {entry['digest']}, "
              f"{'correct' if entry['correct'] else 'WRONG'}")
        _print_metrics("end to end (nothing staged or traced)", {
            **entry["end_to_end"],
            "failed_frac": {"value": entry["failed_frac"], "unit": "ratio"},
        })
        _print_metrics(f"per layer (staged pass, {entry['staged_ops']} ops)", entry["per_layer"])
        for problem in entry["problems"]:
            print(f"  PROBLEM {problem}")
    out = args.out or str(paths.OUT / f"results-seed{args.seed}{'-smoke' if args.smoke else ''}.json")
    paths.OUT.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    print(f"wrote {out}; traces in {paths.OUT}/trace-<workload>.jsonl")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    from benchmarks.e2e import compare

    if "--" not in args.files:
        print("compare needs two sets of result files: A... -- B...", file=sys.stderr)
        return 2
    split = args.files.index("--")
    status, rows = compare.compare(args.files[:split], args.files[split + 1:])
    print(compare.render(rows))
    return status


def cmd_selftest(args) -> int:
    import unittest

    suite = unittest.defaultTestLoader.discover(str(paths.HERE / "tests"))
    return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="all workloads, both passes, every metric, one results file")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--workload", default=None)
    run.add_argument("--smoke", action="store_true", help="data / 10, ops / 4, < 20 s in all")
    run.add_argument("--out", default=None, help="results file (default under _out/)")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="A... -- B...: verdict per (metric, workload) row")
    cmp_.add_argument("files", nargs=argparse.REMAINDER)
    cmp_.set_defaults(func=cmd_compare)
    test = sub.add_parser("selftest", help="the harness's own tests")
    test.set_defaults(func=cmd_selftest)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
