"""Contract entry: one workload, one pass, one JSON line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``BENCHMARK.json``).  Exits non-zero, printing no
result, where there is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import paths  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    from benchmarks.e2e.workloads import NOMINAL_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    paths.require_source()
    from benchmarks.e2e import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"benchmarks.e2e: {problem}", file=sys.stderr)
    print(harness.contract_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
