"""``compare A... -- B...``: is set B worse than set A, row by row?

Each argument is a results file of the ``run`` command.  For every
(end-to-end metric, workload) row the two sets' medians and quartiles are
printed with a verdict from the bounds in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — not regressed, but a set's own spread (inter-quartile
  distance over median) is wider than the bound, so "unchanged" cannot be
  claimed either;
* ``ok``         — neither.

Exit status is 1 on any regression or a higher ``failed_frac``, and 2 when
the sets did not run the same inputs (digests differ).
"""

from __future__ import annotations

import json
import statistics

from benchmarks.e2e import paths, stats


def load_bounds() -> dict:
    """name -> (better, bound) for every end-to-end metric of BENCHMARK.json."""
    with open(paths.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """(verdict, relative worsening of B's median over A's; > 0 is worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed", worse
    if max(stats.spread(a), stats.spread(b)) > bound:
        return "unresolved", worse
    return "ok", worse


def compare(files_a: list[str], files_b: list[str], bounds: dict | None = None) -> tuple[int, list]:
    """Returns (exit status, rows); a row is a dict ready to print."""
    bounds = bounds or load_bounds()
    sets = []
    for files in (files_a, files_b):
        docs = []
        for name in files:
            with open(name) as f:
                docs.append(json.load(f))
        sets.append(docs)
    rows, status = [], 0
    names = sorted(set.intersection(*(set(d["workloads"]) for docs in sets for d in docs)))
    for workload in names:
        runs = [[d["workloads"][workload] for d in docs] for docs in sets]
        if len({r["digest"] for side in runs for r in side}) != 1:
            rows.append({"workload": workload, "metric": "*", "verdict": "different inputs"})
            status = 2
            continue
        for metric, (better, bound) in bounds.items():
            a, b = ([r["end_to_end"][metric]["value"] for r in side] for side in runs)
            word, worse = verdict(a, b, better, bound)
            rows.append({
                "workload": workload, "metric": metric, "bound": bound,
                "a": stats.quartiles(a), "b": stats.quartiles(b),
                "worse": worse, "verdict": word,
            })
            if word == "regressed" and status == 0:
                status = 1
        failed = [max(r["failed_frac"] for r in side) for side in runs]
        word = "regressed" if failed[1] > failed[0] else "ok"
        rows.append({
            "workload": workload, "metric": "failed_frac", "bound": 0.0,
            "a": (failed[0],) * 3, "b": (failed[1],) * 3,
            "worse": failed[1] - failed[0], "verdict": word,
        })
        if word == "regressed" and status == 0:
            status = 1
    return status, rows


def render(rows: list) -> str:
    lines = [f"{'workload':18}{'metric':20}{'A q1/med/q3':>36}{'B q1/med/q3':>36}"
             f"{'worse':>9}{'bound':>7}  verdict"]
    for r in rows:
        if "a" not in r:
            lines.append(f"{r['workload']:18}{r['metric']:20}{'':>88}  {r['verdict']}")
            continue
        a, b = ("/".join(f"{v:.4g}" for v in r[side]) for side in "ab")
        lines.append(
            f"{r['workload']:18}{r['metric']:20}{a:>36}{b:>36}"
            f"{r['worse']:>+9.3f}{r['bound']:>7.2f}  {r['verdict']}"
        )
    return "\n".join(lines)
