"""Answer checks.  Everything here runs after the timed pass and after the
RSS reading.  Each check returns ``(wrong, problems)``: one entry in
``wrong`` per failed thing — the index of an op that answered wrongly, or a
label for a check that is about the whole run — and the same in words.
``failed`` counts the distinct entries.
"""

from __future__ import annotations

import hashlib

import numpy as np


#: Relative tolerance of a replayed cell speed (see ``check_traj``).
SPEED_RTOL = 1e-9
#: Pool queries of ``serve_mix`` compared with the one-shot Selector.
ONE_SHOT_QUERIES = 10


def document_hash(document: str) -> str:
    """What a result document is remembered by (documents run to megabytes)."""
    return hashlib.blake2b(document.encode(), digest_size=16).hexdigest()


def _in_range(cols: dict, box) -> np.ndarray:
    """Closed-range membership, the Selector's contract."""
    x0, y0, x1, y1, t0, t1 = box
    return (
        (cols["lon"] >= x0) & (cols["lon"] <= x1)
        & (cols["lat"] >= y0) & (cols["lat"] <= y1)
        & (cols["t"] >= t0) & (cols["t"] <= t1)
    )


def _cell(values: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Regular-grid cell of each value; the upper edge belongs to the last cell."""
    return np.minimum((np.floor((values - lo) / ((hi - lo) / n))).astype(np.int64), n - 1)


def flow_oracle(cols: dict, kind: str, box, grid) -> np.ndarray:
    """Brute-force histogram of the raw arrays: the tensor the op must return."""
    mask = _in_range(cols, box)
    x0, y0, x1, y1, t0, t1 = box
    if kind == "hourly_flow":
        n = int(np.ceil((t1 - t0) / grid[0]))
        return np.bincount(_cell(cols["t"][mask], t0, t1, n), minlength=n).astype(np.float64)
    nx, ny, nt = grid
    flat = (
        _cell(cols["t"][mask], t0, t1, nt) * ny + _cell(cols["lat"][mask], y0, y1, ny)
    ) * nx + _cell(cols["lon"][mask], x0, x1, nx)
    return np.bincount(flat, minlength=nt * ny * nx).astype(np.float64).reshape(nt, ny, nx)


def check_flow(cols: dict, kind: str, boxes, grid, answers) -> tuple[list, list]:
    """Every op's tensor equals the oracle's, exactly."""
    wrong, problems = [], []
    for i, (box, answer) in enumerate(zip(boxes, answers)):
        if answer is None:
            continue  # already counted as an op that raised
        expected = flow_oracle(cols, kind, box, grid)
        if answer.shape != expected.shape or not np.array_equal(answer, expected):
            wrong.append(i)
            problems.append(f"op {i}: tensor differs from the histogram oracle")
    return wrong, problems


def check_traj(replay, boxes, cls, answers) -> tuple[list, list]:
    """One op per range class replayed from an in-memory list with no
    partitioner: same cells occupied, same speeds.

    ``replay(box)`` returns ((counts, speeds) from the list, counts from disk).
    Speeds are compared to 1e-9 relative, not bit for bit: a cell's mean is
    a float sum whose order follows the partitioning, and the replay has
    none.  Counts are exact.
    """
    wrong, problems = [], []
    for c in sorted(set(cls.tolist())):
        i = int(np.flatnonzero(cls == c)[0])
        if answers[i] is None:
            continue
        (counts, speeds), disk_counts = replay(boxes[i])
        if not np.array_equal(counts, disk_counts):
            wrong.append(i)
            problems.append(f"op {i}: per-cell counts differ between list and disk source")
        elif not np.array_equal(answers[i] > 0, (counts > 0) & (speeds > 0)):
            wrong.append(i)
            problems.append(f"op {i}: occupied cells differ from the replay")
        elif not np.allclose(answers[i], speeds, rtol=SPEED_RTOL, atol=0.0):
            wrong.append(i)
            problems.append(f"op {i}: speeds differ from the replay beyond {SPEED_RTOL}")
    return wrong, problems


def check_stream(vector, reports, fed: int, injected_late: int, batch_vector, stored: int
                 ) -> tuple[list, list]:
    """Final incremental feature == from-scratch batch run; every record fed is
    stored and in exactly one cell; the late count is the injected one."""
    problems = []
    if vector.shape != batch_vector.shape or not np.array_equal(vector, batch_vector):
        problems.append("final incremental result differs from Pipeline.run over the feed")
    if not int(vector.sum()) == fed == stored:
        problems.append(f"cells sum to {int(vector.sum())}, dataset holds {stored}, fed {fed}")
    late = sum(r.get("late_records", 0) for r in reports)
    if late != injected_late:
        problems.append(f"late records counted {late} != injected {injected_late}")
    return list(problems), problems


def check_serve(replies: list, one_shot, pool) -> tuple[list, list]:
    """Every timed reply ok and self-consistent, one document per pool query
    across all its repeats, and ``ONE_SHOT_QUERIES`` pool queries equal to the
    one-shot Selector's document.  ``one_shot(box)`` returns that document's
    hash.  ``wrong`` holds indexes into ``replies``."""
    wrong, problems = [], []
    documents: dict[int, str] = {}
    for i, row in enumerate(replies):
        first = documents.setdefault(row["q"], row["doc"])
        if row["status"] != "ok" or not row["count_ok"] or row["doc"] != first:
            problems.append(f"query {row['q']}: status {row['status']!r}, count_ok "
                            f"{row['count_ok']}, repeat-identical {row['doc'] == first}")
            if row["round"] >= 0:
                wrong.append(i)
    asked = sorted(documents)
    step = max(1, len(asked) // ONE_SHOT_QUERIES)
    for q in asked[::step][:ONE_SHOT_QUERIES]:
        if one_shot(pool[q]) != documents[q]:
            problems.append(f"pool query {q}: served document != one-shot Selector document")
            wrong.append(f"one-shot {q}")
    return wrong, problems
