"""Where the benchmark lives, what it measures, and where it may write."""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind (work dirs, results, traces); git-ignored.
OUT = HERE / "_out"


def require_source() -> None:
    """Put the system under test on ``sys.path``; exit 2 when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no system to measure at {SRC}/repro", file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(SRC), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def child_env() -> dict:
    """Environment of the set-up, measured and daemon subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    # The measured numbers are the defaults': no tracing, no fault plan,
    # no backend override leaking in from the caller's shell.
    for name in list(env):
        if name.startswith("REPRO_"):
            del env[name]
    return env
