"""The set-up process: generate inputs, write datasets, write the plan.

Runs once per set-up repetition, in its own process, so the generator
never shares an address space with the measured code.  Prints one JSON
line: set-up seconds, the write path's share of them, and the input digest.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time

from benchmarks.e2e import adapter, workloads


def main(argv: list[str]) -> int:
    name, seed, seconds, smoke, out = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    start = time.perf_counter()
    built = workloads.build(name, seed, seconds, smoke)
    plan = built["plan"]
    plan["path"] = os.path.join(out, "dataset")
    write_s = 0.0
    if built["dataset"] == "feed":
        # The feeds reach the measured process as files; each dataset is
        # created there, by its feed's first ingest.
        plan["batch_files"] = []
        plan["feed_paths"] = [f"{plan['path']}-{f}" for f in range(len(built["data"]))]
        for f, batches in enumerate(built["data"]):
            files = []
            for i, cols in enumerate(batches):
                files.append(os.path.join(out, f"feed{f}-batch{i:03d}.pkl"))
                adapter.dump_instances(files[-1], adapter.events_from_arrays(cols))
            plan["batch_files"].append(files)
    else:
        if built["dataset"] == "events":
            instances, kind = adapter.events_from_arrays(built["data"]), "event"
        else:
            instances, kind = adapter.trajectories_from_arrays(built["data"]), "trajectory"
        write_start = time.perf_counter()
        adapter.write_dataset(plan["path"], instances, kind, *built["layout"])
        write_s = time.perf_counter() - write_start
    with open(os.path.join(out, "plan.pkl"), "wb") as f:
        pickle.dump(plan, f)
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "write_s": write_s, "digest": built["digest"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
