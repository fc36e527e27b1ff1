#!/usr/bin/env python3
"""Record the golden answers of every pool item of a workload.

    python3 perfbench/record_golden.py classify crosscheck degenerate cli

Runs each op once on every item of every pool (inputs.py) with the program
of the current checkout and writes golden/<workload>.json: per stratum, one
[input digest, answer] pair per pool item.  Goldens are recorded once, at the
commit that defines the benchmark, and are not re-recorded to fit a change:
a later commit that changes an answer fails the benchmark.  An item that
fails an independent check stops the recording.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
from run import HERE, ROOT, SRC, git_head

sys.path.insert(0, str(SRC))

import ops  # noqa: E402


def record(workload: str) -> dict:
    runner = ops.WORKLOADS[workload](ROOT)
    strata = {}
    for s in inputs.WORKLOADS[workload]:
        t = time.perf_counter()
        rows = []
        for i in range(s.pool):
            item = inputs.pool_item(workload, s, i)
            args = runner.prepare(item)
            out = runner.op(args)
            problems = runner.check(item, args, out)
            if problems:
                raise SystemExit(f"{workload}/{s.name}[{i}]: {problems}")
            rows.append([inputs.digest(item), json.loads(json.dumps(runner.answer(out)))])
        strata[s.name] = rows
        print(f"{workload}/{s.name}: {s.pool} items in {time.perf_counter() - t:.1f} s", flush=True)
    return {"workload": workload, "recorded_at": git_head(), "strata": strata}


def main() -> int:
    for workload in sys.argv[1:] or list(inputs.WORKLOADS):
        golden = record(workload)
        path = HERE / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
