#!/usr/bin/env python3
"""Print one digest per benchmark pool, so two trees can be shown to give the
same answers on every pooled input.

    python3 scripts/pool_digest.py                  # all three pools
    python3 scripts/pool_digest.py degenerate       # only the named ones

The pools are those of `perfbench/inputs.py`, read and never changed:

  classify    `classify_torus(f).to_json()` and the `pivot_log` of every LP
              solve it makes, over the 876 classify forms;
  crosscheck  `theorem_crosscheck(f, bound).to_json()` over the 342 inputs;
  degenerate  `build_degeneration(f, v).to_json()`, or "ERR " plus the
              message of the error it raises, over the 680 fields.

Each digest is the first 16 hex digits of sha256 over
`json.dumps(out, sort_keys=True)` of every answer in pool order.  The
program is imported from the checkout's `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gitstab import degeneration, lp, stability  # noqa: E402
from gitstab.poly import parse_poly  # noqa: E402
from gitstab.vfield import parse_field  # noqa: E402
from inputs import WORKLOADS, pool_item  # noqa: E402


def classify(item):
    logs = []
    solve = lp.solve

    def logged(program, pivot_log=None):
        logs.append([])
        return solve(program, pivot_log=logs[-1])

    lp.solve = logged
    try:
        verdict = stability.classify_torus(parse_poly(item["f"], item["n_vars"]))
    finally:
        lp.solve = solve
    return {"verdict": verdict.to_json(), "pivot_logs": logs}


def crosscheck(item):
    f = parse_poly(item["f"], item["n_vars"])
    return degeneration.theorem_crosscheck(f, item["bound"]).to_json()


def degenerate(item):
    f = parse_poly(item["f"], item["n_vars"])
    try:
        return degeneration.build_degeneration(f, parse_field(item["field"], item["n_vars"])).to_json()
    except degeneration.DegenerationError as exc:
        return "ERR " + str(exc)


ANSWERS = {"classify": classify, "crosscheck": crosscheck, "degenerate": degenerate}


def pool_digest(workload: str) -> tuple:
    """(number of pooled inputs, digest) for one workload."""
    h = hashlib.sha256()
    count = 0
    for stratum in WORKLOADS[workload]:
        for index in range(stratum.pool):
            out = ANSWERS[workload](pool_item(workload, stratum, index))
            h.update(json.dumps(out, sort_keys=True).encode())
            count += 1
    return count, h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help=f"pools among {', '.join(ANSWERS)} (default: all)")
    args = ap.parse_args(argv)
    unknown = [w for w in args.workloads if w not in ANSWERS]
    if unknown:
        ap.error(f"unknown pool(s): {', '.join(unknown)}")
    for workload in args.workloads or ANSWERS:
        count, digest = pool_digest(workload)
        print(f"{workload}: {digest} over {count} inputs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
