#!/usr/bin/env python3
"""Print one digest per benchmark pool, so two trees can be shown to give the
same answers on every pooled input.

    python3 scripts/pool_digest.py                  # all three pools
    python3 scripts/pool_digest.py degenerate       # only the named ones
    python3 scripts/pool_digest.py --check          # compare with the pins

The pools are those of `perfbench/inputs.py`, read and never changed:

  classify    `classify_torus(f).to_json()` and the `pivot_log` of every LP
              solve it makes, over the 876 classify forms;
  crosscheck  `theorem_crosscheck(f, bound).to_json()` over the 342 inputs;
  degenerate  `build_degeneration(f, v).to_json()`, or "ERR " plus the
              message of the error it raises, over the 680 fields.

Each digest is the first 16 hex digits of sha256 over
`json.dumps(out, sort_keys=True)` of every answer in pool order.  The
program is imported from the checkout's `src/`.

`pool_digest.json`, beside this script, pins the digest of every pool.
With `--check` the script exits 1 when a computed digest differs from its
pin and names each one that does.  A change that means to alter answers
re-pins the values in the same commit and names the changed answers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = Path(__file__).resolve().with_name("pool_digest.json")
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
    ap.add_argument("--check", action="store_true", help=f"exit 1 unless every digest equals its pin in {PINNED.name}")
    args = ap.parse_args(argv)
    unknown = [w for w in args.workloads if w not in ANSWERS]
    if unknown:
        ap.error(f"unknown pool(s): {', '.join(unknown)}")
    pinned = json.loads(PINNED.read_text(encoding="utf-8")) if args.check else {}
    differs = []
    for workload in args.workloads or ANSWERS:
        count, digest = pool_digest(workload)
        line = f"{workload}: {digest} over {count} inputs"
        if args.check and digest != pinned.get(workload):
            differs.append(workload)
            line += f" (pinned {pinned.get(workload)})"
        print(line, flush=True)
    if differs:
        print(f"digest differs from its pin: {', '.join(differs)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
