#!/usr/bin/env python3
"""Quick self-test of the benchmark, about a minute.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
  * each run is correct and emits exactly the metric names of BENCHMARK.json;
  * a second traced run with the same seed repeats every count exactly;
  * one deliberately corrupted golden answer makes the run fail, so the
    checker is not vacuous;
  * in a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # inputs.draw makes dense forms with gitstab

import inputs  # noqa: E402

SCALE = 0.05
SEED = 7


def bench(workload, trace, cwd=ROOT, golden_dir=None, seed=SEED):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)]
    if golden_dir is not None:
        cmd += ["--golden-dir", str(golden_dir)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = p.stdout.splitlines()
    return p.returncode, json.loads(lines[-1]) if p.returncode == 0 and lines else None, p.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        workload = w["name"]
        counts = None
        for trace in (0, 1, 1):
            code, result, err = bench(workload, trace)
            expect(code == 0 and result is not None, f"{workload} trace={trace} runs")
            if result is None:
                print(err[-2000:])
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace} is correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == names[trace], f"{workload} trace={trace} emits the metrics of BENCHMARK.json")
            if trace:
                now = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
                if counts is not None:
                    expect(now == counts, f"{workload} counts repeat exactly")
                counts = now

        # Corrupt the golden answer of the first item the run draws.
        stratum, index, _ = inputs.draw(workload, SEED, SCALE)[0]
        tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            golden = json.loads((HERE / "golden" / f"{workload}.json").read_text())
            golden["strata"][stratum][index][1]["corrupted"] = True
            (tmp / f"{workload}.json").write_text(json.dumps(golden))
            code, result, _ = bench(workload, 0, golden_dir=tmp)
            expect(code == 0 and result is not None and result["failed"] > 0 and not result["correct"],
                   f"{workload} fails on a corrupted golden answer")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # Without the program's sources the benchmark must refuse to run.
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("classify", 0, cwd=tmp)
        expect(code != 0 and result is None, "refuses to run without the program")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
