#!/usr/bin/env python3
"""gitstab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory (no install step).  One client in one process calls the op in
a closed loop, timing each call from call to return, for --seconds seconds.
Every output is compared with the golden answer recorded for its input
(golden/<workload>.json) and checked independently of it (ops.py).

Times are reported at reference speed: every op's wall time, and set-up's,
is scaled by REF_S over the time of a fixed reference kernel measured next to
it (reference()), which cancels the drift of the machine's speed during a
run.  The meta line also gives the plain wall-clock figures.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports the per-layer metrics instead: it runs a fixed number of ops from
the start of the run order (inputs.TRACE_OPS) three times, untraced, with
spans (tracer.py) and with counts, and reports the spans' self times, the
exact counts, and the tracing overhead.

The last line of standard output is the result object; the line before it
describes the run (source digest, versions, cores, box-scan backend).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
REF_S = 0.005  # nominal duration of reference(); times are reported at that speed
REF_EVERY = 0.25  # seconds between reference measurements in the timed loop


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Item:
    stratum: str
    index: int
    item: dict
    args: object
    golden: dict
    input_ok: bool  # the generated input matches the one the golden answer is for


@dataclass
class OpError:
    exc: BaseException


def reference() -> float:
    """Wall time of a fixed pure-Python kernel (rational arithmetic, like the
    program's).  The speed of the machines this benchmark runs on drifts by
    up to 2x over tens of seconds, while an op's time divided by this
    kernel's time, measured next to it, stays within a few percent."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t


class Clock:
    """Times ops from call to return and measures reference() between them,
    at the start, at least every REF_EVERY seconds, and at the end."""

    def __init__(self):
        self.spans: list = []  # (start, end) per op
        self.refs: list = []  # (end time, duration) per reference()
        self.tick()

    def tick(self):
        r = reference()
        self.refs.append((time.perf_counter(), r))

    def time(self, op, args):
        if time.perf_counter() - self.refs[-1][0] >= REF_EVERY:
            self.tick()
        t = time.perf_counter()
        out = call(op, args)
        self.spans.append((t, time.perf_counter()))
        return out

    def raw(self) -> list:
        return [end - start for start, end in self.spans]

    def at_reference_speed(self) -> list:
        """Each op's wall time scaled by REF_S / r, where r is the mean of
        the reference times measured last before the op and first after it."""
        self.tick()
        ends = [t for t, _ in self.refs]
        out = []
        for start, end in self.spans:
            before = self.refs[max(bisect_right(ends, start) - 1, 0)][1]
            after = self.refs[min(bisect_left(ends, end), len(self.refs) - 1)][1]
            out.append((end - start) * 2 * REF_S / (before + after))
        return out


def setup(workload: str, seed: int, scale: float, golden_dir: Path):
    """Import the program, make the inputs, load the golden answers and run
    one untimed warm-up op.  Everything here counts toward setup_s."""
    if not (SRC / "gitstab" / "__init__.py").is_file():
        raise BenchError(f"no gitstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gitstab

    if Path(gitstab.__file__).resolve().parent != (SRC / "gitstab").resolve():
        raise BenchError(f"imported gitstab from {gitstab.__file__}, not from {SRC}")
    import inputs
    import ops

    runner = ops.WORKLOADS[workload](ROOT)
    golden = json.loads((golden_dir / f"{workload}.json").read_text())
    items = []
    for stratum, index, item in inputs.draw(workload, seed, scale):
        want, answer = golden["strata"][stratum][index]
        ok = inputs.digest(item) == want
        items.append(Item(stratum, index, item, runner.prepare(item), answer, ok))
    runner.op(runner.prepare(inputs.WARMUP[workload]))
    return runner, items, golden


class Verifier:
    """Decides per op whether it failed: an exception, an input that differs
    from the recorded one, a failed independent check, or an answer that
    differs from the golden one."""

    def __init__(self, runner, items):
        self.runner, self.items = runner, items
        self.problems: dict = {}  # item index -> problems found by runner.check
        self.reported: set = set()
        self.failed = 0
        self.attempted = 0

    def record(self, idx, out=None, answer=None):
        """One op of item idx: its output (or OpError), or only its compact
        answer when the output was not kept."""
        item = self.items[idx]
        self.attempted += 1
        if isinstance(out, OpError):
            return self._fail(idx, f"raised {out.exc!r}")
        if not item.input_ok:
            return self._fail(idx, "generated input differs from the recorded one")
        if out is not None and idx not in self.problems:
            self.problems[idx] = self.runner.check(item.item, item.args, out)
        if self.problems.get(idx):
            return self._fail(idx, "; ".join(self.problems[idx]))
        if answer is None:
            answer = self.runner.answer(out)
        if json.loads(json.dumps(answer)) != item.golden:
            self._fail(idx, f"answer {answer} differs from golden {item.golden}")

    def _fail(self, idx, why):
        self.failed += 1
        if idx not in self.reported:
            self.reported.add(idx)
            item = self.items[idx]
            print(f"perfbench: {item.stratum}[{item.index}]: {why}", file=sys.stderr)


def call(op, args):
    try:
        return op(args)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpError(exc)


def timed_run(runner, items, seconds):
    """Closed loop over the run order, wrapping around, for `seconds`."""
    clock, done, first = Clock(), [], {}
    n = len(items)
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        idx = k % n
        out = clock.time(runner.op, items[idx].args)
        # Keep the first output of each item for the independent checks and
        # only the compact answer of the rest, so memory stays flat.
        if idx not in first or isinstance(out, OpError):
            first.setdefault(idx, out)
            done.append((idx, out, None))
        else:
            done.append((idx, None, runner.answer(out)))
        k += 1
    wall = time.perf_counter() - start
    return clock, wall, done, len(first)


def setup_sample(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
           str(args.seed), "--scale", str(args.scale), "--golden-dir", str(args.golden_dir),
           "--setup-only"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if p.returncode != 0:
        raise BenchError(f"set-up sample failed: {p.stderr[-500:]}")
    return json.loads(p.stdout.splitlines()[-1])["setup_s"]


def end_to_end(args, runner, items, setup_s):
    # Half the extra set-ups run before the loop and half after it, so that
    # their median spans the run rather than one moment of it.
    extra = SETUP_SAMPLES - 1
    setups = [setup_s] + [setup_sample(args) for _ in range(extra // 2)]
    clock, wall, done, distinct = timed_run(runner, items, args.seconds)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    setups += [setup_sample(args) for _ in range(extra - extra // 2)]
    v = Verifier(runner, items)
    for idx, out, answer in done:
        v.record(idx, out, answer)
    raw, norm = clock.raw(), clock.at_reference_speed()
    metrics = {
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "op_p50_ms": (statistics.median(norm) * 1e3, "ms"),
        "op_p90_ms": (p90(norm) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_clock = {
        "ops_per_s": len(raw) / wall,
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_p90_ms": p90(raw) * 1e3,
        "reference_ms": statistics.median(r for _, r in clock.refs) * 1e3,
    }
    return v, metrics, {"ops": len(raw), "distinct_items": distinct, "loop_s": wall,
                        "wall_clock": wall_clock}


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def in_process_pass(runner, sel, tracer_mod, mode):
    """One pass over the selected items; mode None (untraced), 'spans' or
    'counts'.  Returns the outputs, the pass's op time at reference speed and
    the tracer."""
    tr = None if mode is None else tracer_mod.Tracer(spans=mode == "spans")
    op = runner.op if mode != "spans" else (lambda a: tr.span(tracer_mod.OP, runner.op, a))
    clock = Clock()
    if tr is not None:
        tr.install()
    try:
        outs = [clock.time(op, it.args) for it in sel]
    finally:
        if tr is not None:
            tr.uninstall()
    return outs, sum(clock.at_reference_speed()), tr


def child_pass(runner, sel, mode, tmp):
    """The cli workload's pass: one child process per op (child.py when
    traced).  Returns the outputs, the op time at reference speed, the
    children's summaries and the ops' wall times."""
    outs, summaries, clock = [], [], Clock()
    for k, it in enumerate(sel):
        path = os.path.join(tmp, f"{mode}-{k}.json")
        if mode is None:
            out, imports = clock.time(runner.op, it.args), []
        else:
            res = clock.time(lambda a: runner.op_child(a, mode, path), it.args)
            out, imports = (res, []) if isinstance(res, OpError) else res
        summary = None
        if os.path.exists(path):
            summary = json.loads(Path(path).read_text())
            summary["t_spawn"] = clock.spans[-1][0]
            summary["sympy_import_s"] = sum(
                int(l.split("|")[1]) / 1e6 for l in imports if l.split("|")[2].strip() == "sympy")
        outs.append(out)
        summaries.append(summary)
    return outs, sum(clock.at_reference_speed()), summaries, clock.raw()


def merge_children(summaries):
    self_s, calls, tally = {}, {}, {}
    for s in summaries:
        if s is None:
            continue
        for target, src in ((self_s, s["self_s"]), (calls, s["calls"]), (tally, s["tally"])):
            for key, value in src.items():
                target[key] = target.get(key, 0) + value
    return self_s, calls, tally


def per_layer(args, runner, items):
    import inputs
    import tracer

    count = max(1, round(inputs.TRACE_OPS[args.workload] * args.scale))
    picks = [k % len(items) for k in range(count)]
    sel = [items[i] for i in picks]
    v = Verifier(runner, items)
    cli_ms = {"cli.python_start_ms": 0.0, "cli.import_ms": 0.0, "cli.sympy_import_ms": 0.0,
              "cli.op_self_ms": 0.0}
    if args.workload == "cli":
        tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            plain, time_u, _, _ = child_pass(runner, sel, None, tmp)
            traced, time_t, spans, lat = child_pass(runner, sel, "spans", tmp)
            counted, _, counts, _ = child_pass(runner, sel, "counts", tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        self_s, span_calls, _ = merge_children(spans)
        _, calls, tally = merge_children(counts)
        op_s = sum(lat)
        rows = [(l, s) for l, s in zip(lat, spans) if s is not None]
        start = [s["t_start"] - s["t_spawn"] for _, s in rows]
        imp = [s["import_s"] for _, s in rows]
        sym = [s["sympy_import_s"] for _, s in rows if s["sympy_import_s"]]
        rest = [l - (s["t_start"] - s["t_spawn"]) - s["import_s"] - s["sympy_import_s"] for l, s in rows]
        if rows:
            cli_ms = {
                "cli.python_start_ms": statistics.median(start) * 1e3,
                "cli.import_ms": statistics.median(imp) * 1e3,
                "cli.sympy_import_ms": statistics.median(sym) * 1e3 if sym else 0.0,
                "cli.op_self_ms": statistics.median(rest) * 1e3,
            }
    else:
        plain, time_u, _ = in_process_pass(runner, sel, tracer, None)
        traced, time_t, ts = in_process_pass(runner, sel, tracer, "spans")
        counted, _, tc = in_process_pass(runner, sel, tracer, "counts")
        self_s, span_calls, op_s = ts.self_times(), ts.calls, ts.op_time()
        calls, tally = tc.calls, tc.tally
    for outs in (plain, traced, counted):
        for idx, out in zip(picks, outs):
            v.record(idx, out)
    repeat_ok = span_calls == calls
    if not repeat_ok:
        print(f"perfbench: call counts differ between passes: {span_calls} vs {calls}", file=sys.stderr)
    metrics = tracer.layer_metrics(self_s, op_s, calls, tally)
    metrics.update({k: (x, "ms") for k, x in cli_ms.items()})
    metrics["trace.overhead_frac"] = (time_t / time_u - 1, "ratio")
    return v, metrics, {"ops": len(sel), "untraced_ref_s": time_u, "traced_ref_s": time_t}, repeat_ok


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gitstab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_head():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, golden, extra) -> dict:
    from importlib.metadata import version

    from gitstab import boxscan

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_head(),
        "source_sha256": source_digest(),
        "golden_recorded_at": golden.get("recorded_at"),
        "python": sys.version.split()[0],
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "boxscan_backend": "compiled" if boxscan.HAVE_COMPILED else "python",
        "boxscan_note": None if boxscan.HAVE_COMPILED
        else "compiled kernel not built; every box scan ran the pure-Python kernel",
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gitstab benchmark")
    ap.add_argument("--workload", required=True, choices=["classify", "crosscheck", "degenerate", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # For the smoke test: fewer items per stratum, and other golden answers.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--golden-dir", type=Path, default=HERE / "golden", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    r0 = reference()
    t0 = time.perf_counter()
    try:
        runner, items, golden = setup(args.workload, args.seed, args.scale, args.golden_dir)
        setup_s = (time.perf_counter() - t0) * 2 * REF_S / (r0 + reference())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            v, metrics, extra, repeat_ok = per_layer(args, runner, items)
        else:
            v, metrics, extra = end_to_end(args, runner, items, setup_s)
            repeat_ok = True
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": metadata(args, golden, extra)}))
    print(json.dumps({
        "correct": v.failed == 0 and repeat_ok,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
