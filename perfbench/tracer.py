"""Spans and counts at gitstab's layer boundaries, installed from outside.

The tracer wraps public functions of the program's modules without editing
them.  A wrapper replaces the function on every gitstab module attribute
that holds it, which is where each caller actually looks it up: `lp.solve`
through the lp module from stability, `futaki_of_limit` as bound in
gitstab.degeneration, `_rational_roots` inside gitstab.vfield, and so on.

Two modes:
  spans   every wrapped call records (name, start, end, parent) in memory;
          self time is a span's length minus the length of its children.
  counts  the wrappers read no clock; calls are counted, and the LP's pivots per
          phase come from the public pivot_log= argument of lp.solve.
Both modes count calls, so the two passes of a traced run can be compared.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute).  Their self times become the *_s metrics.
TIMED = {
    "poly.parse": ("gitstab.poly", "parse_poly"),
    "lp.solve": ("gitstab.lp", "solve"),
    "lp.kernel": ("gitstab.lp", "kernel"),
    "linalg.nullspace": ("gitstab.linalg", "nullspace"),
    "linalg.charpoly": ("gitstab.linalg", "charpoly"),
    "stability.classify": ("gitstab.stability", "classify_torus"),
    "stability.oracle": ("gitstab.stability", "oracle_classify"),
    "boxscan.scan": ("gitstab.boxscan", "scan_box"),
    "degeneration.crosscheck": ("gitstab.degeneration", "theorem_crosscheck"),
    "degeneration.build": ("gitstab.degeneration", "build_degeneration"),
    "futaki": ("gitstab.futaki", "futaki_of_limit"),
    "vfield.chevalley": ("gitstab.vfield", "chevalley_split"),
    "vfield.diagonalize": ("gitstab.vfield", "rational_diagonalize"),
    "vfield.sympy_factor": ("gitstab.vfield", "_rational_roots"),
    "vfield.substitute": ("gitstab.vfield", "substitute_linear"),
}

OP = "op"


class Tracer:
    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list = []
        self.calls: dict = {}
        # Totals that only the counts pass fills in.
        self.tally = {"pivots_phase1": 0, "pivots_phase2": 0, "tableau_rows": 0,
                      "tableau_cols": 0, "vectors_scanned": 0, "violations": 0}
        self._patched: list = []

    # -- installing wrappers --

    def install(self):
        import gitstab  # noqa: F401  (loads every module the wrappers target)

        for name, (mod, attr) in TIMED.items():
            self._replace(mod, attr, self._timed(name, getattr(sys.modules[mod], attr)))
        # mu is called too often to time, so it is only counted; the box
        # generator is counted per vector it yields.
        weights, boxscan = sys.modules["gitstab.weights"], sys.modules["gitstab.boxscan"]
        self._replace("gitstab.weights", "mu", self._counted("weights.mu", weights.mu))
        self._replace("gitstab.boxscan", "iter_trace_zero_box",
                      self._generator("boxscan.generators", boxscan.iter_trace_zero_box))

    def _replace(self, mod, attr, wrapper):
        original = getattr(sys.modules[mod], attr)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gitstab" or name.startswith("gitstab.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- wrappers --

    def _count(self, name):
        self.calls[name] = self.calls.get(name, 0) + 1

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            if self.spans_on:
                return self.span(name, fn, *args, **kwargs)
            if name == "lp.solve":
                return self._solve_counted(fn, *args, **kwargs)
            out = fn(*args, **kwargs)
            if name == "boxscan.scan":
                self.tally["vectors_scanned"] += out.scanned
            elif name == "degeneration.crosscheck":
                self.tally["violations"] += len(out.violations)
            return out

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                self._count(name)
                yield value

        return wrapper

    def _solve_counted(self, fn, program, pivot_log=None):
        self.tally["tableau_rows"] += len(program.constraints)
        self.tally["tableau_cols"] += program.n_vars
        log = _PivotCounter(self.tally) if pivot_log is None else pivot_log
        return fn(program, pivot_log=log)

    # -- spans --

    def span(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def op_time(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans if parent < 0)


class _PivotCounter(list):
    """A pivot_log that keeps only the number of pivots per phase."""

    def __init__(self, tally):
        super().__init__()
        self.tally = tally

    def append(self, snapshot):
        self.tally[f"pivots_phase{snapshot['phase']}"] += 1


def layer_metrics(self_s: dict, op_s: float, calls: dict, tally: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced and one
    counting pass over the same ops."""
    times = {
        "lp.solve_s": "lp.solve",
        "lp.kernel_s": "lp.kernel",
        "stability.classify_self_s": "stability.classify",
        "stability.oracle_self_s": "stability.oracle",
        "poly.parse_s": "poly.parse",
        "boxscan.scan_s": "boxscan.scan",
        "degeneration.crosscheck_self_s": "degeneration.crosscheck",
        "degeneration.build_s": "degeneration.build",
        "futaki.s": "futaki",
        "vfield.chevalley_s": "vfield.chevalley",
        "vfield.diagonalize_s": "vfield.diagonalize",
        "vfield.sympy_factor_s": "vfield.sympy_factor",
        "vfield.substitute_s": "vfield.substitute",
        "linalg.charpoly_s": "linalg.charpoly",
        "linalg.nullspace_s": "linalg.nullspace",
    }
    out = {}
    for metric, span in times.items():
        out[metric] = (self_s.get(span, 0.0), "s")
        out[metric + ".share"] = (self_s.get(span, 0.0) / op_s if op_s else 0.0, "ratio")
    generators = calls.get("boxscan.generators", 0)
    families = calls.get("degeneration.build", 0)
    out.update({
        "lp.solve_calls": (calls.get("lp.solve", 0), "count"),
        "lp.pivots_phase1": (tally["pivots_phase1"], "count"),
        "lp.pivots_phase2": (tally["pivots_phase2"], "count"),
        "lp.tableau_rows": (tally["tableau_rows"], "count"),
        "lp.tableau_cols": (tally["tableau_cols"], "count"),
        "stability.classify_calls": (calls.get("stability.classify", 0), "count"),
        "boxscan.vectors_scanned": (tally["vectors_scanned"], "count"),
        "boxscan.generators_enumerated": (generators, "count"),
        "degeneration.families": (families, "count"),
        "degeneration.families_per_generator": (families / generators if generators else 0.0, "ratio"),
        "degeneration.violations": (tally["violations"], "count"),
        "futaki.calls": (calls.get("futaki", 0), "count"),
        "weights.mu_calls": (calls.get("weights.mu", 0), "count"),
    })
    return out
