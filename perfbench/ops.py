"""The op of each workload, how its output is reduced to a golden answer,
and the independent checks run on it.

Each workload class has
  prepare(item) -> args   set-up work (parsing), not timed
  op(args) -> output      the timed call into the program
  answer(output) -> dict  compact JSON answer compared with the golden one
  check(item, args, output) -> list of problems found by checks that do not
                          rest on the golden answers

The op looks the program's functions up through their module at call time,
so the tracer's wrappers (tracer.py) see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

from inputs import digest, poly_text

# Exit codes the CLI documents; any other code fails the op.
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}


def destabilizer_problems(support, cls, lam, mu) -> list:
    """Check a verdict's witness against the support, using only integers.

    not_weakly_stable: lam is a nonzero trace-zero integer vector with all
    weights >= 0 and one > 0, and mu is the minimum weight (all weights are
    positive exactly when the verdict claims a strict destabilizer, mu > 0).
    weakly_stable_not_stable: lam fixes f (all weights 0) and mu is 0.
    stable: no witness.
    """
    if cls == "stable":
        return [] if lam is None and mu is None else ["stable verdict carries a witness"]
    if lam is None or not all(isinstance(x, int) for x in lam):
        return [f"{cls} verdict without an integral witness: {lam}"]
    if sum(lam) != 0 or not any(lam):
        return [f"witness {lam} is not a nonzero trace-zero vector"]
    weights = [sum(a * b for a, b in zip(lam, g)) for g in support]
    problems = []
    if min(weights) < 0:
        problems.append(f"witness {lam} has a negative weight")
    if Fraction(mu) != min(weights):
        problems.append(f"mu {mu} is not the minimum weight {min(weights)}")
    if cls == "not_weakly_stable" and max(weights) <= 0:
        problems.append(f"witness {lam} has no positive weight")
    if cls == "weakly_stable_not_stable" and any(weights):
        problems.append(f"fixing witness {lam} moves a monomial")
    return problems


def verdict_answer(v) -> dict:
    return {
        "class": v.classification,
        "destabilizer": None if v.destabilizer is None else [int(x) for x in v.destabilizer],
        "mu": None if v.certificate_mu is None else str(v.certificate_mu),
        "fixing_dim": v.fixing_subspace_dim,
    }


def verdict_problems(f, v) -> list:
    a = verdict_answer(v)
    return destabilizer_problems(list(f.terms), a["class"], a["destabilizer"], a["mu"])


class Classify:
    """parse_poly + classify_torus on polynomial text."""

    ORACLE_BOUND = 2  # box radius of the enumeration check for n_vars <= 5

    def __init__(self, root):
        from gitstab import poly, stability

        self.poly, self.stability = poly, stability

    def prepare(self, item):
        return item["f"], item["n_vars"]

    def op(self, args):
        f = self.poly.parse_poly(*args)
        return f, self.stability.classify_torus(f)

    def answer(self, out) -> dict:
        return verdict_answer(out[1])

    def check(self, item, args, out) -> list:
        f, v = out
        problems = verdict_problems(f, v)
        if f.n_vars <= 5:
            boxed = self.stability.oracle_classify(f, self.ORACLE_BOUND)
            if not self.stability.verdicts_consistent(v, boxed, self.ORACLE_BOUND):
                problems.append(f"LP verdict {v.classification} contradicts the box oracle")
        return problems


class Crosscheck:
    """theorem_crosscheck + oracle_classify + verdicts_consistent."""

    def __init__(self, root):
        from gitstab import degeneration, poly, stability

        self.degeneration, self.stability = degeneration, stability
        self.parse = poly.parse_poly

    def prepare(self, item):
        return self.parse(item["f"], item["n_vars"]), item["bound"]

    def op(self, args):
        f, bound = args
        report = self.degeneration.theorem_crosscheck(f, bound)
        boxed = self.stability.oracle_classify(f, bound)
        return report, boxed, self.stability.verdicts_consistent(report.verdict, boxed, bound)

    def answer(self, out) -> dict:
        report, boxed, consistent = out
        kinds: dict = {}
        for v in report.violations:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        return {
            **verdict_answer(report.verdict),
            "enumerated": report.enumerated,
            "violations": kinds,
            "agreement": report.agreement,
            "oracle_class": boxed.classification,
            "consistent": consistent,
        }

    def check(self, item, args, out) -> list:
        report, boxed, consistent = out
        problems = verdict_problems(args[0], report.verdict)
        if not consistent:
            problems.append("LP verdict contradicts the box oracle")
        return problems


class Degenerate:
    """build_degeneration along a non-diagonal field; the DegenerationError
    expected for nilpotent and irrational fields is an answer, not a failure."""

    def __init__(self, root):
        from gitstab import degeneration, poly, vfield

        self.degeneration = degeneration
        self.parse, self.parse_field = poly.parse_poly, vfield.parse_field

    def prepare(self, item):
        return self.parse(item["f"], item["n_vars"]), self.parse_field(item["field"], item["n_vars"])

    def op(self, args):
        try:
            return self.degeneration.build_degeneration(*args)
        except self.degeneration.DegenerationError as exc:
            return exc

    def answer(self, out) -> dict:
        if isinstance(out, Exception):
            msg = str(out)
            reason = "nilpotent" if "nilpotent" in msg else "irrational" if "irrational" in msg else msg
            return {"error": type(out).__name__, "reason": reason}
        strata = {str(e): poly_text(p.terms) for e, p in sorted(out.family.strata.items())}
        return {
            "strata": digest(strata),
            "special_fiber": digest(poly_text(out.special_fiber.terms)),
            "futaki": None if out.futaki is None else str(out.futaki.value),
            "trivial": out.trivial,
            "s_rescale": out.family.s_rescale,
        }

    def check(self, item, args, out) -> list:
        if isinstance(out, Exception):
            return [] if item["kind"] != "rational" else [f"rational field raised {out}"]
        problems = []
        if item["kind"] != "rational":
            problems.append(f"{item['kind']} field did not raise DegenerationError")
        if out.special_fiber != out.family.strata[0]:
            problems.append("special fiber is not the weight-zero stratum")
        return problems


class Cli:
    """One `python -m gitstab <subcommand> ... --json` process per op."""

    def __init__(self, root):
        from gitstab import poly

        self.root = str(root)
        self.parse = poly.parse_poly
        env = {k: v for k, v in os.environ.items() if k != "GITSTAB_LOG"}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.env = env

    def prepare(self, item):
        return item["argv"], item["stdin"]

    def run(self, cmd, stdin):
        p = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120
        )
        return p.returncode, p.stdout, p.stderr

    def op(self, args):
        argv, stdin = args
        return self.run([sys.executable, "-m", "gitstab", *argv], stdin)

    def op_child(self, args, mode, out_path):
        """The op run through child.py under the tracer; returns the op's
        output and the import-time lines of `-X importtime` (spans mode)."""
        argv, stdin = args
        flags = ["-X", "importtime"] if mode == "spans" else []
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        code, stdout, stderr = self.run([sys.executable, *flags, child, mode, out_path, "--", *argv], stdin)
        lines = stderr.splitlines(keepends=True)
        imports = [l for l in lines if l.startswith("import time:")]
        return (code, stdout, "".join(l for l in lines if not l.startswith("import time:"))), imports

    @staticmethod
    def _payloads(stdout):
        try:
            return [json.loads(line) for line in stdout.splitlines() if line.strip()]
        except json.JSONDecodeError:
            return None

    def answer(self, out) -> dict:
        code, stdout = out[0], out[1]
        payloads = self._payloads(stdout)
        return {"exit": code, "stdout": digest(stdout if payloads is None else payloads)}

    def check(self, item, args, out) -> list:
        code, stdout, stderr = out
        if code not in DOCUMENTED_EXITS:
            return [f"undocumented exit code {code}: {stderr[-300:]}"]
        payloads = self._payloads(stdout)
        if payloads is None:
            return ["output is not JSON"]
        argv = item["argv"]
        if argv[0] in ("stability", "destabilize") and "--basis-sweep" not in argv:
            forms = [(argv[2], int(argv[4]))]
        elif argv[0] == "corpus":
            forms = [(r["f"], r["n_vars"]) for r in map(json.loads, item["stdin"].splitlines())]
        else:
            return []
        problems = []
        for (text, n), payload in zip(forms, payloads):
            f = self.parse(text, n)
            problems += destabilizer_problems(
                list(f.terms), payload["class"], payload["destabilizer"], payload["mu"]
            )
        return problems


WORKLOADS = {
    "classify": Classify,
    "crosscheck": Crosscheck,
    "degenerate": Degenerate,
    "cli": Cli,
}
