#!/usr/bin/env python3
"""Mutation gate for the exact kernels: every mutant in the table must be killed.

Each row of MUTANTS names a package source file, an exact snippet that occurs
once in it, the snippet's replacement, the test selection that must fail on
the mutated copy, and a time limit in seconds.  A mutant that changes several
places gives tuples of snippets and replacements, applied in order; each
snippet must occur once.  For each row the script copies the checkout
(without .git) into a temporary directory, replaces the snippets there, and
runs the selection under pytest in a fresh interpreter.  The
mutant is killed when the selection fails or is still running at the limit
(a wrong kernel may loop instead of failing).  Every distinct selection first
runs once on an unmutated copy and must pass there, so a kill is the
mutation's doing.

    python3 scripts/mutants.py                 # the whole table
    python3 scripts/mutants.py --list          # print the table
    python3 scripts/mutants.py newton-cap ...  # only the named rows

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
snippet does not occur exactly once or a selection fails unmutated.
`tests/test_source.py` checks the snippets on every test run, so a refactor
that moves one must update its row.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "name path snippet replacement tests limit")

VFIELD, LINALG = "src/gitstab/vfield.py", "src/gitstab/linalg.py"
STABILITY, FUTAKI = "src/gitstab/stability.py", "src/gitstab/futaki.py"
LP = "src/gitstab/lp.py"
WRONG_KERNELS = ("tests/test_degeneration.py", "-k", "wrong")
FRACTION_FREE = ("tests/test_linalg.py", "-k", "fraction_free")
DENSE_SIMPLEX = ("tests/test_lp.py", "-k", "dense_simplex")

DEGENERATION = "src/gitstab/degeneration.py"

MUTANTS = (
    # The eigenbasis certificate of rational_diagonalize, one check at a time;
    # only the wrong-kernel tests reach the guards.
    Mutant("eigenspace-count", VFIELD, "if len(cols) != n:", "if False:", WRONG_KERNELS, 120),
    Mutant("eigenbasis-rank", VFIELD, "if linalg.rank(cols) != n:", "if False:", WRONG_KERNELS, 120),
    Mutant(
        "eigen-equation",
        VFIELD,
        "if linalg.int_mul(b, p) != ",
        "if False and linalg.int_mul(b, p) != ",
        WRONG_KERNELS,
        120,
    ),
    # The integer eigen-equation pairing each column with another column's
    # eigenvalue.
    Mutant(
        "integer-eigen-equation",
        VFIELD,
        "[list(map(mul, row, eig)) for row in p]",
        "[list(map(mul, row, sorted(eig))) for row in p]",
        ("tests/test_degeneration.py",),
        120,
    ),
    # The eigenvalues of B = D*v reported without dividing by D.
    Mutant(
        "eigenvalues-over-d",
        VFIELD,
        "tuple([Fraction(r, den) for r in eig])",
        "tuple([Fraction(r) for r in eig])",
        ("tests/test_degeneration.py", "-k", "scaled"),
        120,
    ),
    # Every split taken for semisimple, so a Jordan block's nilpotent part
    # is never tested and its semisimple part goes on with q unscaled.
    Mutant(
        "integer-semisimplicity",
        DEGENERATION,
        "if not linalg.is_zero_matrix(nil):",
        "if False:",
        ("tests/test_degeneration.py", "-k", "nilpotent or jordan"),
        120,
    ),
    # The weight floor taken at the top of the spectrum: build_degeneration
    # is the one place the floor is normalized, from_destabilizer's
    # families included.
    Mutant(
        "weight-floor",
        DEGENERATION,
        "floor = min(spectrum)",
        "floor = max(spectrum)",
        ("tests/test_degeneration.py", "-k", "floor_normalized"),
        120,
    ),
    # Twice the gcd divided out, with the exact-division check removed.
    Mutant(
        "doubled-gcd",
        LINALG,
        ("g = poly_primitive_gcd(c, poly_derivative(c))", "if any(c):"),
        ("g = [2 * x for x in poly_primitive_gcd(c, poly_derivative(c))]", "if False:"),
        ("tests/test_linalg.py", "-k", "squarefree"),
        120,
    ),
    # Newton steps capped at ceil(log2 n) - 2: too few for a Jordan block of 8.
    Mutant(
        "newton-cap",
        VFIELD,
        "range((n - 1).bit_length() + 2)",
        "range((n - 1).bit_length() - 2)",
        ("tests/test_vfield.py::test_chevalley_splits_three_jordan_blocks_of_size_eight",),
        120,
    ),
    # The Newton update x <- x - q(x) q'(x)^-1 with its sign flipped, and
    # with the denominator e left unscaled.
    Mutant(
        "newton-update-sign",
        VFIELD,
        "[[den * x - y for x, y in zip(rm, rs)]",
        "[[den * x + y for x, y in zip(rm, rs)]",
        ("tests/test_vfield.py", "-k", "chevalley"),
        120,
    ),
    Mutant(
        "newton-update-scale",
        VFIELD,
        "e * den // g",
        "e // g",
        ("tests/test_vfield.py", "-k", "chevalley"),
        120,
    ),
    # The split's integer certificate, one check at a time; only a wrong
    # factor or a wrong inverse reaches them.
    Mutant(
        "split-commute",
        VFIELD,
        "if linalg.int_mul(m, nil) != linalg.int_mul(nil, m):",
        "if False:",
        ("tests/test_vfield.py", "-k", "wrong"),
        120,
    ),
    Mutant(
        "split-nilpotent",
        VFIELD,
        "if not linalg.is_zero_matrix(power):",
        "if False:",
        ("tests/test_vfield.py", "-k", "wrong"),
        120,
    ),
    # The nilpotent part's action on f never tested, so a field whose
    # nilpotent part moves f is degenerated along its semisimple part.
    Mutant(
        "nilpotent-moves-f",
        DEGENERATION,
        "if any(derive(nil, zip(f.terms, coeffs)).values()):",
        "if False:",
        ("tests/test_degeneration.py", "-k", "nilpotent"),
        120,
    ),
    # The fraction-free echelon form: rows above the pivot left uncleared,
    # the pivot sought among rows already used, a zero row dropped, and the
    # cleared rows kept with their content; the product with b's rows taken
    # for its columns.
    Mutant("echelon-rows-above", LINALG, "if f and i != r:", "if f and i > r:", FRACTION_FREE, 120),
    Mutant("echelon-pivot-search", LINALG, "range(r, len(m))", "range(len(m))", FRACTION_FREE, 120),
    Mutant(
        "echelon-zero-row",
        LINALG,
        "m = [primitive(r) for r in rows]",
        "m = [primitive(r) for r in rows if any(r)]",
        FRACTION_FREE,
        120,
    ),
    Mutant(
        "echelon-not-primitive",
        LINALG,
        "m[i] = primitive([p * x - f * y for x, y in zip(row, prow)])",
        "m[i] = [p * x - f * y for x, y in zip(row, prow)]",
        FRACTION_FREE,
        120,
    ),
    Mutant("int-mul-transpose", LINALG, "cols = list(zip(*b))", "cols = b", FRACTION_FREE, 120),
    # Pseudo-division by b_lead instead of b_lead / gcd(a_lead, b_lead).
    Mutant(
        "gcd-multiplier",
        LINALG,
        "x, y, s = b[-1] // g, a[-1] // g,",
        "x, y, s = b[-1], a[-1] // g,",
        ("tests/test_linalg.py", "-k", "squarefree"),
        120,
    ),
    # Pseudo-remainders kept with their content.
    Mutant(
        "gcd-not-primitive",
        LINALG,
        "a, b = b, primitive(a)",
        "a, b = b, a",
        ("tests/test_linalg.py", "-k", "squarefree"),
        120,
    ),
    # The substitution divided by C*D^(d-1) instead of C*D^d.
    Mutant(
        "substitution-scale",
        VFIELD,
        "scale *= den**f.degree",
        "scale *= den ** (f.degree - 1)",
        ("tests/test_vfield.py::test_substitute_linear_matches_fraction_reference",),
        120,
    ),
    # Each row of the inverse scaled by L over the pivot's absolute value.
    Mutant(
        "inverse-abs-pivot",
        LINALG,
        "x * (den // row[i])",
        "x * (den // abs(row[i]))",
        ("tests/test_linalg.py", "-k", "inverse or fraction_free"),
        120,
    ),
    # Weight dots without the lcm of the weights' denominators.
    Mutant(
        "spectrum-denominator",
        "src/gitstab/weights.py",
        "return {Fraction(w, den): ",
        "return {Fraction(w): ",
        ("tests/test_weights.py::test_spectrum_matches_the_fraction_dot",),
        120,
    ),
    # A rational root accepted without the exact evaluation.
    Mutant("roots-exact-check", VFIELD, "if _horner(q, y):", "if False:", ("tests/test_vfield.py", "-k", "root"), 120),
    # Zero coefficients kept in HPoly's terms.
    Mutant(
        "hpoly-zero-terms",
        "src/gitstab/poly.py",
        "if not coeff:",
        "if coeff is None:",
        ("tests/test_poly.py", "tests/test_vfield.py", "-k", "cancel"),
        120,
    ),
    # The witness checks of _verdict, each weakened.
    Mutant(
        "verdict-fixing",
        STABILITY,
        '"fixing": lambda ws: not any(ws),',
        '"fixing": lambda ws: True,',
        ("tests/test_stability.py",),
        120,
    ),
    Mutant(
        "verdict-semi",
        STABILITY,
        '"semi": lambda ws: min(ws) >= 0 and any(ws),',
        '"semi": lambda ws: min(ws) >= 0,',
        ("tests/test_stability.py",),
        120,
    ),
    Mutant(
        "verdict-strict",
        STABILITY,
        '"strict": lambda ws: min(ws) > 0,',
        '"strict": lambda ws: min(ws) >= 0,',
        ("tests/test_stability.py",),
        120,
    ),
    # The decision program's rows in trace-zero coordinates, and the strict
    # program's trace row.
    Mutant(
        "decision-rows",
        STABILITY,
        "[g[last] - g[i] for i in range(last)]",
        "[g[last] - g[i] for i in range(last - 1)] + [0]",
        ("tests/test_stability.py",),
        120,
    ),
    Mutant(
        "strict-trace-row",
        STABILITY,
        "strict = [(ones + (0,), lp.EQ, 0)]",
        "strict = []",
        ("tests/test_stability.py",),
        120,
    ),
    # Bland's tie-break in the ratio test, reversed.
    Mutant(
        "bland-tie-break",
        LP,
        "(ratio == best and basis[r] < basis[pr])",
        "(ratio == best and basis[r] > basis[pr])",
        ("tests/test_lp.py",),
        120,
    ),
    # The simplex's repeated-basis check deleted, so a pivot that changes
    # nothing loops instead of failing.
    Mutant(
        "repeated-basis",
        LP,
        "if key in seen:",
        "if False:",
        ("tests/test_lp.py", "-k", "moves_nothing"),
        120,
    ),
    # The artificial of a '>=' row, read through its surplus column: its
    # phase-one cost -1 dropped, the pivot row of a negated column scaled to
    # +1 instead of -1, or the cost not moved onto the surplus column when
    # the artificial re-enters.  Without the offset, phase one may cycle, so
    # the selection starts with the dense comparisons, which fail on the
    # first wrong snapshot.
    Mutant("mirror-cost-offset", LP, "offset = -1 if phase == 1 else 0", "offset = 0", DENSE_SIMPLEX, 120),
    Mutant(
        "mirror-pivot-row-sign",
        LINALG,
        "pv = prow[c] if sign > 0 else -prow[c]",
        "pv = prow[c]",
        DENSE_SIMPLEX,
        120,
    ),
    Mutant("mirror-cost-row-step", LP, "crow[c] += 1", "pass", DENSE_SIMPLEX, 120),
    # x- read through the column of x+: its reduced cost read unnegated, a
    # mirrored pivot taken with sign 1, the phase-two cost reduced as if a
    # basic x- held +1, and a ray's entries along a mirrored column left
    # unnegated.
    Mutant(
        "mirror-reduced-cost",
        LP,
        "crow[c] < (offset if k >= width else 0) if neg else crow[c] > 0",
        "crow[c] < offset if neg and k >= width else crow[c] > 0",
        DENSE_SIMPLEX,
        120,
    ),
    Mutant(
        "mirror-pivot-sign",
        LP,
        "linalg.eliminate(tab + [crow], pr, c, -1 if neg else 1)",
        "linalg.eliminate(tab + [crow], pr, c)",
        DENSE_SIMPLEX,
        120,
    ),
    Mutant(
        "mirror-phase-two-cost",
        LP,
        "linalg.eliminate([tab[r], crow], 0, c, -1 if neg else 1)",
        "linalg.eliminate([tab[r], crow], 0, c)",
        DENSE_SIMPLEX,
        120,
    ),
    Mutant("mirror-ray-sign", LP, "tab[r][c] if neg else -tab[r][c]", "-tab[r][c]", DENSE_SIMPLEX, 120),
    # The box enumerator letting the last coordinate reach bound + 1.
    Mutant(
        "box-bound",
        "src/gitstab/boxscan.py",
        "if last < -bound or last > bound:",
        "if last < -bound or last > bound + 1:",
        ("tests/test_boxscan.py",),
        120,
    ),
    # The Futaki closed form with its sign flipped, and the Fano range
    # admitting d = n + 1.
    Mutant(
        "futaki-sign",
        FUTAKI,
        "return -Fraction(n + 1 - d)",
        "return Fraction(n + 1 - d)",
        ("tests/test_futaki.py",),
        120,
    ),
    Mutant("fano-range", FUTAKI, "if not 1 < d < n + 1:", "if not 1 < d <= n + 1:", ("tests/test_futaki.py",), 120),
)


def edits(m: Mutant) -> list:
    """The row's (snippet, replacement) pairs, in the order they apply."""
    if isinstance(m.snippet, tuple):
        return list(zip(m.snippet, m.replacement))
    return [(m.snippet, m.replacement)]


def occurrences(m: Mutant, root: str = ROOT) -> int:
    """1 when every snippet of the row occurs exactly once, else the count
    of the first that does not."""
    with open(os.path.join(root, m.path), encoding="utf-8") as fh:
        text = fh.read()
    counts = [text.count(snippet) for snippet, _ in edits(m)]
    return next((c for c in counts if c != 1), 1)


def copy_tree(dest: str) -> None:
    """The checkout without its git directory and caches."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench-*")
    shutil.copytree(ROOT, dest, ignore=ignore)


def run_tests(tree: str, tests: tuple, limit: float) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run inside tree; on
    timeout the run's whole process group is killed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def check(m: Mutant, tree: str) -> str:
    """Apply m's edits in a fresh copy under tree and run its selection."""
    copy = os.path.join(tree, m.name)
    copy_tree(copy)
    path = os.path.join(copy, m.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for snippet, replacement in edits(m):
        text = text.replace(snippet, replacement)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return run_tests(copy, m.tests, m.limit)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="rows to run (default: all)")
    ap.add_argument("--list", action="store_true", help="print the table and exit")
    args = ap.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    rows = [m for m in MUTANTS if not args.names or m.name in args.names]
    if args.list:
        for m in rows:
            changes = "; ".join(f"{a!r} -> {b!r}" for a, b in edits(m))
            print(f"{m.name}: {m.path}: {changes}; {' '.join(m.tests)}")
        return 0
    misplaced = [m.name for m in rows if occurrences(m) != 1]
    if misplaced:
        print(f"snippet not found exactly once: {', '.join(misplaced)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="gitstab-mutants-") as tree:
        base = os.path.join(tree, "unmutated")
        copy_tree(base)
        for tests in dict.fromkeys(m.tests for m in rows):
            outcome = run_tests(base, tests, max(m.limit for m in rows if m.tests == tests))
            if outcome != "passed":
                print(f"selection {' '.join(tests)} {outcome} on the unmutated copy")
                return 2
        survivors = []
        for m in rows:
            start = time.perf_counter()
            outcome = check(m, tree)
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{m.name}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append(m.name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
