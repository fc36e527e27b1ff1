"""Seeded inputs for the benchmark workloads.

Every workload is a list of strata.  A stratum fixes the structural
properties that set the cost of an op (variables, degree, term count, field
kind, box bound, subcommand) and owns a pool of items.  Item i of a pool is
made by a generator seeded with the workload, stratum name and i, so the pool
is the same on every machine and its golden answers are recorded once
(record_golden.py).  A run with seed s draws a fixed number of items from
every pool with Random(s) and shuffles them into one run order.

Only the generated inputs (polynomial text, field matrices, argument
vectors) reach the program.  Dense classify forms are made here with
gitstab's own substitute_linear, the path `stability --basis-sweep` runs, so
set-up exercises it as well; every other input is built from the standard
library alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

WORKED_CUBIC = "z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3"


def mono_text(mono) -> str:
    return "*".join(f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(mono) if e)


def poly_text(terms: dict) -> str:
    """Text for a {monomial: rational} map, in the syntax parse_poly reads."""
    parts = []
    for mono in sorted(terms, reverse=True):
        c = Fraction(terms[mono])
        mag = abs(c)
        body = mono_text(mono) if mag == 1 else f"{mag}*{mono_text(mono)}"
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def digest(obj) -> str:
    """Short content hash of a JSON-serializable value."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# -- polynomials --


def random_monomial(rng: Random, n_vars: int, degree: int) -> tuple:
    mono = [0] * n_vars
    for _ in range(degree):
        mono[rng.randrange(n_vars)] += 1
    return tuple(mono)


def coeff(rng: Random) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.choice((1, 1, 1, 2, 3)))


def random_terms(rng: Random, n_vars: int, degree: int, n_terms: int) -> dict:
    """Exactly n_terms distinct monomials with nonzero rational coefficients."""
    terms = {}
    while len(terms) < n_terms:
        terms[random_monomial(rng, n_vars, degree)] = coeff(rng)
    return terms


def unstable_terms(rng: Random, n_vars: int, degree: int, n_terms: int) -> dict:
    """Monomials of positive weight under a random trace-zero integer vector,
    so the form is not weakly stable and both cone programs run."""
    while True:
        head = [rng.randint(-3, 3) for _ in range(n_vars - 1)]
        lam = head + [-sum(head)]
        pool = [m for m in _monomials(n_vars, degree) if sum(a * b for a, b in zip(lam, m)) > 0]
        if len(pool) >= n_terms:
            return {m: coeff(rng) for m in rng.sample(pool, n_terms)}


def _monomials(n_vars: int, degree: int) -> list:
    if n_vars == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1) for rest in _monomials(n_vars - 1, degree - e)]


def weakly_terms(rng: Random, n_vars: int, degree: int, n_pairs: int) -> dict:
    """Binomials whose segments all pass through the barycenter (d/n)*1.

    The barycenter then lies in the relative interior of the Newton polytope,
    so the form is weakly stable; with fewer than n_vars - 1 segments the
    polytope is not full-dimensional and the form is not stable
    (z0*z1 + z2*z3 and z0*z1*z2 + z3^3 are the smallest examples).  Random
    forms land in this class only about 1% of the time.
    """
    terms = {}
    bary = Fraction(degree, n_vars)
    while len(terms) < 2 * n_pairs:
        g = random_monomial(rng, n_vars, degree)
        for t in range(2, 4 * n_vars + 1):
            h = [gi + t * (bary - gi) for gi in g]
            if all(x.denominator == 1 and x >= 0 for x in h):
                h = tuple(int(x) for x in h)
                if h != g and g not in terms and h not in terms:
                    terms[g] = coeff(rng)
                    terms[h] = coeff(rng)
                break
    return terms


# -- matrices (Fraction entries, rows as tuples) --


def _inverse(a):
    """Gauss-Jordan inverse, or None when a is singular."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def invertible(rng: Random, n: int, bound: int) -> tuple:
    """A random small-integer n x n matrix and its inverse."""
    while True:
        b = tuple(tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n))
        inv = _inverse(b)
        if inv is not None:
            return b, inv


def _block_diag(blocks) -> tuple:
    n = sum(len(b) for b in blocks)
    rows = []
    at = 0
    for b in blocks:
        for row in b:
            rows.append((Fraction(0),) * at + tuple(row) + (Fraction(0),) * (n - at - len(row)))
        at += len(b)
    return tuple(rows)


def conjugate_field(rng: Random, blocks) -> tuple:
    """B * diag(blocks) * B^-1 for a random basis B, never a diagonal matrix."""
    core = _block_diag(blocks)
    n = len(core)
    while True:
        b, inv = invertible(rng, n, 1)
        v = _mul(_mul(b, core), inv)
        if any(v[i][j] for i in range(n) for j in range(n) if i != j):
            return v


def field_blocks(rng: Random, kind: str, n: int) -> list:
    """Diagonal core of a field of the given kind.

    rational:   rational eigenvalues, so the field diagonalizes over Q;
    nilpotent:  a Jordan block, so the nilpotent part moves the form;
    irrational: a companion block of x^2 - p, eigenvalues +-sqrt(p).
    """
    eig = [Fraction(0)] * n
    while len(set(eig)) == 1:  # a scalar core conjugates to itself, a diagonal field
        eig = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(n)]
    if kind == "rational":
        return [[[e]] for e in eig]
    if kind == "nilpotent":
        e = eig[0]
        return [[[e, Fraction(1)], [Fraction(0), e]]] + [[[x]] for x in eig[2:]]
    p = Fraction(rng.choice((2, 3, 5, 6, 7)))
    return [[[Fraction(0), Fraction(1)], [p, Fraction(0)]]] + [[[x]] for x in eig[2:]]


def matrix_text(rows) -> str:
    return json.dumps([[str(x) if x.denominator != 1 else int(x) for x in row] for row in rows])


def trace_zero_ints(rng: Random, n: int, bound: int) -> list:
    while True:
        head = [rng.randint(-bound, bound) for _ in range(n - 1)]
        lam = head + [-sum(head)]
        if any(lam):
            return lam


# -- strata --


@dataclass(frozen=True)
class Stratum:
    name: str
    per_run: int  # items a run draws
    pool: int  # items with recorded golden answers
    make: Callable[[Random], dict]


def _form(n_vars, degree, n_terms, terms=random_terms):
    return lambda rng: {"f": poly_text(terms(rng, n_vars, degree, n_terms)), "n_vars": n_vars}


def _dense(n_vars, degree):
    """A sparse form pulled back along a random basis, as --basis-sweep does."""

    def make(rng):
        from gitstab import poly, vfield

        sparse = poly.HPoly(n_vars, random_terms(rng, n_vars, degree, n_vars))
        basis, _ = invertible(rng, n_vars, 2)
        dense = vfield.substitute_linear(sparse, basis)
        return {"f": poly_text(dense.terms), "n_vars": n_vars}

    return make


def _crosscheck(n_vars, degree, n_terms, bound, terms=random_terms):
    return lambda rng: {
        "f": poly_text(terms(rng, n_vars, degree, n_terms)),
        "n_vars": n_vars,
        "bound": bound,
    }


def _degenerate(kind, n_vars, n_terms):
    return lambda rng: {
        "f": poly_text(random_terms(rng, n_vars, 3, n_terms)),
        "n_vars": n_vars,
        "field": matrix_text(conjugate_field(rng, field_blocks(rng, kind, n_vars))),
        "kind": kind,
    }


def _cli(sub):
    def make(rng):
        if sub == "corpus":  # three lines through stdin
            rows = [{"f": poly_text(random_terms(rng, 4, 3, rng.randint(4, 8))), "n_vars": 4}
                    for _ in range(3)]
            return {"argv": ["corpus", "-", "--workers", "1"],
                    "stdin": "".join(json.dumps(r) + "\n" for r in rows)}
        n = rng.choice((4, 4, 5)) if sub in ("parse", "mu", "stability", "destabilize") else 4
        f = poly_text(random_terms(rng, n, 3, rng.randint(4, 8)))
        argv = [sub, "-f", f, "-n", str(n)]
        if sub == "stability-sweep":
            argv = ["stability", "-f", f, "-n", str(n), "--basis-sweep", "2",
                    "--seed", str(rng.randint(0, 99))]
        elif sub == "mu":
            w = ",".join(str(Fraction(rng.randint(-6, 6), rng.choice((1, 2)))) for _ in range(n))
            argv.append(f"-w={w}")
        elif sub == "futaki":
            argv.append("-w=" + ",".join(map(str, trace_zero_ints(rng, n, 5))))
        elif sub == "degenerate-destabilizer":
            w = ",".join(map(str, trace_zero_ints(rng, n, 5)))
            argv = ["degenerate", "-f", f, "-n", str(n), "--from-destabilizer", f"-w={w}"]
        elif sub == "degenerate-field":
            kind = rng.choice(("rational", "rational", "irrational"))
            v = matrix_text(conjugate_field(rng, field_blocks(rng, kind, n)))
            argv = ["degenerate", "-f", f, "-n", str(n), "--field", v]
        elif sub == "crosscheck":
            argv += ["--bound", "2"]
        return {"argv": argv + ["--json"], "stdin": ""}

    return make


CLASSIFY = [
    Stratum("n4d3t6", 120, 360, _form(4, 3, 6)),
    Stratum("n5d3t10", 60, 180, _form(5, 3, 10)),
    Stratum("n6d3t14", 16, 48, _form(6, 3, 14)),
    Stratum("n5d4t16", 10, 30, _form(5, 4, 16)),
    Stratum("n7d3t20", 6, 24, _form(7, 3, 20)),
    Stratum("n8d3t24", 4, 12, _form(8, 3, 24)),
    Stratum("n8d4t24", 3, 9, _form(8, 4, 24)),
    Stratum("unstable-n5d3t10", 12, 36, _form(5, 3, 10, unstable_terms)),
    Stratum("unstable-n6d3t14", 6, 24, _form(6, 3, 14, unstable_terms)),
    Stratum("unstable-n8d3t16", 4, 12, _form(8, 3, 16, unstable_terms)),
    Stratum("unstable-n8d4t16", 3, 9, _form(8, 4, 16, unstable_terms)),
    Stratum("dense-n4d3", 10, 30, _dense(4, 3)),
    Stratum("dense-n5d3", 4, 12, _dense(5, 3)),
    Stratum("dense-n4d4", 10, 30, _dense(4, 4)),
    Stratum("weakly-n4d3", 8, 24, _form(4, 3, 1, weakly_terms)),
    Stratum("weakly-n6d3", 8, 24, _form(6, 3, 2, weakly_terms)),
    Stratum("weakly-n8d4", 4, 12, _form(8, 4, 3, weakly_terms)),
]

CROSSCHECK = [
    Stratum("n4t4b2", 38, 114, _crosscheck(4, 3, 4, 2)),
    Stratum("weakly-n4b3", 7, 21, _crosscheck(4, 3, 1, 3, weakly_terms)),
    Stratum("n4t6b3", 40, 120, _crosscheck(4, 3, 6, 3)),
    Stratum("n4t4b4", 10, 30, _crosscheck(4, 3, 4, 4)),
    Stratum("n4t8b4", 6, 18, _crosscheck(4, 3, 8, 4)),
    Stratum("n4t5b7", 2, 6, _crosscheck(4, 3, 5, 7)),
    Stratum("n5d3t6b2", 6, 18, _crosscheck(5, 3, 6, 2)),
    Stratum("n5d4t8b2", 5, 15, _crosscheck(5, 4, 8, 2)),
]

DEGENERATE = [
    Stratum("rational-n4t5", 100, 200, _degenerate("rational", 4, 5)),
    Stratum("rational-n5t6", 60, 120, _degenerate("rational", 5, 6)),
    Stratum("rational-n6t6", 30, 60, _degenerate("rational", 6, 6)),
    Stratum("nilpotent-n4t5", 50, 100, _degenerate("nilpotent", 4, 5)),
    Stratum("nilpotent-n6t6", 25, 50, _degenerate("nilpotent", 6, 6)),
    Stratum("irrational-n4t5", 50, 100, _degenerate("irrational", 4, 5)),
    Stratum("irrational-n6t6", 25, 50, _degenerate("irrational", 6, 6)),
]

CLI = [
    Stratum("parse", 10, 30, _cli("parse")),
    Stratum("mu", 10, 30, _cli("mu")),
    Stratum("stability", 10, 30, _cli("stability")),
    Stratum("stability-sweep", 5, 15, _cli("stability-sweep")),
    Stratum("destabilize", 10, 30, _cli("destabilize")),
    Stratum("futaki", 10, 30, _cli("futaki")),
    Stratum("degenerate-destabilizer", 10, 30, _cli("degenerate-destabilizer")),
    Stratum("degenerate-field", 14, 48, _cli("degenerate-field")),
    Stratum("crosscheck", 10, 30, _cli("crosscheck")),
    Stratum("corpus", 8, 24, _cli("corpus")),
]

WORKLOADS = {
    "classify": CLASSIFY,
    "crosscheck": CROSSCHECK,
    "degenerate": DEGENERATE,
    "cli": CLI,
}

# The untimed warm-up op of set-up: one fixed input per workload, so set-up
# does the same work whatever the seed; for degenerate and cli it imports sympy.
CUBIC_SURFACE = "z0^3 + z1^3 + z2^3 + z3^3"
SWAP_FIELD = "[[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]"
WARMUP = {
    "classify": {"f": WORKED_CUBIC, "n_vars": 4},
    "crosscheck": {"f": WORKED_CUBIC, "n_vars": 4, "bound": 2},
    "degenerate": {"f": CUBIC_SURFACE, "n_vars": 4, "field": SWAP_FIELD, "kind": "rational"},
    "cli": {"argv": ["degenerate", "-f", CUBIC_SURFACE, "--field", SWAP_FIELD, "--json"], "stdin": ""},
}

# Ops a --trace 1 run makes in each of its three passes, from the start of
# the run order (wrapping around): about a third of --seconds untraced.
TRACE_OPS = {"classify": 90, "crosscheck": 32, "degenerate": 330, "cli": 32}


def pool_item(workload: str, stratum: Stratum, index: int) -> dict:
    return stratum.make(Random(f"{workload}/{stratum.name}/{index}"))


def draw(workload: str, seed: int, scale: float = 1.0) -> list:
    """The run's items as (stratum name, pool index, item), in run order.

    Each stratum's items are spread evenly over the run order from a random
    offset, so every prefix holds each stratum in proportion to its per_run
    share (give or take one item): a run that ends part-way through the
    order measures the same mix as a whole pass.  scale < 1 draws
    proportionally fewer items (at least one per stratum); the smoke test
    uses it.
    """
    rng = Random(seed)
    keyed = []
    for s in WORKLOADS[workload]:
        k = max(1, round(s.per_run * scale))
        offset = rng.random()
        for j, i in enumerate(rng.sample(range(s.pool), k)):
            keyed.append(((j + offset) / k, s, i))
    keyed.sort(key=lambda t: t[0])
    return [(s.name, i, pool_item(workload, s, i)) for _, s, i in keyed]
