"""Shared generators and independent oracles for the test suite.

The oracles here (naive multiplication, naive derivation) are deliberately
written from scratch against the definitions, not by calling the package, so
they can catch bugs in the library implementations.
"""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from math import lcm
from random import Random

from gitstab.poly import HPoly, parse_poly
from gitstab.weights import WeightVector


HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
README_CLI_RECORD = os.path.join(HERE, "data", "readme_cli.json")


def run_python(*args, timeout=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with the package importable from this checkout.

    With a timeout (seconds), an interpreter still running then is killed and
    subprocess.TimeoutExpired raised."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def readme_cli_examples() -> list:
    """Argument vectors of the README's `gitstab ...` examples that need no
    input file (all but `corpus` and `lp-debug`), each as written and then
    with `--json` added or removed."""
    with open(os.path.join(HERE, "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        commands += [line for line in lines if line.startswith("gitstab ")]
    commands += re.findall(r"`(gitstab [^`]*)`", text)
    examples = []
    for command in commands:
        argv = shlex.split(command)[1:]
        if argv[0] in ("corpus", "lp-debug"):
            continue
        toggled = [a for a in argv if a != "--json"] if "--json" in argv else argv + ["--json"]
        examples += [argv, toggled]
    return examples


def run_cli(argv) -> list:
    """[exit code, stdout] of one in-process `gitstab` run."""
    from gitstab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, out.getvalue()]


def record_readme_cli():
    """Rewrite the pinned README example outputs from the program as it is.

    Run it (`PYTHONPATH=src:tests python -c "import helpers;
    helpers.record_readme_cli()"`) only on a commit whose answers are
    trusted, since the test then holds every later commit to them."""
    rows = [{"argv": a, "result": run_cli(a)} for a in readme_cli_examples()]
    with open(README_CLI_RECORD, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")


def solve_stopping_short(real_solve, call: int):
    """lp.solve, except that its call-th call reports the optimum 0 at the
    origin, as a simplex that stopped short of the cap would."""
    count = 0

    def solve(program, pivot_log=None):
        nonlocal count
        count += 1
        out = real_solve(program, pivot_log)
        if count != call:
            return out
        return type(out)(out.status, Fraction(0), (Fraction(0),) * program.n_vars)

    return solve


def hp(text: str, n_vars: int) -> HPoly:
    return parse_poly(text, n_vars)


def random_monomial(rng: Random, n_vars: int, degree: int) -> tuple:
    mono = [0] * n_vars
    for _ in range(degree):
        mono[rng.randrange(n_vars)] += 1
    return tuple(mono)


def random_coeff(rng: Random, num_bound: int = 9, den_bound: int = 1) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-num_bound, num_bound)
    den = rng.randint(1, den_bound)
    return Fraction(num, den)


def random_hpoly(
    rng: Random,
    n_vars: int,
    degree: int,
    max_terms: int,
    num_bound: int = 9,
    den_bound: int = 1,
) -> HPoly:
    n_terms = rng.randint(1, max_terms)
    terms = {}
    for _ in range(n_terms):
        terms[random_monomial(rng, n_vars, degree)] = random_coeff(rng, num_bound, den_bound)
    return HPoly(n_vars, terms)


def random_binomial_sum(rng: Random, n: int) -> HPoly:
    """Binomials z^g + z^h with g + h = (2, ..., 2) in degree n, fewer than
    n - 1 of them: (1, ..., 1) is the midpoint of every segment, so C = L."""
    terms = {}
    for _ in range(rng.randint(1, max(1, n - 2))):
        g = [1] * n
        for _ in range(rng.randint(1, n)):
            i, j = rng.sample(range(n), 2)
            if g[i] > 0 and g[j] < 2:
                g[i] -= 1
                g[j] += 1
        terms[tuple(g)] = Fraction(rng.randint(1, 5))
        terms[tuple(2 - x for x in g)] = Fraction(-rng.randint(1, 5))
    return HPoly(n, terms)


def random_weights(rng: Random, n_vars: int, bound: int = 6, den_bound: int = 1) -> WeightVector:
    return WeightVector.from_values(
        Fraction(rng.randint(-bound, bound), rng.randint(1, den_bound)) for _ in range(n_vars)
    )


def random_trace_zero_ints(rng: Random, n_vars: int, bound: int = 5) -> WeightVector:
    head = [rng.randint(-bound, bound) for _ in range(n_vars - 1)]
    return WeightVector.from_values(head + [-sum(head)])


def random_matrix(rng: Random, n: int, bound: int = 3):
    return tuple(
        tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n)) for _ in range(n)
    )


def random_invertible(rng: Random, n: int, bound: int = 3):
    while True:
        m = random_matrix(rng, n, bound)
        if fraction_inverse(m) is not None:
            return m


def fraction_horner(p, a):
    """p(a) by Horner's rule on Fraction matrices, one product per degree:
    the plain reference for linalg.int_poly_eval, which runs the same
    recurrence on integers."""
    n = len(a)
    p = list(p)
    while p and not p[-1]:
        p.pop()
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c in reversed(p):
        acc = tuple(
            tuple(
                sum((acc[i][k] * a[k][j] for k in range(n)), Fraction(0)) + (c if i == j else 0)
                for j in range(n)
            )
            for i in range(n)
        )
    return acc


def fraction_mat_mul(a, b):
    """a*b with one Fraction sum per entry: the plain reference for
    linalg.int_mul."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, cb)) for cb in bt) for ra in a)


def fraction_inverse(a):
    """a^-1 by Fraction Gauss-Jordan on [a | I], or None when a is singular:
    the plain reference for linalg.int_inverse."""
    n = len(a)
    red, pivots = fraction_rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red)


def conjugate(p, core):
    """P^-1 * core * P for an invertible rational P."""
    return fraction_mat_mul(fraction_inverse(p), fraction_mat_mul(core, p))


def is_nilpotent(a) -> bool:
    """Whether a^n = 0 for the n x n rational matrix a, by Fraction products."""
    power = a
    for _ in range(len(a) - 1):
        power = fraction_mat_mul(power, a)
    return not any(x for row in power for x in row)


def fraction_chevalley_split(a, psf):
    """(s, n) for a rational matrix a and the monic squarefree factor psf of
    its characteristic polynomial, by Newton's iteration
    x <- x - psf(x) psf'(x)^-1 on Fraction matrices from x = a, capped at
    ceil(log2 n) + 2 steps: the plain reference for vfield.chevalley_split,
    which runs the same iteration on integers."""
    dpsf = [i * c for i, c in enumerate(psf) if i]
    s = tuple(tuple(Fraction(x) for x in row) for row in a)
    for _ in range((len(a) - 1).bit_length() + 2):
        value = fraction_horner(psf, s)
        if not any(x for row in value for x in row):
            break
        step = fraction_mat_mul(value, fraction_inverse(fraction_horner(dpsf, s)))
        s = tuple(tuple(x - y for x, y in zip(rs, rt)) for rs, rt in zip(s, step))
    else:
        raise RuntimeError("Newton iteration for the semisimple part did not converge")
    return s, tuple(tuple(Fraction(x) - y for x, y in zip(ra, rs)) for ra, rs in zip(a, s))


def monic_squarefree_factor(b):
    """The monic integer squarefree factor q of an integer matrix's
    characteristic polynomial, as degeneration._eigenbasis takes it."""
    from gitstab import linalg

    q = linalg.int_squarefree(linalg.int_charpoly(b))
    return q if q[-1] > 0 else [-c for c in q]


def integer_split(v):
    """(s, n) of a LinearVectorField: vfield.chevalley_split on B = D*v and
    its monic squarefree factor, with the parts M/e and N/e of B divided by D
    into Fraction matrices."""
    from gitstab import linalg, vfield

    b, den = linalg.integer_matrix(v.rows)
    m, nil, e = vfield.chevalley_split(b, monic_squarefree_factor(b))
    return tuple(
        tuple(tuple(Fraction(x, den * e) for x in row) for row in part) for part in (m, nil)
    )


def fraction_rref(rows):
    """Reduced row echelon form by Fraction Gauss-Jordan, one
    linalg.eliminate step per pivot: the plain reference for
    linalg.int_echelon, which eliminates on primitive integer rows."""
    from gitstab.linalg import eliminate, frac

    m = [list(map(frac, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        eliminate(m, r, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], pivots


def naive_multiply(f: HPoly, g: HPoly) -> HPoly:
    """Schoolbook product of two polynomials, for checking derivations."""
    acc = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(ma, mb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return HPoly(f.n_vars, {m: c for m, c in acc.items() if c})


def naive_derivation(matrix, f: HPoly):
    """sum_ij a_ij z_j d f/d z_i computed via explicit partials.

    Returns a plain dict of terms (possibly empty), not an HPoly.
    """
    out = {}
    n = f.n_vars
    for mono, c in f.terms.items():
        for i in range(n):
            if not mono[i]:
                continue
            # d/dz_i knocks the exponent down and multiplies by it
            for j in range(n):
                a = matrix[i][j]
                if not a:
                    continue
                key = list(mono)
                key[i] -= 1
                key[j] += 1
                key = tuple(key)
                out[key] = out.get(key, Fraction(0)) + c * mono[i] * a
    return {m: c for m, c in out.items() if c}


def fraction_substitute_linear(f: HPoly, basis) -> HPoly:
    """f(P z) expanded with Fraction coefficients, one linear form at a time:
    the plain reference for vfield.substitute_linear, which expands the
    integer-scaled f and P."""
    from gitstab.linalg import mat
    from gitstab.poly import _mul_maps

    n = f.n_vars
    zero = (0,) * n
    forms = [
        {tuple(int(k == j) for k in range(n)): x for j, x in enumerate(row) if x}
        for row in mat(basis)
    ]
    out = {}
    for mono, c in f.terms.items():
        term = {zero: c}
        for i, e in enumerate(mono):
            for _ in range(e):
                term = _mul_maps(term, forms[i])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    return HPoly(n, out)


def fraction_squarefree_part(p):
    """p / gcd(p, p'), monic, by Euclid's algorithm and long division over
    Fractions: the plain reference for linalg.int_squarefree, which takes
    the gcd by an integer primitive remainder sequence."""

    def trim(a):
        a = list(a)
        while a and not a[-1]:
            a.pop()
        return a

    def divmod_poly(a, b):
        a, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b):
            k = len(a) - len(b)
            q[k] = a[-1] / b[-1]
            for i, c in enumerate(b):
                a[k + i] -= q[k] * c
            a = trim(a)
        return q, a

    p = trim(Fraction(c) for c in p)
    if not p:
        raise ValueError("zero polynomial")
    a, b = p, trim(i * c for i, c in enumerate(p) if i)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    q, r = divmod_poly(p, a)
    if r:
        raise RuntimeError("gcd failed to divide exactly")
    return tuple(c / q[-1] for c in q)


def fraction_charpoly(a):
    """Faddeev-LeVerrier over Fractions: the plain reference for
    linalg.charpoly and linalg.int_charpoly, which run it on integers."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    m = [row[:] for row in a]
    for k in range(1, n + 1):
        if k > 1:
            c = coeffs[n - k + 1]
            shifted = [[m[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
            m = [
                [sum(a[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
        coeffs[n - k] = -sum(m[i][i] for i in range(n)) / k
    return tuple(coeffs)


def squarefree_part(p):
    """The monic squarefree part of a rational polynomial, from
    linalg.int_squarefree: the factor rational_diagonalize takes from its
    caller."""
    from gitstab import linalg

    q = linalg.int_squarefree(linalg.clear_denominators(p)[0])
    return tuple(Fraction(x, q[-1]) for x in q)


def _integer_multiple(values):
    """A rational vector times the lcm of its denominators, as ints."""
    den = lcm(*(Fraction(x).denominator for x in values))
    return [int(x * den) for x in values]


def _fraction_int_echelon(rows):
    red, pivots = fraction_rref(rows)
    return [_integer_multiple(r) for r in red], pivots


def _fraction_int_nullspace(rows):
    red, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    den = lcm(*(x.denominator for v in basis for x in v))
    return [[int(x * den) for x in v] for v in basis], den


def _fraction_int_inverse(a):
    inverse = fraction_inverse(a)
    if inverse is None:
        return None
    den = lcm(*(x.denominator for row in inverse for x in row))
    return [[int(x * den) for x in row] for row in inverse], den


# linalg's integer kernels, each computed by its Fraction reference and
# scaled back to integers: the same values up to the positive row, vector or
# polynomial multiples their contracts leave open.
FRACTION_INTEGER_KERNELS = {
    "int_mul": lambda a, b: [list(map(int, r)) for r in fraction_mat_mul(a, b)],
    "int_charpoly": lambda b: list(map(int, fraction_charpoly(b))),
    "int_poly_eval": lambda e, b: [list(map(int, r)) for r in fraction_horner(e, b)],
    "int_echelon": _fraction_int_echelon,
    "int_nullspace": _fraction_int_nullspace,
    "int_inverse": _fraction_int_inverse,
    "int_squarefree": lambda c: _integer_multiple(fraction_squarefree_part(c)),
}
