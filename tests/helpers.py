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
    from gitstab.linalg import mat_inv

    while True:
        m = random_matrix(rng, n, bound)
        try:
            mat_inv(m)
        except ValueError:
            continue
        return m


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
