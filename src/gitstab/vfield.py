"""Linear vector fields acting on polynomials by derivation.

A field v = sum_ij a_ij z_j d/dz_i is stored as its rational matrix (rows
indexed by i, columns by j), so v sends the monomial z^gamma to
sum_ij a_ij gamma_i z_j z^(gamma - e_i).  Diagonal fields act on monomials
with eigenvalue <lambda, gamma>; the rest of the module is about reducing a
general field to that case: the additive semisimple/nilpotent splitting over
the rationals, exact diagonalization when the eigenvalues are rational
(decided by integer p-adic root finding, with no external algebra system), and
linear changes of coordinates on polynomials.  The splitting and the
diagonalization take the squarefree characteristic factor from their caller,
which computes it once per field.  `parse_matrix` is the one reader of n x n
JSON matrices (a field, a basis); every malformed one is a ValueError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, isqrt

from . import linalg
from .linalg import frac
from .poly import HPoly, _mul_maps
from .record import record
from .weights import WeightVector

# Newton iteration doubles the nilpotency order it has corrected for, so even
# with every safety margin this cap is far beyond what dimension <= 16 needs.
_NEWTON_CAP = 24

# Refuse substitutions whose expansion takes more coefficient products than
# this; each costs a few microseconds of Fraction arithmetic.
MAX_SUBSTITUTION_WORK = 200_000


@record
class LinearVectorField:
    """v = sum a_ij z_j d/dz_i with rational a_ij, as an n x n matrix."""

    rows: tuple

    def __post_init__(self):
        rows = linalg.mat(self.rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("vector field matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def diagonal(cls, values) -> "LinearVectorField":
        vals = [frac(x) for x in values]
        n = len(vals)
        return cls(
            tuple(
                tuple(vals[i] if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_diagonal(self) -> bool:
        return all(
            not x for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j
        )

    @property
    def is_zero(self) -> bool:
        return linalg.is_zero_matrix(self.rows)

    def diagonal_entries(self) -> WeightVector:
        if not self.is_diagonal:
            raise ValueError("field is not diagonal")
        return WeightVector(tuple(self.rows[i][i] for i in range(self.n)))

    def is_nilpotent(self) -> bool:
        b = self.rows
        for _ in range(self.n - 1):
            if linalg.is_zero_matrix(b):
                return True
            b = linalg.mat_mul(b, self.rows)
        return linalg.is_zero_matrix(b)

    def nonzero_entries(self):
        return [
            (i, j, x) for i, row in enumerate(self.rows) for j, x in enumerate(row) if x
        ]


def parse_matrix(text: str, n: int, what: str) -> tuple:
    """An n x n matrix of rationals from a JSON array of rows; every failure
    is a ValueError naming `what`."""
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"malformed {what} matrix: {exc}") from None
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise ValueError(f"{what} must be a {n}x{n} JSON array of arrays")
    return linalg.mat(rows)


def parse_field(text: str, n_vars: int) -> LinearVectorField:
    """Parse 'diag:w0,w1,...' or an n_vars x n_vars JSON matrix of rationals."""
    text = text.strip()
    if not text.startswith("diag:"):
        return LinearVectorField(parse_matrix(text, n_vars, "field"))
    v = LinearVectorField.diagonal(WeightVector.parse(text[5:]).values)
    if v.n != n_vars:
        raise ValueError(f"field acts on {v.n} variables, expected {n_vars}")
    return v


def apply_derivation(v: LinearVectorField, f: HPoly) -> HPoly | None:
    """v(f) as a polynomial of the same degree; None when v(f) = 0."""
    if v.n != f.n_vars:
        raise ValueError(f"field on {v.n} variables applied to {f.n_vars}-variable polynomial")
    out: dict = {}
    entries = v.nonzero_entries()
    for mono, c in f.terms.items():
        for i, j, a in entries:
            gi = mono[i]
            if not gi:
                continue
            m = list(mono)
            m[i] -= 1
            m[j] += 1
            key = tuple(m)
            s = out.get(key, Fraction(0)) + c * a * gi
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    if not out:
        return None
    return HPoly(f.n_vars, out)


def invariance(v: LinearVectorField, f: HPoly) -> Fraction | None:
    """The rational kappa with v(f) = kappa * f, or None when there is none.

    kappa is 0 when v(f) = 0, so test the result with `is not None`.
    """
    g = apply_derivation(v, f)
    if g is None:
        return Fraction(0)
    if set(g.terms) != set(f.terms):
        return None
    items = iter(f.terms.items())
    mono, c = next(items)
    kappa = g.terms[mono] / c
    for mono, c in items:
        if g.terms[mono] / c != kappa:
            return None
    return kappa


def chevalley_split(v: LinearVectorField, psf: tuple) -> tuple:
    """Additive decomposition v = s + n over the rationals.

    s is semisimple (its minimal polynomial is squarefree), n is nilpotent,
    and the two commute; both are polynomials in v, which is what the Newton
    iteration below computes.  psf is p*, the squarefree part of the
    characteristic polynomial of v.
    Starting from v itself, the update x <- x - p*(x) * p*'(x)^{-1} stays
    inside the commutative algebra Q[v] and converges quadratically to the
    unique root of p* congruent to v modulo nilpotents.  Everything is exact,
    so convergence is detected by p*(x) vanishing identically; when p*(v) = 0
    already, v is semisimple and the nilpotent part is zero.  s and v have
    the same characteristic polynomial, so p* is also that of s.
    """
    a = v.rows
    dpsf = linalg.poly_derivative(psf)
    s = a
    for _ in range(_NEWTON_CAP):
        e = linalg.poly_eval_matrix(psf, s)
        if linalg.is_zero_matrix(e):
            break
        d = linalg.poly_eval_matrix(dpsf, s)
        s = linalg.mat_sub(s, linalg.mat_mul(e, linalg.mat_inv(d)))
    else:
        raise RuntimeError("Newton iteration for the semisimple part did not converge")
    if s is a:
        return v, LinearVectorField(linalg.zero_matrix(v.n))
    n = linalg.mat_sub(a, s)
    semi = LinearVectorField(s)
    nil = LinearVectorField(n)
    if linalg.mat_mul(s, n) != linalg.mat_mul(n, s):
        raise RuntimeError("parts must commute")
    if not nil.is_nilpotent():
        raise RuntimeError("nilpotent part must be nilpotent")
    return semi, nil


def _primes():
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _horner(c, x, m=0):
    """c(x) for ascending integer coefficients, reduced mod m when m > 0."""
    acc = 0
    for ci in reversed(c):
        acc = acc * x + ci
        if m:
            acc %= m
    return acc


def _squarefree_mod(c, p) -> bool:
    """Whether gcd(c, c') = 1 over GF(p); c must not vanish mod p."""
    a = [x % p for x in c]
    b = [i * x % p for i, x in enumerate(c) if i]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            s = len(a) - len(b)
            for i, x in enumerate(b):
                a[s + i] = (a[s + i] - f * x) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _rational_roots(psf):
    """Roots of a squarefree rational polynomial in decreasing order, or None
    if it does not split into linear factors over Q.

    Exact p-adic root finding (Loos 1983).  With coprime integer coefficients
    c of degree k and leading coefficient a > 0, q(y) = a^(k-1) c(y/a) is
    monic with integer coefficients, so its rational roots are integers y
    bounded by the Cauchy bound 1 + max|q_i|.  For the first prime p modulo
    which q stays squarefree, q splits over Q only if it has k distinct roots
    mod p; each is simple, so Hensel lifting determines the candidate integer
    root modulo p^e > twice the bound, and an exact evaluation accepts it.
    Such a prime exists because only the finitely many primes dividing the
    discriminant fail; when the first prime fails, gcd(q, q') over Q is
    checked once and a polynomial that is not squarefree raises ValueError.
    """
    c, _ = linalg.clear_denominators(psf)
    g = gcd(*c) if c[-1] > 0 else -gcd(*c)
    c = [x // g for x in c]
    k = len(c) - 1
    a = c[-1]
    q = [x * a ** (k - 1 - i) for i, x in enumerate(c[:-1])] + [1]
    dq = [i * x for i, x in enumerate(q) if i]
    primes = _primes()
    p = next(primes)
    if not _squarefree_mod(q, p):
        qf = [Fraction(x) for x in q]
        if len(linalg.poly_gcd(qf, linalg.poly_derivative(qf))) > 1:
            raise ValueError("polynomial is not squarefree")
        p = next(p for p in primes if _squarefree_mod(q, p))
    residues = [r for r in range(p) if not _horner(q, r, p)]
    if len(residues) < k:
        return None
    bound = 2 * (1 + max((abs(x) for x in q[:-1]), default=0))
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _horner(q, r, m) * pow(_horner(dq, r, m), -1, m)) % m
        y = r - m if 2 * r > m else r
        if _horner(q, y):
            return None
        roots.append(Fraction(y, a))
    return sorted(roots, reverse=True)


def rational_diagonalize(v: LinearVectorField, psf: tuple):
    """Diagonalize a semisimple field over Q, if its eigenvalues are rational.

    psf is the squarefree characteristic factor with psf(v) = 0 (v is the
    semisimple part from chevalley_split).  Returns (weights, basis_matrix)
    with basis_matrix columns an eigenbasis ordered by decreasing eigenvalue,
    or None when psf has an irrational factor (the field is then unsupported
    here, not an error).  The eigenspace-dimension and conjugation checks
    below certify the returned basis; they raise RuntimeError when v is not
    semisimple.
    """
    a = v.rows
    n = v.n
    roots = _rational_roots(psf)
    if roots is None:
        return None
    cols = []
    weights = []
    for r in roots:
        for b in linalg.nullspace(linalg.mat_shift(a, -r)):
            cols.append(b)
            weights.append(r)
    if len(weights) != n:
        raise RuntimeError("eigenspace dimensions must sum to the ambient dimension")
    basis = tuple(zip(*cols))
    conjugated = linalg.mat_mul(linalg.mat_inv(basis), linalg.mat_mul(a, basis))
    if conjugated != LinearVectorField.diagonal(weights).rows:
        raise RuntimeError("eigenbasis must diagonalize")
    return WeightVector(tuple(weights)), basis


def substitute_linear(f: HPoly, basis) -> HPoly:
    """Pull f back along the invertible substitution z_i -> sum_j P[i][j] z_j."""
    p = linalg.mat(basis)
    n = f.n_vars
    rows, cols = len(p), len(p[0]) if p else 0  # `mat` refuses ragged rows
    if (rows, cols) != (n, n):
        raise ValueError(f"basis matrix is {rows}x{cols}, expected {n}x{n}")
    # Coefficient products of the expansion below for a dense basis: the
    # powers of the linear forms, then each monomial's partial products.  The
    # power e of a linear form has size(e) terms.
    max_exp = [max(m[i] for m in f.terms) for i in range(n)]
    size = lambda e: comb(e + n - 1, n - 1)
    work = n * sum(comb(e + n - 1, n) for e in max_exp) + sum(
        size(d - e) * size(e) for m in f.terms for d, e in zip(accumulate(m), m) if e
    )
    if work > MAX_SUBSTITUTION_WORK:
        raise ValueError(
            f"substitution needs about {work} coefficient products, "
            f"above the {MAX_SUBSTITUTION_WORK} limit"
        )
    linalg.mat_inv(p)  # raises ValueError when singular
    zero_mono = tuple([0] * n)
    forms = []
    for i in range(n):
        row = {
            tuple(int(k == j) for k in range(n)): p[i][j]
            for j in range(n)
            if p[i][j]
        }
        forms.append(row)
    powers = []
    for i in range(n):
        pw = [{zero_mono: Fraction(1)}]
        for _ in range(max_exp[i]):
            pw.append(_mul_maps(pw[-1], forms[i]))
        powers.append(pw)
    out: dict = {}
    for mono, c in f.terms.items():
        term = {zero_mono: c}
        for i, e in enumerate(mono):
            if e:
                term = _mul_maps(term, powers[i][e])
        for m, v in term.items():
            s = out.get(m, Fraction(0)) + v
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    if not out:
        raise RuntimeError("invertible substitution cannot annihilate a nonzero polynomial")
    return HPoly(n, out)
