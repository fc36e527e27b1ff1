"""Linear vector fields acting on polynomials by derivation.

A field v = sum_ij a_ij z_j d/dz_i is stored as its rational matrix (rows
indexed by i, columns by j), so v sends the monomial z^gamma to
sum_ij a_ij gamma_i z_j z^(gamma - e_i).  Diagonal fields act on monomials
with eigenvalue <lambda, gamma>; the rest of the module reduces a general
field to that case on the integer matrix B = D*v, every matrix step on
integers: the semisimple/nilpotent split `chevalley_split` (Newton steps
over one denominator), exact diagonalization `rational_diagonalize` (the
name the benchmark tracer wraps) when the eigenvalues are rational (p-adic
integer roots, `linalg.nullspace` eigenspaces, a certificate by rank and
B*P = P*R rather than an inverse, and Fractions built once at the end), and
linear changes of coordinates `substitute_integer`, one Fraction per output
term.  Only a basis from outside takes `substitute_linear` and its
`linalg.require_invertible` rank test, as a certified eigenbasis has passed
one.  `parse_matrix` is the one reader of n x n JSON matrices (a field, a
basis); every malformed one is a ValueError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, isqrt, lcm
from operator import mul

from . import linalg
from .poly import HPoly, _mul_maps, shared_monomial
from .record import record
from .weights import WeightVector

# Refuse substitutions whose expansion takes more coefficient products than
# this.  The products are of integers (the basis and f scaled to integer
# coefficients), so the limit bounds integer work, not Fraction work.
MAX_SUBSTITUTION_WORK = 200_000


@record
class LinearVectorField:
    """v = sum a_ij z_j d/dz_i with rational a_ij: the field is its n x n matrix
    `rows`, checked square and made Fractions here; read it with `linalg`."""

    rows: tuple

    def __post_init__(self):
        rows = linalg.mat(self.rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("vector field matrix must be square and nonempty")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def diagonal(cls, values) -> "LinearVectorField":
        n = len(values)
        return cls(tuple(tuple(x if i == j else 0 for j in range(n)) for i, x in enumerate(values)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_diagonal(self) -> bool:
        return all(
            not x for i, row in enumerate(self.rows) for j, x in enumerate(row) if i != j
        )


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


def derive(rows, terms) -> dict:
    """sum_ij rows[i][j] z_j d/dz_i applied to the (monomial, coefficient)
    pairs of terms, as a term dict that may hold cancelled zeros; integer
    rows and coefficients give integers."""
    out: dict = {}
    entries = [(i, j, a) for i, row in enumerate(rows) for j, a in enumerate(row) if a]
    for mono, c in terms:
        for i, j, a in entries:
            gi = mono[i]
            if not gi:
                continue
            m = list(mono)
            m[i] -= 1
            m[j] += 1
            key = tuple(m)
            out[key] = out.get(key, 0) + c * a * gi
    return out


def apply_derivation(v: LinearVectorField, f: HPoly) -> HPoly | None:
    """v(f) as a polynomial of the same degree; None when v(f) = 0."""
    if v.n != f.n_vars:
        raise ValueError(f"field on {v.n} variables applied to {f.n_vars}-variable polynomial")
    out = derive(v.rows, f.terms.items())
    if not any(out.values()):
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


def chevalley_split(b, q) -> tuple:
    """The split of an integer n x n matrix B into commuting semisimple and
    nilpotent parts, as integers (M, N, e): the parts are M/e and N/e, with
    e > 0 and N = e*B - M.

    q is the integer squarefree factor of B's characteristic polynomial,
    with leading coefficient +-1; the Newton step and the test Q = 0 read it
    up to sign.  The semisimple part is a polynomial in B, the root of q
    that Newton's iteration x <- x - q(x) q'(x)^-1 reaches from x = B (when
    q(B) = 0 already, B is semisimple: M = B, N = 0, e = 1).  Each step runs
    on x = M/e: the homogenized Horner sums Q = e^k q(M/e) and
    Q' = e^(k-1) q'(M/e) are `int_poly_eval`s, `linalg.int_inverse` gives
    Q'^-1 = W/L, and as q(x) q'(x)^-1 = Q*W/(L*e), the next x is
    (L*M - Q*W)/(L*e), with the content common to M and e divided out.
    Everything is exact, so convergence is Q = 0.  The first evaluation,
    q(B), is the semisimplicity test of `degeneration._eigenbasis`.

    Each step doubles the nilpotency order corrected for, so a Jordan block
    of size k <= n needs ceil(log2 k) steps and one more to see Q = 0.  The
    loop stops at ceil(log2 n) + 2 steps with a RuntimeError, so a wrong
    kernel fails fast instead of iterating on ever larger integers.  A
    split with N != 0 is certified on integers: M*N = N*M, and N^(2^j) = 0
    for the least 2^j >= n; a failed check is a RuntimeError.
    """
    n, k = len(b), len(q) - 1
    dq = linalg.poly_derivative(q)
    m, e = b, 1
    for _ in range((n - 1).bit_length() + 2):
        big_q = linalg.int_poly_eval([c * e ** (k - i) for i, c in enumerate(q)], m)
        if linalg.is_zero_matrix(big_q):
            break
        dq_m = linalg.int_poly_eval([c * e ** (k - 1 - i) for i, c in enumerate(dq)], m)
        inverse = linalg.int_inverse(dq_m)
        if inverse is None:
            raise RuntimeError("q'(x) must be invertible in the Newton step")
        w, den = inverse
        step = linalg.int_mul(big_q, w)
        m = [[den * x - y for x, y in zip(rm, rs)] for rm, rs in zip(m, step)]
        g = gcd(e * den, *[x for row in m for x in row])
        m, e = [[x // g for x in row] for row in m], e * den // g
    else:
        raise RuntimeError("Newton iteration for the semisimple part did not converge")
    nil = [[e * x - y for x, y in zip(rb, rm)] for rb, rm in zip(b, m)]
    if linalg.is_zero_matrix(nil):  # q(B) = 0: B is semisimple
        return m, nil, e
    if linalg.int_mul(m, nil) != linalg.int_mul(nil, m):
        raise RuntimeError("parts must commute")
    power = nil
    for _ in range((n - 1).bit_length()):
        if linalg.is_zero_matrix(power):
            break
        power = linalg.int_mul(power, power)
    if not linalg.is_zero_matrix(power):
        raise RuntimeError("nilpotent part must be nilpotent")
    return m, nil, e


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


def _rational_roots(q):
    """Roots of a squarefree integer polynomial q with leading coefficient
    +-1, as `linalg.int_squarefree` returns it, in decreasing order; None if
    q does not split into linear factors over Q.

    Exact p-adic root finding (Loos 1983).  The rational roots of q are
    integers bounded by the Cauchy bound 1 + max|q_i|, and every test below
    reads q up to sign.  For the first prime p modulo which q stays
    squarefree, q splits over Q only if it has k = deg q distinct roots mod
    p; each is simple, so Hensel lifting determines the candidate integer
    root modulo p^e > twice the bound, and an exact evaluation accepts it.
    Such a prime exists because only the finitely many primes dividing the
    discriminant fail; when the first prime fails, gcd(q, q') over Q is
    checked once and a polynomial that is not squarefree raises ValueError.
    """
    k = len(q) - 1
    dq = [i * x for i, x in enumerate(q) if i]
    primes = _primes()
    p = next(primes)
    if not _squarefree_mod(q, p):
        if len(linalg.poly_primitive_gcd(q, dq)) > 1:
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
        roots.append(y)
    return sorted(roots, reverse=True)


def rational_diagonalize(b, q, den: int):
    """(weights, basis, P, L) diagonalizing the rational matrix B/den, for an
    integer matrix B and the squarefree integer q with leading coefficient
    +-1 and q(B) = 0, or None when q has an irrational root (unsupported
    here, not an error).

    The eigenspaces are the `linalg.nullspace`s of B - rI for the integer
    roots r of q.  The columns of the integer matrix P are L times the
    eigenbasis, by decreasing eigenvalue; the weights r/den and the basis P/L
    are their Fractions.  P is certified without an inverse: the eigenspace
    dimensions sum to n, P has `linalg.rank` n, and B*P = P*R, which with
    rank n is P^-1*B*P = R (R the r on the diagonal).  A failed check is a
    RuntimeError: B is not semisimple, or a kernel is wrong.
    """
    n = len(b)
    roots = _rational_roots(q)
    if roots is None:
        return None
    spaces = []
    for r in roots:
        shifted = [[x - r if i == j else x for j, x in enumerate(row)] for i, row in enumerate(b)]
        spaces.append((r, *linalg.nullspace(shifted)))
    pden = lcm(*[d for _, _, d in spaces])
    cols = [[x * (pden // d) for x in v] for _, vs, d in spaces for v in vs]
    eig = [r for r, vs, _ in spaces for _ in vs]
    if len(cols) != n:
        raise RuntimeError("eigenspace dimensions must sum to the ambient dimension")
    if linalg.rank(cols) != n:
        raise RuntimeError("eigenbasis must have full rank")
    p = [list(row) for row in zip(*cols)]
    if linalg.int_mul(b, p) != [list(map(mul, row, eig)) for row in p]:
        raise RuntimeError("eigenbasis must diagonalize")
    weights = WeightVector(tuple([Fraction(r, den) for r in eig]))
    return weights, tuple([tuple([Fraction(x, pden) for x in row]) for row in p]), p, pden


def substitute_linear(f: HPoly, basis) -> HPoly:
    """Pull f back along the invertible substitution z_i -> sum_j P[i][j] z_j,
    after `linalg.require_invertible`'s rank test."""
    p = linalg.mat(basis)
    n = f.n_vars
    rows, cols = len(p), len(p[0]) if p else 0  # `mat` refuses ragged rows
    if (rows, cols) != (n, n):
        raise ValueError(f"basis matrix is {rows}x{cols}, expected {n}x{n}")
    return substitute_integer(f, *linalg.integer_matrix(linalg.require_invertible(p)))


def substitute_integer(f: HPoly, p, den: int) -> HPoly:
    """f pulled back along z -> (P/den) z, for an invertible integer matrix P.
    With C the lcm of the denominators of f, C*f is expanded along P on
    integers, giving C*den^d times the result (f has degree d), so each
    output term is one reduced Fraction(x, C*den^d).
    """
    n = f.n_vars
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
    coeffs, scale = linalg.clear_denominators(f.terms.values())
    zero_mono = tuple([0] * n)
    units = [tuple([int(k == j) for k in range(n)]) for j in range(n)]
    powers = []
    for i, row in enumerate(p):
        form = {units[j]: x for j, x in enumerate(row) if x}
        pw = [{zero_mono: 1}]
        for _ in range(max_exp[i]):
            pw.append(_mul_maps(pw[-1], form))
        powers.append(pw)
    out: dict = {}
    for mono, c in zip(f.terms, coeffs):
        term = {zero_mono: c}
        for i, e in enumerate(mono):
            if e:
                term = _mul_maps(term, powers[i][e])
        for m, v in term.items():
            out[m] = out.get(m, 0) + v
    if not any(out.values()):
        raise RuntimeError("invertible substitution cannot annihilate a nonzero polynomial")
    scale *= den**f.degree
    return HPoly(n, {shared_monomial(m): Fraction(x, scale) for m, x in out.items()})
