"""Exact dense linear algebra over the rationals.

Everything here is exact and deterministic; there are no tolerances
anywhere.  The matrix kernels on the Chevalley and eigenbasis path are
fraction-free.  `mat_mul`, `charpoly` and `poly_eval_matrix` scale each
matrix to integers once (D*A, with D the lcm of its denominators), work on
ints, and divide once per output entry at the end.  `rref` (and through it
`nullspace`, `mat_inv` and the rank test `require_invertible`) eliminates
on primitive integer rows and divides each pivot row by its pivot once at
the end.  Their outputs are still Fractions, the same reduced values the
Fraction arithmetic gives.  `mat_inv` serves the one caller that uses the
inverse, the Newton step of the Chevalley split; a test of invertibility
alone is `require_invertible`, which reduces a matrix by itself rather than
beside the identity.
Matrices are small (the ambient dimension is the number of coordinates,
rarely above 8), so the quadratic and cubic algorithms below are perfectly
adequate.

`eliminate` is the Fraction Gauss-Jordan step of the simplex in `lp`: it
touches only the pivot row's nonzero entries and only the rows with a
nonzero entry in the pivot column.  Exact arithmetic makes that a pure saving:
every value, and the order of pivots, is that of the dense loop.

Matrices are represented as tuples of row tuples, vectors as tuples.  The
module also carries the little univariate polynomial arithmetic needed for
characteristic polynomials; coefficient sequences are ascending, so p[i] is
the coefficient of x**i.  Its squarefree part runs on integers too: the gcd
with the derivative by a primitive remainder sequence, one exact integer
division, and one Fraction per coefficient to make the quotient monic.
Integer vectors come from one pair of functions:
`clear_denominators` (rationals to ints) and `primitive` (gcd removed).

Star-arguments and the rows `rref` returns are built from lists, not
generators.  CPython builds a tuple from a generator at a guessed size and
shrinks it, and its per-size tuple free lists then keep each block; on the
degeneration path that held about 0.4 MB of resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    This is the one gate for user-supplied numbers: anything else (floats,
    None, booleans, malformed strings, a zero denominator) raises ValueError
    naming the value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot interpret {x!r} as a rational number")


def mat(rows) -> tuple:
    out = tuple(tuple(frac(x) for x in r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zero_matrix(n: int) -> tuple:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(n)) for _ in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_shift(a, c):
    """a + c*I: c added on the diagonal, every other entry kept."""
    c = frac(c)
    return tuple(tuple(x + c if i == j else x for j, x in enumerate(r)) for i, r in enumerate(a))


def mat_mul(a, b):
    """The product a*b, fraction-free: with Da and Db the lcms of the
    denominators of a and b, the integer product (Da*a)(Db*b) becomes one
    Fraction(x, Da*Db) per entry, the reduced value of the Fraction product."""
    da, _, times = _integer_scaled(a)
    db, ib, _ = _integer_scaled(b)
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in times(ib))


def is_zero_matrix(a) -> bool:
    return all(not x for r in a for x in r)


def eliminate(rows, pr: int, c: int) -> None:
    """One exact Gauss-Jordan step, in place, on the pivot rows[pr][c].

    The pivot row is divided by its pivot (skipped when the pivot is 1), then
    f * (pivot row) is subtracted from every other row whose column-c entry f
    is nonzero.  Only the pivot row's nonzero positions are touched: a zero
    entry stays as it is, and the rows with f = 0 are not visited at all, so
    the result is entry for entry the one of the dense step.  Rows are lists
    that are updated in place; rows may be any list holding them.  The
    simplex in `lp` is the one caller: it pivots on its tableau plus its
    cost row.  `rref` eliminates on integer rows instead.
    """
    prow = rows[pr]
    pv = prow[c]
    if pv != 1:
        for j, x in enumerate(prow):
            if x:
                prow[j] = x / pv
    nz = [(j, y) for j, y in enumerate(prow) if y]
    for row in rows:
        f = row[c]
        if f and row is not prow:
            for j, y in nz:
                row[j] -= f * y


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    Fraction-free Gauss-Jordan.  Each row becomes a primitive integer row
    (`clear_denominators`, whose `frac` makes this the one place entries are
    coerced, so malformed entries raise ValueError).  A pivot p in row P
    clears column c of every other row R by R <- primitive(p*R - R[c]*P).
    Every integer row is a nonzero multiple of the row the Fraction
    elimination holds at that step, so the pivots are chosen as there (the
    first nonzero entry at or below the current row), and each pivot row is
    divided by its pivot once at the end.  The reduced row echelon form is
    unique, so these are the same Fractions.

    >>> red, pivots = rref([(1, 2, 3), (2, 4, 6), (1, 0, "1/2")])
    >>> pivots
    [0, 1]
    >>> [[str(x) for x in row] for row in red]
    [['1', '0', '1/2'], ['0', '1', '5/4'], ['0', '0', '0']]
    """
    m = [primitive(clear_denominators(r)[0]) for r in rows]
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
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    zero = Fraction(0)
    red = [tuple([Fraction(x, row[c]) if x else zero for x in row]) for row, c in zip(m, pivots)]
    return red + [(zero,) * ncols] * (len(m) - r), pivots


def nullspace(rows):
    """Deterministic basis of the right kernel of a nonempty row system.

    Each basis vector carries a 1 in one free column; vectors are ordered by
    increasing free column index.
    """
    rows = list(rows)
    n_cols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def mat_inv(a):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def require_invertible(a):
    """The square matrix a itself if its rank, the pivot count of `rref`, is
    its size; ValueError("matrix is singular") otherwise."""
    if len(rref(a)[1]) != len(a):
        raise ValueError("matrix is singular")
    return a


def _integer_scaled(a):
    """(D, B, times) for a rational matrix a: D is the lcm of the
    denominators of a, B = D*a as integer row lists, and times(m) the
    integer product B*m of a row-list integer matrix m, as row lists."""
    den = lcm(*[x.denominator for r in a for x in r])
    b = [[x.numerator * (den // x.denominator) for x in r] for r in a]

    def times(m):
        cols = tuple(zip(*m))
        return [[sum(map(mul, row, col)) for col in cols] for row in b]

    return den, b, times


def charpoly(a):
    """Characteristic polynomial via the Faddeev-LeVerrier recurrence.

    Returns ascending coefficients (c0, ..., c_{n-1}, 1) of det(xI - A).  The
    recurrence runs fraction-free on the integer matrix B = D*A, with D the
    lcm of the denominators of A: every M_k stays an integer matrix and each
    division of a trace by k is exact (Bareiss 1968), so only the final
    c_i = b_i / D^(n-i) touches Fractions.
    """
    n = len(a)
    den, b, times = _integer_scaled(a)
    m = [row[:] for row in b]  # shifted in place below; b must stay B
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += coeffs[n - k + 1]
            m = times(m)
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError("Faddeev-LeVerrier trace must divide exactly over the integers")
        coeffs[n - k] = c
    return tuple(Fraction(c, den ** (n - i)) for i, c in enumerate(coeffs))


# -- univariate polynomial helpers (ascending coefficient tuples) --


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_derivative(p):
    return poly_trim(tuple(i * c for i, c in enumerate(p) if i))


def poly_primitive_gcd(a, b):
    """gcd of two integer polynomials by the primitive remainder sequence
    (Collins 1967): each pseudo-remainder is made primitive, so the
    coefficients stay integers.  Returns a primitive polynomial as a list,
    determined up to sign, and [] when a and b are both zero.

    >>> poly_primitive_gcd([2, -3, 0, 1], [-3, 0, 3])  # (x-1)^2 (x+2), 3(x^2-1)
    [1, -1]
    """
    a, b = primitive(poly_trim(a)), primitive(poly_trim(b))
    while b:
        # Each step cancels a's leading term, so deg a - deg b + 1 steps end
        # below deg b; a wrong multiplier fails here instead of looping.
        for _ in range(len(a) - len(b) + 1):
            if len(a) < len(b):
                break
            g = gcd(a[-1], b[-1])
            x, y, s = b[-1] // g, a[-1] // g, len(a) - len(b)
            a = [x * c for c in a]
            for i, c in enumerate(b, s):
                a[i] -= y * c
            a = list(poly_trim(a))
        if len(a) >= len(b):
            raise RuntimeError("pseudo-remainder step failed to lower the degree")
        a, b = b, primitive(a)
    return a


def poly_squarefree_part(p):
    """p / gcd(p, p'), monic: the product of distinct irreducible factors.

    On integers: with c the primitive integer multiple of p and g =
    gcd(c, c') from `poly_primitive_gcd`, the quotient c / g has integer
    coefficients (Gauss's lemma) and is divided out exactly, then made
    monic by one Fraction per coefficient.

    >>> [str(x) for x in poly_squarefree_part((2, -3, 0, 1))]  # (x-1)^2 (x+2)
    ['-2', '1', '1']
    """
    c = primitive(clear_denominators(poly_trim(p))[0])
    if not c:
        raise ValueError("zero polynomial")
    g = poly_primitive_gcd(c, poly_derivative(c))
    q = [0] * (len(c) - len(g) + 1)
    for k in reversed(range(len(q))):  # an inexact step leaves c[k + len(g) - 1] nonzero
        q[k] = c[k + len(g) - 1] // g[-1]
        for i, x in enumerate(g, k):
            c[i] -= q[k] * x
    if any(c):
        raise RuntimeError("gcd failed to divide exactly")
    return tuple([Fraction(x, q[-1]) for x in q])


def poly_eval_matrix(p, a):
    """p(a) by Horner's rule, fraction-free.

    With D the lcm of the denominators of a and C that of p's coefficients,
    Horner runs on the integer matrix B = D*a and the integers e_k = C*p[k]:
    M = e_m*I, then M <- B*M + e_k*D^(m-k)*I for k = m-1, ..., 0, which
    leaves M = C*D^m*p(a) (B*M = M*B, as M is a polynomial in B).  Each
    entry becomes one Fraction at the end, so the result is the reduced
    p(a), entry for entry.
    """
    p = poly_trim(p)
    n = len(a)
    if not p:
        return zero_matrix(n)
    (*rest, lead), cden = clear_denominators(p)
    den, _, times = _integer_scaled(a)
    m = [[lead if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for e in reversed(rest):
        m = times(m)
        scale *= den
        for i, row in enumerate(m):
            row[i] += e * scale
    scale *= cden
    return tuple(tuple(Fraction(x, scale) for x in row) for row in m)


# -- integerization --


def clear_denominators(values):
    """Scale a rational vector by the positive lcm of denominators; return ints."""
    values = [frac(x) for x in values]
    mult = lcm(*[x.denominator for x in values])
    return [x.numerator * (mult // x.denominator) for x in values], mult


def primitive(ints):
    """An integer vector divided by the gcd of its entries, as a list; the
    zero vector stays as it is."""
    g = gcd(*ints) or 1
    return [x // g for x in ints]


def primitive_integer_vector(values):
    """Positive rescaling of a rational vector to coprime integers.

    The zero vector maps to itself.  The scaling factor is always positive,
    so sign patterns survive.
    """
    return tuple(primitive(clear_denominators(values)[0]))
