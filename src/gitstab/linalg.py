"""Exact dense linear algebra over the rationals.

Everything here is exact and deterministic; there are no tolerances
anywhere.  Every matrix kernel runs on integers: the product `int_mul`,
Faddeev-LeVerrier `charpoly` and Horner `int_poly_eval` on integer
matrices, the fraction-free Gauss-Jordan `int_echelon` (Bareiss 1968) with
`nullspace`, `int_inverse` and `rank` on it, and `int_squarefree`, whose gcd
is a primitive remainder sequence (`poly_primitive_gcd`).  The benchmark
tracer (`perfbench/tracer.py`) wraps `charpoly` and `nullspace` by name.  The
degeneration path, the Newton step of the Chevalley split included, calls
them on one `integer_matrix` per field and builds its Fractions once, at its
end; `lp.kernel` is `nullspace` on a form's exponent rows.
`rank` has three users: `require_invertible`, the rank test of the bases
that come from outside (`--basis`, the random sweep,
`vfield.substitute_linear`); the eigenbasis certificate of
`vfield.rational_diagonalize`, which needs no other; and `boxscan.scan_box`,
which keeps a fixing vector only when it raises the rank.  Matrices are small (the ambient dimension is the
number of coordinates, rarely above 8), so the cubic algorithms are
adequate.

`eliminate` is the Fraction Gauss-Jordan step of the simplex in `lp`: it
touches only the pivot row's nonzero entries and only the rows with a
nonzero entry in the pivot column, and with sign -1 it leaves the pivot
column minus a unit vector, for a column the simplex reads negated.  Exact
arithmetic makes that a pure saving: every value, and the order of pivots,
is that of the dense loop.

Rational matrices are tuples of row tuples, integer ones row lists, and
polynomial coefficient sequences are ascending, so p[i] is the coefficient
of x**i.  Integer vectors come from `clear_denominators` (rationals to ints)
and `primitive` (gcd removed).  Star-arguments and integer temporaries are
built from lists: CPython builds a tuple from a generator at a guessed size
and shrinks it, and its per-size tuple free lists then keep each block; on
the degeneration path that held about 0.4 MB of resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    This is the one gate for user-supplied numbers: anything else (floats,
    None, booleans, malformed strings, a zero denominator) raises ValueError
    naming the value.  Exponent notation is refused too, as '1e100000000'
    would otherwise build an integer of a hundred million digits.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and "e" not in x.lower():
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


def is_zero_matrix(a) -> bool:
    return all(not x for r in a for x in r)


def eliminate(rows, pr: int, c: int, sign: int = 1) -> None:
    """One exact Gauss-Jordan step, in place, that makes column c sign times
    the unit vector of row pr (sign is 1 or -1).

    The pivot row is divided so that its column-c entry becomes sign
    (skipped when it already is), then sign * f * (pivot row) is subtracted
    from every other row whose column-c entry f is nonzero.  Only the pivot
    row's nonzero positions are touched: a zero entry stays as it is, and
    the rows with f = 0 are not visited at all, so the result is entry for
    entry the one of the dense step.  Rows are lists that are updated in
    place; rows may be any list holding them.  The simplex in `lp` is the
    one caller: it pivots on its tableau plus its cost row, with sign -1 on
    a column that it reads negated.  `int_echelon` eliminates on integer
    rows instead.
    """
    prow = rows[pr]
    pv = prow[c] if sign > 0 else -prow[c]
    if pv != 1:
        for j, x in enumerate(prow):
            if x:
                prow[j] = x / pv
    nz = [(j, y) for j, y in enumerate(prow) if y]
    for row in rows:
        f = row[c]
        if f and row is not prow:
            if sign < 0:
                f = -f
            for j, y in nz:
                row[j] -= f * y


def int_echelon(rows):
    """(m, pivots) for integer rows: m holds the pivot rows, then zero rows,
    all primitive integer lists, and row i of m is a nonzero multiple of row
    i of the reduced row echelon form.  A pivot p in row P clears column c
    of every other row R by R <- primitive(p*R - R[c]*P), so each row is a
    multiple of the one Fraction Gauss-Jordan holds and the pivots are
    chosen as there (the first nonzero entry at or below the current row).
    `nullspace` and `int_inverse` read their answers off these rows.
    """
    m = [primitive(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
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
    return m, pivots


def nullspace(rows):
    """(basis, den) for nonempty integer rows: a deterministic basis of the
    right kernel, as integer lists.  Vector k over den carries a 1 in the
    k-th free column, and the vectors are ordered by increasing free column;
    den is the lcm of the pivots of `int_echelon`."""
    m, pivots = int_echelon(rows)
    den = lcm(*[row[c] for row, c in zip(m, pivots)])
    basis = []
    for fc in range(len(m[0])):
        if fc not in pivots:
            v = [0] * len(m[0])
            v[fc] = den
            for row, pc in zip(m, pivots):
                v[pc] = -row[fc] * (den // row[pc])
            basis.append(v)
    return basis, den


def int_inverse(a):
    """(W, L) with a^-1 = W/L for a square integer matrix a, or None when a
    is singular.  Row i of `int_echelon([a | I])` is p_i times row i of
    [I | a^-1], so L is the lcm of the |p_i|, the least positive
    denominator of a^-1, and W = L*a^-1 holds integer row lists.

    >>> int_inverse([[2, 1], [4, 3]])
    ([[3, -1], [-4, 2]], 2)
    """
    n = len(a)
    m, pivots = int_echelon([[*row, *[int(i == j) for j in range(n)]] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    den = lcm(*[row[i] for i, row in enumerate(m)])
    return [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(m)], den


def rank(rows) -> int:
    """The rank of an integer matrix: the pivot count of `int_echelon`."""
    return len(int_echelon(rows)[1])


def require_invertible(a):
    """The square rational matrix a itself if its `rank` is its size;
    ValueError("matrix is singular") otherwise."""
    if rank([clear_denominators(r)[0] for r in a]) != len(a):
        raise ValueError("matrix is singular")
    return a


def integer_matrix(a):
    """(B, D) for a rational matrix a: D is the lcm of its denominators and
    B = D*a, as integer row lists."""
    den = lcm(*[x.denominator for r in a for x in r])
    return [[x.numerator * (den // x.denominator) for x in r] for r in a], den


def int_mul(a, b):
    """The product of two integer matrices, as row lists."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def charpoly(b):
    """Ascending integer coefficients (c0, ..., c_{n-1}, 1) of det(xI - B)
    for an integer matrix B, by the Faddeev-LeVerrier recurrence: every M_k
    stays an integer matrix and each division of a trace by k is exact."""
    n = len(b)
    m = [row[:] for row in b]  # shifted in place below; b must stay B
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += coeffs[n - k + 1]
            m = int_mul(b, m)
        c, rem = divmod(-sum(m[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError("Faddeev-LeVerrier trace must divide exactly over the integers")
        coeffs[n - k] = c
    return coeffs


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


def int_squarefree(c):
    """c / gcd(c, c') for integer coefficients c: the product of the distinct
    irreducible factors of c, as a primitive integer list determined up to
    sign.  With c made primitive and g = gcd(c, c') from
    `poly_primitive_gcd`, the quotient has integer coefficients (Gauss's
    lemma) and is divided out exactly.

    >>> int_squarefree([2, -3, 0, 1])  # (x-1)^2 (x+2), whose part is -(x-1)(x+2)
    [2, -1, -1]
    """
    c = primitive(poly_trim(c))
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
    return q


def int_poly_eval(e, b):
    """e(B) for ascending integer coefficients e, the last nonzero, and an
    integer matrix B, by Horner's rule on integers: M = e_m*I, then
    M <- B*M + e_k*I for k = m-1, ..., 0."""
    n = len(b)
    *rest, lead = e
    m = [[lead if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(rest):
        m = int_mul(b, m)
        for i, row in enumerate(m):
            row[i] += c
    return m


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

