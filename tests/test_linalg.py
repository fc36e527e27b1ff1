"""Exact linear algebra building blocks."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from gitstab import linalg
from helpers import fraction_mat_mul, fraction_rref, random_invertible, random_matrix


def test_rref_and_nullspace():
    rows = [(1, 1, 1, 1), (1, 2, 0, 0)]
    basis = linalg.nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
        assert v[0] + 2 * v[1] == 0


def test_mat_inv_roundtrip():
    rng = Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = random_invertible(rng, n)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert linalg.mat_mul(m, linalg.mat_inv(m)) == identity


def test_mat_inv_singular():
    with pytest.raises(ValueError):
        linalg.mat_inv(((1, 2), (2, 4)))


def test_charpoly_known_values():
    assert linalg.charpoly(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))) == (
        Fraction(-1),
        Fraction(0),
        Fraction(1),
    )
    # identity: (x-1)^2 = 1 - 2x + x^2
    assert linalg.charpoly(((1, 0), (0, 1))) == (Fraction(1), Fraction(-2), Fraction(1))
    # nilpotent Jordan block: x^2
    assert linalg.charpoly(((0, 1), (0, 0))) == (Fraction(0), Fraction(0), Fraction(1))


def test_charpoly_annihilates_matrix():
    rng = Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n)
        p = linalg.charpoly(m)
        assert linalg.is_zero_matrix(linalg.poly_eval_matrix(p, m))


def _poly_of_matrix_from_definition(p, a):
    """sum of p[i] * a^i, with the powers multiplied out entry by entry."""
    n = len(a)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    total = [[Fraction(0)] * n for _ in range(n)]
    for c in p:
        for i in range(n):
            for j in range(n):
                total[i][j] += c * power[i][j]
        power = [
            [sum(power[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]
    return tuple(tuple(r) for r in total)


def test_poly_eval_matrix_matches_the_definition():
    rng = Random(29)
    matrices = [
        tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
            for _ in range(n)
        )
        for n in range(1, 7)
        for _ in range(8)
    ]
    # int entries, as charpoly's tests pass them; zero and 1x1 matrices
    matrices += [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((2, -1), (3, 0)), ((0, 0), (0, 0))]
    matrices += [linalg.zero_matrix(3), ((Fraction(-5, 7),),), ((4,),), ((0,),)]
    polys = [(), (0,), (Fraction(0), Fraction(0)), (Fraction(-7, 3),), (4,), (1, 0, 0)]
    for m in matrices:
        randoms = [  # length 0 is the empty polynomial, 1 a constant
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(length))
            for length in range(6)
        ]
        for p in polys + randoms + [(-2, 0, 1), (1, 1, 1, 1)]:
            got = linalg.poly_eval_matrix(p, m)
            assert got == _poly_of_matrix_from_definition(p, m)
            assert all(isinstance(x, Fraction) for r in got for x in r)
    # Distinct large primes as denominators: the integer scale C*D^m of the
    # fraction-free evaluation then runs well past 2**64.
    primes = [2**31 - 1, 2**61 - 1, 10**9 + 7, 10**9 + 9, 998244353, 2**89 - 1]
    m = (
        (Fraction(3, primes[0]), Fraction(-1, primes[1])),
        (Fraction(5, primes[2]), Fraction(7, 11)),
    )
    p = (Fraction(1, primes[3]), Fraction(-2, primes[4]), Fraction(0), Fraction(5, primes[5]))
    den = lcm(*(x.denominator for r in m for x in r))
    assert lcm(*(c.denominator for c in p)) * den ** (len(p) - 1) > 2**64
    got = linalg.poly_eval_matrix(p, m)
    assert got == _poly_of_matrix_from_definition(p, m)
    assert all(isinstance(x, Fraction) for r in got for x in r)
    assert max(x.denominator for r in got for x in r) > 2**64


def test_poly_division_and_gcd():
    # (x-1)^2 (x+2) and (x-1)(x-3)
    p = linalg.poly_trim((Fraction(2), Fraction(-3), Fraction(0), Fraction(1)))
    q, r = linalg.poly_divmod(p, (Fraction(-1), Fraction(1)))
    assert r == ()
    assert linalg.poly_gcd(p, (Fraction(-1), Fraction(1))) == (Fraction(-1), Fraction(1))


def test_squarefree_part():
    # p = (x-1)^2 * (x+1) = x^3 - x^2 - x + 1
    p = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(1))
    sf = linalg.poly_squarefree_part(p)
    # (x-1)(x+1) = x^2 - 1
    assert sf == (Fraction(-1), Fraction(0), Fraction(1))


def test_primitive_integer_vector():
    assert linalg.primitive_integer_vector([Fraction(-21), 15, 3, 3]) == (-7, 5, 1, 1)
    assert linalg.primitive_integer_vector([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert linalg.primitive_integer_vector([0, 0]) == (0, 0)
    # the integer half: gcd removal keeps signs, and zero stays zero
    assert linalg.primitive([0, 0, 0]) == [0, 0, 0]
    assert linalg.primitive([-6, 4, -2]) == [-3, 2, -1]
    assert linalg.primitive([-9]) == [-1] and linalg.primitive([9]) == [1]
    big = 3 * 2**70
    assert linalg.primitive([big, -2 * big, 0]) == [1, -2, 0]
    assert linalg.primitive([2**64 + 1, 2**65 + 2]) == [1, 2]


def test_clear_denominators():
    ints, mult = linalg.clear_denominators([Fraction(1, 2), Fraction(2, 3)])
    assert mult == 6 and ints == [3, 4]


def _charpoly_fraction_reference(a):
    """Faddeev-LeVerrier over Fractions, written independently of linalg."""
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


def test_charpoly_matches_fraction_reference():
    rng = Random(2024)
    for case in range(300):
        n = rng.randint(1, 8)
        if case % 3 == 0:  # integer entries only
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        else:
            a = tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n))
                for _ in range(n)
            )
        got = linalg.charpoly(a)
        assert got == _charpoly_fraction_reference(a)
        assert all(type(c) is Fraction for c in got)
    for n in range(1, 9):
        zero = linalg.zero_matrix(n)
        assert linalg.charpoly(zero) == _charpoly_fraction_reference(zero)
        assert linalg.charpoly(zero) == (Fraction(0),) * n + (Fraction(1),)


@pytest.mark.parametrize("bad", [None, True, False, 0.5, "1/0", "z", "", [1], (1, 2)])
def test_frac_rejects_non_rationals_with_value_error(bad):
    with pytest.raises(ValueError, match="cannot interpret"):
        linalg.frac(bad)


def test_frac_accepts_ints_fractions_and_rational_strings():
    assert linalg.frac(3) == 3 and type(linalg.frac(3)) is Fraction
    assert linalg.frac(Fraction(2, 3)) == Fraction(2, 3)
    assert linalg.frac(" -4/6 ") == Fraction(-2, 3)


# -- differential check against dense Gauss-Jordan elimination --------------


def _dense_rref(rows):
    """Gauss-Jordan with every pivot rewriting every entry of every row that
    has a nonzero in the pivot column: the reference for `linalg.eliminate`."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], pivots


def _dense_nullspace(rows):
    red, pivots = _dense_rref(rows)
    basis = []
    for fc in (c for c in range(len(rows[0])) if c not in pivots):
        v = [Fraction(0)] * len(rows[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def _dense_inverse(a):
    n = len(a)
    red, pivots = _dense_rref([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)])
    return tuple(tuple(red[i][n:]) for i in range(n)) if pivots == list(range(n)) else None


def _differential_matrix(rng: Random, case: int):
    """Seeded rational matrices: square ones (some singular) on even cases,
    1 x k and k x 1 shapes, zero columns and rank-deficient rows made as
    rational combinations of earlier rows."""
    if case % 2 == 0:
        n_rows = n_cols = rng.randint(1, 6)
    elif case % 10 == 1:
        n_rows, n_cols = 1, rng.randint(1, 7)
    elif case % 10 == 3:
        n_rows, n_cols = rng.randint(1, 7), 1
    else:
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    den = rng.choice([1, 1, 5])

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, den)) if rng.random() < 0.8 else 0

    zero_cols = {c for c in range(n_cols) if case % 3 == 0 and rng.random() < 0.3}
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.2:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = entry(), entry()
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([0 if c in zero_cols else entry() for c in range(n_cols)])
    return rows


def test_sparse_elimination_matches_dense_reference():
    rng = Random(2026)
    shapes, deficient, singular, inverted = set(), 0, 0, 0
    for case in range(400):
        rows = _differential_matrix(rng, case)
        red, pivots = linalg.rref(rows)
        assert (red, pivots) == _dense_rref(rows)
        assert all(type(x) is Fraction for r in red for x in r)
        assert linalg.nullspace(rows) == _dense_nullspace(rows)
        deficient += len(pivots) < min(len(rows), len(rows[0]))
        shapes.add((len(rows) == 1, len(rows[0]) == 1))
        if len(rows) == len(rows[0]):
            want = _dense_inverse(rows)
            if want is None:
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    linalg.mat_inv(rows)
            else:
                inverted += 1
                assert linalg.mat_inv(rows) == want
    assert shapes == {(True, False), (False, True), (False, False), (True, True)}
    assert deficient >= 60 and singular >= 30 and inverted >= 60


def test_elimination_coerces_through_frac_once():
    for bad in (None, 0.5, "x"):
        for call in (linalg.rref, linalg.nullspace, linalg.mat_inv):
            with pytest.raises(ValueError, match="cannot interpret"):
                call([[1, bad], [0, 1]])


# -- fraction-free kernels against their Fraction references ----------------

_LARGE_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 10**9 + 7, 998244353)


def _kernel_matrix(rng: Random, case: int):
    """`_differential_matrix`, varied: int entries on every fifth case, an
    inserted zero row on every seventh, and on every fourth each row and
    each column scaled by 1/p for a large prime p, which keeps the rank and
    puts the integer scale past 2**64."""
    rows = _differential_matrix(rng, case)
    if case % 5 == 0:
        rows = [[Fraction(x).numerator for x in r] for r in rows]
    if case % 7 == 0:
        rows.insert(rng.randint(0, len(rows)), [0] * len(rows[0]))
    if case % 4 == 1:
        cols = [Fraction(1, rng.choice(_LARGE_PRIMES)) for _ in rows[0]]
        scaled = []
        for r in rows:
            s = Fraction(rng.choice((1, -3)), rng.choice(_LARGE_PRIMES))
            scaled.append([x * s * t for x, t in zip(r, cols)])
        rows = scaled
    return rows


def test_fraction_free_kernels_match_fraction_references(monkeypatch):
    rng = Random(1968)
    seen = set()
    for case in range(360):
        rows = _kernel_matrix(rng, case)
        n_rows, n_cols = len(rows), len(rows[0])
        red, pivots = linalg.rref(rows)
        assert (red, pivots) == fraction_rref(rows)
        assert all(type(x) is Fraction for r in red for x in r)
        den = (1,) if case % 5 == 0 else (1, 3, rng.choice(_LARGE_PRIMES))
        width = rng.randint(1, 4)
        other = [
            [Fraction(rng.randint(-5, 5), rng.choice(den)) for _ in range(width)]
            for _ in range(n_cols)
        ]
        product = linalg.mat_mul(rows, other)
        assert product == fraction_mat_mul(rows, other)
        assert all(type(x) is Fraction for r in product for x in r)
        got_null = linalg.nullspace(rows)
        got_inv = None
        if n_rows == n_cols:
            try:
                got_inv = linalg.mat_inv(rows)
            except ValueError as exc:
                got_inv = str(exc)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", fraction_rref)
            assert got_null == linalg.nullspace(rows)
            if n_rows == n_cols:
                try:
                    want_inv = linalg.mat_inv(rows)
                except ValueError as exc:
                    want_inv = str(exc)
                assert got_inv == want_inv
        seen.add("wide" if n_cols > n_rows else "tall" if n_rows > n_cols else "square")
        cases = {
            "1x1": (n_rows, n_cols) == (1, 1),
            "deficient": len(pivots) < min(n_rows, n_cols),
            "zero row": any(not any(r) for r in rows),
            "zero column": any(not any(r[c] for r in rows) for c in range(n_cols)),
            "ints": all(type(x) is int for r in rows for x in r),
            "singular": got_inv == "matrix is singular",
            "past 2**64": lcm(*(Fraction(x).denominator for r in rows for x in r)) > 2**64,
        }
        seen.update(name for name, hit in cases.items() if hit)
    assert seen == {"wide", "tall", "square", *cases}
    for bad in (None, 0.5, "1/0", True):
        rows = [[1, 2], [3, bad]]
        for call in (linalg.rref, linalg.nullspace, linalg.mat_inv, fraction_rref):
            with pytest.raises(ValueError, match="cannot interpret"):
                call(rows)
