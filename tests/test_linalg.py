"""Exact linear algebra building blocks."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from gitstab import linalg
from helpers import (
    FRACTION_INTEGER_KERNELS,
    fraction_charpoly,
    fraction_inverse,
    fraction_mat_mul,
    fraction_rref,
    fraction_squarefree_part,
    random_invertible,
    random_matrix,
    rational_charpoly,
    run_python,
    squarefree_part,
)


def _rational_nullspace(rows):
    """The right kernel of rational rows as Fraction vectors, each with a 1
    in its free column: linalg.nullspace on the rows scaled to integers,
    every vector over its den."""
    basis, den = linalg.nullspace([linalg.clear_denominators(r)[0] for r in rows])
    return [tuple(Fraction(x, den) for x in v) for v in basis]


def test_rref_and_nullspace():
    rows = [(1, 1, 1, 1), (1, 2, 0, 0)]
    basis, den = linalg.nullspace(rows)
    assert (basis, den) == FRACTION_INTEGER_KERNELS["nullspace"](rows)
    assert len(basis) == 2 and den > 0
    for v in basis:
        assert all(type(x) is int for x in v)
        assert sum(v) == 0
        assert v[0] + 2 * v[1] == 0


def test_int_inverse_roundtrip():
    rng = Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = [[int(x) for x in row] for row in random_invertible(rng, n)]
        w, den = linalg.int_inverse(m)
        assert linalg.int_mul(m, w) == [[den * (i == j) for j in range(n)] for i in range(n)]
        # den is the least positive denominator of m^-1
        assert den > 0 and den == lcm(*(x.denominator for r in fraction_inverse(m) for x in r))


def test_int_inverse_singular():
    assert linalg.int_inverse([[1, 2], [2, 4]]) is None
    assert linalg.int_inverse([[0, 0], [0, 0]]) is None


def test_charpoly_known_values():
    assert linalg.charpoly([[0, 1], [1, 0]]) == [-1, 0, 1]
    # identity: (x-1)^2 = 1 - 2x + x^2
    assert linalg.charpoly([[1, 0], [0, 1]]) == [1, -2, 1]
    # nilpotent Jordan block: x^2
    assert linalg.charpoly([[0, 1], [0, 0]]) == [0, 0, 1]
    for b in ([[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0, 1], [0, 0]]):
        assert linalg.charpoly(b) == list(fraction_charpoly(b))


def test_charpoly_annihilates_matrix():
    rng = Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[int(x) for x in row] for row in random_matrix(rng, n)]
        assert linalg.is_zero_matrix(linalg.int_poly_eval(linalg.charpoly(m), m))


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


def test_int_poly_eval_matches_the_definition():
    # The homogenized Horner sum of the Newton step: with A = M/e for an
    # integer M and e > 0, int_poly_eval of the integers p_k * e^(m-k) at M
    # is e^m * p(A).
    rng = Random(29)
    cases = [
        ([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], rng.randint(1, 6))
        for n in range(1, 7)
        for _ in range(8)
    ]
    cases += [([[1, 0], [0, 1]], 1), ([[0, 1], [0, 0]], 3), ([[2, -1], [3, 0]], 2)]
    cases += [([[0, 0], [0, 0]], 5), ([[0] * 3] * 3, 1), ([[-5]], 7), ([[4]], 1), ([[0]], 2)]
    polys = [[-7], [4], [1, 0, 1], [0, 0, 1], [-2, 0, 1], [1, 1, 1, 1]]
    for m, e in cases:
        randoms = [  # length 1 is a constant
            [rng.randint(-4, 4) for _ in range(length - 1)] + [rng.choice((-3, -1, 1, 2))]
            for length in range(1, 6)
        ]
        a = [[Fraction(x, e) for x in row] for row in m]
        for p in polys + randoms:
            deg = len(p) - 1
            got = linalg.int_poly_eval([c * e ** (deg - k) for k, c in enumerate(p)], m)
            want = _poly_of_matrix_from_definition(p, a)
            assert got == [[x * e**deg for x in row] for row in want]
            assert all(type(x) is int for r in got for x in r)
    # Large primes in the scale: the entries run well past 2**64.
    primes = [2**31 - 1, 2**61 - 1, 10**9 + 7, 998244353, 2**89 - 1]
    m, e = [[3 * primes[0], -primes[1]], [5, 7 * primes[2]]], primes[3]
    p = [primes[4], -2, 0, 5]
    got = linalg.int_poly_eval([c * e ** (3 - k) for k, c in enumerate(p)], m)
    want = _poly_of_matrix_from_definition(p, [[Fraction(x, e) for x in row] for row in m])
    assert got == [[x * e**3 for x in row] for row in want]
    assert max(abs(x) for r in got for x in r) > 2**64


def test_poly_primitive_gcd():
    # (x-1)^2 (x+2) and (x-1)(x-3): the gcd x - 1, up to sign
    g = linalg.poly_primitive_gcd([2, -3, 0, 1], [3, -4, 1])
    assert g in ([-1, 1], [1, -1])
    # contents are removed: 6(x+1)^2 and 4(x+1)(x-2) share x + 1
    assert linalg.poly_primitive_gcd([6, 12, 6], [-8, -4, 4]) in ([1, 1], [-1, -1])
    # coprime, against zero, both zero, trailing zeros trimmed
    assert linalg.poly_primitive_gcd([1, 0, 1], [-1, 1]) in ([1], [-1])
    assert linalg.poly_primitive_gcd([0, 4, 2, 0], []) == [0, 2, 1]
    assert linalg.poly_primitive_gcd([], [0]) == []


def test_wrong_multiplier_ends_gcd_in_runtime_error():
    # Multiplying a by b's leading coefficient instead of b_lead / gcd(a_lead,
    # b_lead) keeps a's leading term when that gcd exceeds 1, as for 2x^2 + 1
    # against 2x + 1, so the degree never drops; the step count per
    # pseudo-remainder stops the copy at once.
    code = (
        "import inspect\n"
        "from gitstab import linalg\n"
        "src = inspect.getsource(linalg.poly_primitive_gcd)\n"
        "exec(src.replace('x, y, s = b[-1] // g,', 'x, y, s = b[-1],'), vars(linalg))\n"
        "try:\n"
        "    linalg.poly_primitive_gcd([1, 0, 2], [1, 2])\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    out = run_python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "pseudo-remainder step failed to lower the degree\n"


def test_squarefree_part():
    # p = (x-1)^2 * (x+1) = x^3 - x^2 - x + 1
    sf = linalg.int_squarefree([1, -1, -1, 1])
    # (x-1)(x+1) = x^2 - 1, up to sign
    assert sf in ([-1, 0, 1], [1, 0, -1])


def _squarefree_case(rng: Random, case: int):
    """(p, its squarefree part, {factor: multiplicity}): p has degree
    1 + case % 8 and is a rational constant times linear factors x - r and
    irreducible quadratics x^2 - c, each drawn with multiplicity 1-4 (a
    factor drawn twice adds up); denominators reach 2**89 - 1."""
    degree = 1 + case % 8
    den = (1,) if case % 3 == 0 else (1, 7, rng.choice(_LARGE_PRIMES))
    factors = {}
    total = 0
    while total < degree:
        mult = rng.randint(1, min(4, degree - total))
        if degree - total >= 2 * mult and rng.random() < 0.3:
            factor = (Fraction(-rng.choice((2, 3, 5, -1, -7))), Fraction(0), Fraction(1))
            total += 2 * mult
        else:
            factor = (-Fraction(rng.randint(-9, 9), rng.choice(den)), Fraction(1))
            total += mult
        factors[factor] = factors.get(factor, 0) + mult
    p = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(den))]
    part = [Fraction(1)]
    for factor, mult in factors.items():
        part = _poly_mul(part, factor)
        for _ in range(mult):
            p = _poly_mul(p, factor)
    return tuple(p), tuple(part), factors


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_squarefree_part_matches_fraction_reference():
    rng = Random(1967)
    seen = set()
    for case in range(320):
        p, part, factors = _squarefree_case(rng, case)
        got = squarefree_part(p)
        assert got == fraction_squarefree_part(p) == part
        assert all(type(x) is Fraction for x in got)
        seen.update((f"degree {len(p) - 1}", f"multiplicity {max(factors.values())}"))
        if any(len(factor) == 3 for factor in factors):
            seen.add("quadratic factor")
        if lcm(*(x.denominator for x in p)) > 2**64:
            seen.add("past 2**64")
    want = {f"degree {d}" for d in range(1, 9)} | {f"multiplicity {m}" for m in range(1, 5)}
    assert seen >= want | {"past 2**64", "quadratic factor"}
    with pytest.raises(ValueError, match="zero polynomial"):
        linalg.int_squarefree([0])


def test_primitive():
    # gcd removal keeps signs, and zero stays zero
    assert linalg.primitive([0, 0, 0]) == [0, 0, 0]
    assert linalg.primitive([-6, 4, -2]) == [-3, 2, -1]
    assert linalg.primitive([-9]) == [-1] and linalg.primitive([9]) == [1]
    big = 3 * 2**70
    assert linalg.primitive([big, -2 * big, 0]) == [1, -2, 0]
    assert linalg.primitive([2**64 + 1, 2**65 + 2]) == [1, 2]


def test_clear_denominators():
    ints, mult = linalg.clear_denominators([Fraction(1, 2), Fraction(2, 3)])
    assert mult == 6 and ints == [3, 4]


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
        # linalg.charpoly runs on B = D*A; its coefficient of x^i over
        # D^(n-i) is A's
        b, den = linalg.integer_matrix(a)
        got = linalg.charpoly(b)
        assert all(type(c) is int for c in got)
        assert got == list(fraction_charpoly(b))
        assert rational_charpoly(a) == fraction_charpoly(a)
    for n in range(1, 9):
        zero = [[0] * n for _ in range(n)]
        assert linalg.charpoly(zero) == list(fraction_charpoly(zero))
        assert linalg.charpoly(zero) == [0] * n + [1]


@pytest.mark.parametrize(
    "bad", [None, True, False, 0.5, "1/0", "z", "", [1], (1, 2), "1e5", "1E5", "1e100000000"]
)
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
        red, pivots = fraction_rref(rows)  # one linalg.eliminate step per pivot
        assert (red, pivots) == _dense_rref(rows)
        assert all(type(x) is Fraction for r in red for x in r)
        assert _rational_nullspace(rows) == _dense_nullspace(rows)
        deficient += len(pivots) < min(len(rows), len(rows[0]))
        shapes.add((len(rows) == 1, len(rows[0]) == 1))
        if len(rows) == len(rows[0]):
            want = _dense_inverse(rows)
            scaled, scale = linalg.integer_matrix(linalg.mat(rows))
            got = linalg.int_inverse(scaled)
            if want is None:
                singular += 1
                assert got is None
            else:
                inverted += 1
                w, den = got
                assert tuple(tuple(Fraction(x * scale, den) for x in r) for r in w) == want
    assert shapes == {(True, False), (False, True), (False, False), (True, True)}
    assert deficient >= 60 and singular >= 30 and inverted >= 60


def test_elimination_coerces_through_frac_once():
    for bad in (None, 0.5, "x"):
        for call in (_rational_nullspace, linalg.require_invertible):
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
        ints = [linalg.clear_denominators(r)[0] for r in rows]
        # int_echelon's rows over their pivots are the reduced row echelon form
        m, pivots = linalg.int_echelon(ints)
        zero = Fraction(0)
        red = [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(m, pivots)]
        red += [(zero,) * n_cols] * (n_rows - len(pivots))
        assert (red, pivots) == fraction_rref(rows)
        den = (1,) if case % 5 == 0 else (1, 3, rng.choice(_LARGE_PRIMES))
        width = rng.randint(1, 4)
        other = [
            [Fraction(rng.randint(-5, 5), rng.choice(den)) for _ in range(width)]
            for _ in range(n_cols)
        ]
        other_ints, other_den = linalg.integer_matrix(other)
        scales = [linalg.clear_denominators(r)[1] for r in rows]
        product = [
            [Fraction(x, scale * other_den) for x in row]
            for row, scale in zip(linalg.int_mul(ints, other_ints), scales)
        ]
        assert product == [list(r) for r in fraction_mat_mul(rows, other)]
        got_null = linalg.nullspace(ints)
        got_inv = linalg.int_inverse(ints) if n_rows == n_cols else None
        with monkeypatch.context() as patch:
            for name, reference in FRACTION_INTEGER_KERNELS.items():
                patch.setattr(linalg, name, reference)
            assert got_null == linalg.nullspace(ints)
            if n_rows == n_cols:
                assert got_inv == linalg.int_inverse(ints)
        seen.add("wide" if n_cols > n_rows else "tall" if n_rows > n_cols else "square")
        cases = {
            "1x1": (n_rows, n_cols) == (1, 1),
            "deficient": len(pivots) < min(n_rows, n_cols),
            "zero row": any(not any(r) for r in rows),
            "zero column": any(not any(r[c] for r in rows) for c in range(n_cols)),
            "ints": all(type(x) is int for r in rows for x in r),
            "singular": n_rows == n_cols and got_inv is None,
            "negative pivot": any(row[c] < 0 for row, c in zip(m, pivots)),
            "past 2**64": lcm(*(Fraction(x).denominator for r in rows for x in r)) > 2**64,
        }
        seen.update(name for name, hit in cases.items() if hit)
    assert seen == {"wide", "tall", "square", *cases}
    for bad in (None, 0.5, "1/0", True):
        rows = [[1, 2], [3, bad]]
        for call in (_rational_nullspace, linalg.require_invertible, fraction_rref):
            with pytest.raises(ValueError, match="cannot interpret"):
                call(rows)
