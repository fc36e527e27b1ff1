"""Linear vector fields: derivation action, splitting, diagonalization."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from gitstab import linalg
from gitstab.poly import HPoly, parse_poly
from gitstab.stability import WEAKLY_STABLE_NOT_STABLE, classify_torus
from gitstab.vfield import (
    LinearVectorField,
    _rational_roots,
    _squarefree_mod,
    apply_derivation,
    chevalley_split,
    invariance,
    parse_field,
    substitute_linear,
)
from helpers import (
    FRACTION_INTEGER_KERNELS,
    conjugate,
    diagonalize_field,
    fraction_chevalley_split,
    fraction_horner,
    fraction_inverse,
    fraction_mat_mul,
    fraction_substitute_linear,
    hp,
    integer_split,
    is_nilpotent,
    naive_derivation,
    naive_multiply,
    random_binomial_sum,
    random_hpoly,
    random_invertible,
    random_matrix,
    random_weights,
    rational_charpoly,
    run_python,
    squarefree_factor,
    squarefree_part,
)


def test_apply_derivation_single_entry():
    # v = z1 d/dz0 sends z0*z1^2 to z1^3
    v = LinearVectorField([[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4])
    f = hp("z0*z1^2", 4)
    assert apply_derivation(v, f) == hp("z1^3", 4)


def test_apply_derivation_diagonal_weights():
    v = LinearVectorField.diagonal([-7, 5, 1, 1])
    f = hp("z0*z1^2 + z1*z2*z3", 4)
    g = apply_derivation(v, f)
    assert g.terms == {(1, 2, 0, 0): Fraction(3), (0, 1, 1, 1): Fraction(7)}


def test_apply_derivation_zero_result():
    v = LinearVectorField([[0, 1], [0, 0]])
    assert apply_derivation(v, hp("z1^3", 2)) is None


def test_apply_derivation_cancelling_terms_give_none():
    # v = z1 d/dz0 - z0 d/dz1 sends z0^2 + z1^2 to 2 z0 z1 - 2 z0 z1
    v = LinearVectorField([[0, 1], [-1, 0]])
    assert apply_derivation(v, hp("z0^2 + z1^2", 2)) is None


def test_apply_derivation_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_derivation(LinearVectorField.diagonal([1, -1]), hp("z0*z1*z2", 3))


def test_apply_derivation_against_naive():
    rng = Random(31)
    for _ in range(150):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 4), 6, den_bound=3)
        m = random_matrix(rng, n)
        got = apply_derivation(LinearVectorField(m), f)
        want = naive_derivation(m, f)
        assert (got.terms if got is not None else {}) == want


def test_derivation_is_leibniz():
    rng = Random(32)
    for _ in range(100):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 3), 4)
        g = random_hpoly(rng, n, rng.randint(1, 3), 4)
        v = LinearVectorField(random_matrix(rng, n))
        lhs = apply_derivation(v, naive_multiply(f, g))
        vf, vg = apply_derivation(v, f), apply_derivation(v, g)
        acc = {}
        for part in (
            naive_multiply(vf, g) if vf is not None else None,
            naive_multiply(f, vg) if vg is not None else None,
        ):
            if part is None:
                continue
            for m, c in part.terms.items():
                acc[m] = acc.get(m, Fraction(0)) + c
        acc = {m: c for m, c in acc.items() if c}
        assert (lhs.terms if lhs is not None else {}) == acc


def test_euler_field_scales_by_degree():
    rng = Random(33)
    for _ in range(50):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 5), 6)
        euler = LinearVectorField.diagonal([1] * n)
        assert invariance(euler, f) == f.degree


def test_invariance_golden():
    v = LinearVectorField.diagonal([-7, 5, 1, 1])
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2", 4)
    assert invariance(v, f) == 3
    assert invariance(v, hp("z0*z1^2 + z1*z2*z3", 4)) is None


def _sympy_semisimple_part(rows):
    """Independent route to the semisimple part: Hensel-lift a root of the
    squarefree characteristic factor inside Q[x]/(charpoly), using sympy for
    all polynomial arithmetic, then evaluate on the matrix."""
    import sympy

    n = len(rows)
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    x = sympy.Symbol("x")
    p = M.charpoly(x).as_expr()
    p_poly = sympy.Poly(p, x, domain="QQ")
    sf = sympy.Poly(sympy.quo(p_poly, sympy.gcd(p_poly, p_poly.diff(x))), x, domain="QQ")
    h = sympy.Poly(x, x, domain="QQ")
    for _ in range(16):
        val = sympy.rem(sf.compose(h), p_poly)
        if val.is_zero:
            break
        dval = sympy.rem(sf.diff(x).compose(h), p_poly)
        inv = sympy.invert(dval, p_poly)
        h = sympy.Poly(sympy.rem(h - val * inv, p_poly), x, domain="QQ")
    else:
        raise AssertionError("oracle lift did not converge")
    S = sympy.zeros(n)
    for k, c in enumerate(reversed(h.all_coeffs())):
        S += c * (M**k)
    return tuple(
        tuple(Fraction(int(S[i, j].p), int(S[i, j].q)) for j in range(n)) for i in range(n)
    )


def _random_interesting_matrix(rng: Random, n: int):
    """Mix plain random matrices with engineered non-semisimple ones."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_matrix(rng, n, 3)
    # conjugated upper-triangular with repeated eigenvalues
    eigs = [rng.randint(-3, 3) for _ in range(n)]
    if kind == 2:
        eigs[rng.randrange(n)] = eigs[0]
    upper = [
        [
            Fraction(eigs[i]) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return conjugate(random_invertible(rng, n, 2), upper)


def _psf(v):
    """The squarefree characteristic factor that callers pass in."""
    return squarefree_part(rational_charpoly(v.rows))


def _check_split(v, s, nil, psf):
    """s + nil = v, the parts commute, nil is nilpotent and psf(s) = 0."""
    assert tuple(tuple(x + y for x, y in zip(rs, rn)) for rs, rn in zip(s, nil)) == v.rows
    assert fraction_mat_mul(s, nil) == fraction_mat_mul(nil, s)
    assert is_nilpotent(nil)
    assert linalg.is_zero_matrix(fraction_horner(psf, s))


def test_chevalley_postconditions_and_uniqueness():
    pytest.importorskip("sympy", exc_type=ImportError)
    rng = Random(41)
    for _ in range(100):
        m = _random_interesting_matrix(rng, 4)
        v = LinearVectorField(m)
        s, nil = integer_split(v)
        _check_split(v, s, nil, _psf(v))
        # uniqueness: agree with the independent quotient-ring construction
        assert s == _sympy_semisimple_part(m)


def test_chevalley_splits_three_jordan_blocks_of_size_eight():
    # n = 24: each block needs ceil(log2 8) = 3 Newton steps and one more to
    # see p*(s) = 0, inside the cap of ceil(log2 24) + 2 = 7 steps.
    k, n = 8, 24
    eigs = (Fraction(1), Fraction(-2), Fraction(1, 2))
    semi = [[Fraction(0)] * n for _ in range(n)]
    nil = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        semi[i][i] = eigs[i // k]
        if i % k:
            nil[i - 1][i] = Fraction(1)
    rng = Random(24)
    p = tuple(
        tuple(Fraction(int(i == j) or (j > i) * rng.randint(-1, 1)) for j in range(n))
        for i in range(n)
    )
    v = LinearVectorField(conjugate(p, [[x + y for x, y in zip(a, b)] for a, b in zip(semi, nil)]))
    assert integer_split(v) == (conjugate(p, semi), conjugate(p, nil))


def test_wrong_inverse_ends_newton_in_runtime_error():
    # With the transposed inverse the iteration never reaches q(x) = 0 and
    # its entries grow at every step; the cap from n stops it at once.
    code = (
        "from gitstab import linalg, vfield\n"
        "b = [[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]\n"
        "q = [-2, -1, 1]  # (x - 2)(x + 1)\n"
        "inverse = linalg.int_inverse\n"
        "def transposed(a):\n"
        "    w, den = inverse(a)\n"
        "    return [list(col) for col in zip(*w)], den\n"
        "linalg.int_inverse = transposed\n"
        "try:\n"
        "    vfield.chevalley_split(b, q)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    out = run_python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "Newton iteration for the semisimple part did not converge\n"


def test_a_wrong_factor_ends_the_split_in_runtime_error():
    # x - 1 for a Jordan block of eigenvalue 2: Newton stops at once at the
    # identity, which commutes with B, but B - I is not nilpotent.
    with pytest.raises(RuntimeError, match="nilpotent part must be nilpotent"):
        chevalley_split([[2, 1], [0, 2]], [-1, 1])
    # x^2 - 1 for a nilpotent B: q'(B) = 2B has no inverse.
    with pytest.raises(RuntimeError, match="q'\\(x\\) must be invertible"):
        chevalley_split([[0, 1], [0, 0]], [-1, 0, 1])


def test_a_wrong_inverse_that_converges_ends_in_runtime_error(monkeypatch):
    # B = [[0, 1, 0], [0, 0, 0], [0, 0, 1]] with q = x^2 - x: one entry of
    # the inverse of q'(B) = 2B - I off by one moves the first Newton step
    # to the idempotent [[0, 0, 1], [0, 0, 0], [0, 0, 1]].  Newton stops
    # there, and B minus it is nilpotent, but the two do not commute.
    inverse = linalg.int_inverse

    def off_by_one(a):
        w, den = inverse(a)
        w[1][2] += den
        return w, den

    monkeypatch.setattr(linalg, "int_inverse", off_by_one)
    with pytest.raises(RuntimeError, match="parts must commute"):
        chevalley_split([[0, 1, 0], [0, 0, 0], [0, 0, 1]], [0, -1, 1])


def test_chevalley_golden_jordan():
    # (x - 3)(x - 2) = x^2 - 5x + 6
    b = [[3, 1, 0], [0, 3, 0], [0, 0, 2]]
    assert chevalley_split(b, [6, -5, 1]) == ([[3, 0, 0], [0, 3, 0], [0, 0, 2]],
                                              [[0, 1, 0], [0, 0, 0], [0, 0, 0]], 1)
    # (x - 1)^2 (x + 2): the semisimple part has denominator 3
    b = [[1, 0, 0], [2, 1, 0], [2, 1, -2]]
    assert chevalley_split(b, [-2, 1, 1]) == ([[3, 0, 0], [0, 3, 0], [4, 3, -6]],
                                              [[0, 0, 0], [6, 0, 0], [2, 0, 0]], 3)


def test_rational_diagonalize_swap():
    swap = LinearVectorField([[0, 1], [1, 0]])
    got = diagonalize_field(swap, _psf(swap))
    assert got is not None
    weights, basis = got
    assert tuple(weights) == (1, -1)
    assert conjugate(basis, ((0, 1), (1, 0))) == LinearVectorField.diagonal([1, -1]).rows


def test_rational_diagonalize_irrational_returns_none():
    # eigenvalues +-sqrt(2)
    v = LinearVectorField([[0, 2], [1, 0]])
    assert diagonalize_field(v, _psf(v)) is None


def test_chevalley_semisimple_field_has_zero_nilpotent_part():
    b = [[0, 1, 0], [1, 0, 0], [0, 0, 5]]
    assert chevalley_split(b, squarefree_factor(b)) == (b, [[0] * 3] * 3, 1)


def test_chevalley_and_diagonalize_accept_a_known_squarefree_factor():
    rng = Random(43)
    for _ in range(60):
        v = LinearVectorField(_random_interesting_matrix(rng, rng.randint(2, 4)))
        psf = _psf(v)
        s, nil = integer_split(v)
        assert (s, nil) == fraction_chevalley_split(v.rows, psf)
        _check_split(v, s, nil, psf)
        got = diagonalize_field(LinearVectorField(s), psf)
        if got is not None:
            weights, basis = got
            assert conjugate(basis, s) == LinearVectorField.diagonal(weights).rows


def test_rational_diagonalize_certifies_a_caller_supplied_factor():
    jordan = LinearVectorField([[1, 1], [0, 1]])
    # x - 1 does kill the semisimple part, not this field: the eigenspace
    # check still refuses to return a basis
    with pytest.raises(RuntimeError):
        diagonalize_field(jordan, (Fraction(-1), Fraction(1)))


def test_build_degeneration_computes_one_charpoly_per_field(monkeypatch):
    from gitstab import degeneration

    calls = []
    charpoly = linalg.charpoly

    def counting(a):
        calls.append(a)
        return charpoly(a)

    monkeypatch.setattr(linalg, "charpoly", counting)
    fermat = parse_poly("z0^3 + z1^3 + z2^3 + z3^3", 4)
    swap = LinearVectorField(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    report = degeneration.build_degeneration(fermat, swap)
    assert report.basis_change is not None and len(calls) == 1
    calls.clear()
    jordan = LinearVectorField(
        [[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(degeneration.DegenerationError, match="nilpotent"):
        degeneration.build_degeneration(parse_poly("z0*z1^2 + z2^2*z3", 4), jordan)
    assert len(calls) == 1
    calls.clear()
    degeneration.build_degeneration(fermat, LinearVectorField.diagonal([1, 0, 0, -1]))
    assert calls == []


def _conjugated_field(rng: Random, kind: str, n: int) -> LinearVectorField:
    """P^-1 * core * P for a random invertible P, never diagonal.  The core is
    diagonal with distinct small rationals ("rational"), has a Jordan block
    of size 2 or 3 ("nilpotent"), or a companion block of x^2 - q with q not
    a square ("irrational")."""
    eigs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
    core = [[eigs[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "rational":
        eigs[1] = eigs[0] + 1  # never scalar, so never its own conjugate
        core[1][1] = eigs[1]
    elif kind == "nilpotent":
        for i in range(min(n, rng.choice((2, 3))) - 1):
            core[i + 1][i + 1] = eigs[0]
            core[i][i + 1] = Fraction(1)
    else:
        core[0][0] = core[1][1] = Fraction(0)
        core[0][1], core[1][0] = Fraction(1), Fraction(rng.choice((2, 3, 5, 6, 7)))
    while True:
        v = LinearVectorField(conjugate(random_invertible(rng, n, 1), core))
        if not v.is_diagonal:
            return v


def _split_and_degeneration(f, v):
    from gitstab import degeneration

    split = integer_split(v)
    try:
        report = degeneration.build_degeneration(f, v).to_json()
    except degeneration.DegenerationError as exc:
        report = str(exc)
    return split, report


def _fraction_pipeline(patch):
    """Swap every integer kernel of the degeneration path for its plain
    Fraction reference: linalg's integer kernels, the Newton step's inverse
    among them, and the substitution."""
    from gitstab import degeneration

    for name, reference in FRACTION_INTEGER_KERNELS.items():
        patch.setattr(linalg, name, reference)

    def substitute(f, p, den):
        return fraction_substitute_linear(f, [[Fraction(x, den) for x in row] for row in p])

    patch.setattr(degeneration, "substitute_integer", substitute)


def test_fraction_free_evaluation_leaves_split_and_degeneration_unchanged(monkeypatch):
    # The Chevalley split, the rational diagonalization and every
    # degeneration report are exactly those of an all-Fraction pipeline
    # (Horner, products, Gauss-Jordan, inverses, the squarefree factor and
    # the substitution), on conjugated fields of each kind.
    rng = Random(1968)
    kinds = ("rational", "nilpotent", "irrational")
    for i in range(150):
        n, kind = 2 + i % 7, kinds[i % 3]
        v = _conjugated_field(rng, kind, n)
        f = random_hpoly(rng, n, 3, 5)
        with monkeypatch.context() as patch:
            _fraction_pipeline(patch)
            expected = _split_and_degeneration(f, v)
        assert _split_and_degeneration(f, v) == expected


def test_fraction_free_kernels_leave_fixing_witnesses_unchanged(monkeypatch):
    # lp.kernel is linalg.nullspace's basis, which gives classify_torus its
    # fixing dimension and, for weakly stable forms, its witness.
    rng = Random(1969)
    weakly = 0
    for _ in range(60):
        f = random_binomial_sum(rng, rng.randint(2, 8))
        with monkeypatch.context() as patch:
            _fraction_pipeline(patch)
            expected = classify_torus(f)
        got = classify_torus(f)
        assert got == expected  # fixing dimension and witness included
        weakly += got.classification == WEAKLY_STABLE_NOT_STABLE and got.fixing_subspace_dim > 0
    assert weakly >= 40


def test_rational_diagonalize_random_conjugates():
    rng = Random(42)
    for _ in range(60):
        n = rng.randint(2, 4)
        eigs = [rng.randint(-4, 4) for _ in range(n)]
        m = conjugate(random_invertible(rng, n, 2), LinearVectorField.diagonal(eigs).rows)
        v = LinearVectorField(m)
        got = diagonalize_field(v, _psf(v))
        assert got is not None
        weights, basis = got
        assert sorted(weights, reverse=True) == sorted(map(Fraction, eigs), reverse=True)
        assert conjugate(basis, m) == LinearVectorField.diagonal(weights).rows


def _from_roots(roots, lead=1):
    """Ascending integer coefficients of lead * prod (x - r)."""
    p = [lead]
    for r in roots:
        p = [0] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    return p


def test_rational_roots_split_golden():
    assert _rational_roots([-2, 1]) == [2]
    # -x + 2: a leading coefficient of -1
    assert _rational_roots([2, -1]) == [2]
    assert _rational_roots(_from_roots([0, 1])) == [1, 0]
    eight = [-4, -3, -1, 0, 1, 2, 5, 7]
    for lead in (1, -1):
        assert _rational_roots(_from_roots(eight, lead)) == sorted(eight, reverse=True)
    # roots far above 2^32: the Hensel lift runs several squarings
    big = [10**12 - 11, -(10**12) - 39, 10**12 + 3]
    for lead in (1, -1):
        assert _rational_roots(_from_roots(big, lead)) == sorted(big, reverse=True)


_NOT_SQUAREFREE = """\
from gitstab import linalg
from gitstab.vfield import _rational_roots, rational_diagonalize

calls = [
    lambda: _rational_roots((1, -2, 1)),  # (x - 1)^2
    lambda: _rational_roots((0, 0, 1, 1)),  # x^2 (x + 1)
    lambda: rational_diagonalize([[1, 0], [0, 1]], [1, -2, 1], 1),
]
for call in calls:
    try:
        call()
    except ValueError as exc:
        print("ValueError:", exc)
"""


def test_rational_roots_refuses_a_non_squarefree_polynomial_in_bounded_time():
    # No prime keeps a repeated factor squarefree, so without the check over
    # Q the search for a good prime never ends; a fresh interpreter with a
    # timeout turns such a hang into a failure.
    proc = run_python("-c", _NOT_SQUAREFREE, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError: polynomial is not squarefree"] * 3


def test_rational_roots_non_split_golden():
    assert _rational_roots([1, 0, 1]) is None  # x^2 + 1
    assert _rational_roots([-1, 0, -1]) is None  # -(x^2 + 1)
    # x^2 - 7 is (x + 1)^2 mod 2 and (x - 1)(x + 1) mod 3, so both roots
    # mod 3 are lifted and then fail the exact check.
    x2m7 = [-7, 0, 1]
    assert not _squarefree_mod(x2m7, 2) and _squarefree_mod(x2m7, 3)
    assert _rational_roots(x2m7) is None
    assert _rational_roots([-c for c in x2m7]) is None
    # a rational root next to an irreducible quadratic
    assert _rational_roots([-2, 1, -2, 1]) is None  # (x - 2)(x^2 + 1)


def test_rational_roots_against_sympy():
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    x = sympy.Symbol("x")
    rng = Random(44)
    verdicts, signs = set(), set()
    for _ in range(300):
        k = rng.randint(1, 6)
        lead = rng.choice((1, -1))
        if rng.random() < 0.5:
            roots = set()
            while len(roots) < k:
                top = 10**12 if rng.random() < 0.3 else 12
                roots.add(rng.randint(-top, top))
            p = _from_roots(roots, lead)
        else:
            p = [rng.randint(-20, 20) for _ in range(k)] + [lead]
        q = linalg.int_squarefree(p)  # leading coefficient +-1, as callers pass it
        signs.add(q[-1])
        _, factors = sympy.Poly(list(reversed(q)), x, domain="QQ").factor_list()
        if all(fac.degree() == 1 for fac, _ in factors):
            want = sorted(
                (-Fraction(int(b.p), int(b.q)) / Fraction(int(a.p), int(a.q))
                 for a, b in (fac.all_coeffs() for fac, _ in factors)),
                reverse=True,
            )
        else:
            want = None
        assert _rational_roots(q) == want
        verdicts.add(want is None)
    assert verdicts == {True, False} and signs == {1, -1}


def test_substitute_linear_golden():
    # z0 -> z0+z3, z3 -> z0-z3 turns z0^2 - z3^2 into 4 z0 z3
    basis = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1))
    f = hp("z0^2 + z1^2 + z2^2 - z3^2", 4)
    assert substitute_linear(f, basis) == hp("4*z0*z3 + z1^2 + z2^2", 4)


def test_substitute_linear_drops_cancelled_products():
    # (z0 + z1)(z0 - z1): the z0*z1 products cancel inside the expansion
    g = substitute_linear(hp("z0*z1", 2), ((1, 1), (1, -1)))
    assert g == hp("z0^2 - z1^2", 2) and all(g.terms.values())


def test_substitute_linear_rejects_singular():
    with pytest.raises(ValueError):
        substitute_linear(hp("z0*z1", 2), ((1, 1), (1, 1)))


@pytest.mark.parametrize("basis, shape", [(((1, 0, 0), (0, 1, 0)), "2x3"), (((1,), (0,)), "2x1")])
def test_substitute_linear_rejects_a_non_square_basis(basis, shape):
    with pytest.raises(ValueError, match=f"basis matrix is {shape}, expected 2x2"):
        substitute_linear(hp("z0*z1", 2), basis)


def test_substitute_linear_functorial():
    rng = Random(43)
    for _ in range(60):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 3), 5)
        a = random_invertible(rng, n, 2)
        b = random_invertible(rng, n, 2)
        # f((AB)z) = (f(Az))(Bz)
        g = substitute_linear(f, a)
        assert all(g.terms.values())
        assert substitute_linear(f, fraction_mat_mul(a, b)) == substitute_linear(g, b)
        assert substitute_linear(g, fraction_inverse(a)) == f


def test_substitute_linear_expands_a_six_variable_quartic():
    # The work bound leaves room for every input the benchmark substitutes;
    # the first substitution makes the form dense, the second undoes it.
    rng = Random(44)
    f = random_hpoly(rng, 6, 4, 12)
    a = random_invertible(rng, 6, 2)
    g = substitute_linear(f, a)
    assert all(g.terms.values())
    assert substitute_linear(g, fraction_inverse(a)) == f


def _substitution_case(rng: Random, case: int):
    """(f, basis, expected or None): 1-5 variables, degrees 1-8 in one and
    two variables, denominators up to 2**61 - 1; every fourth case is a
    sparse g pulled back along the inverse basis, so the expansion of f must
    cancel down to g."""
    n = 1 + case % 5
    degree = 1 + case // 5 % (8 if n <= 2 else 3)
    den = (1,) if case % 3 == 0 else (1, 2, 3, rng.choice((2**31 - 1, 2**61 - 1, 10**9 + 7)))
    while True:
        basis = [[Fraction(rng.randint(-2, 2), rng.choice(den)) for _ in range(n)] for _ in range(n)]
        inverse = fraction_inverse(basis)
        if inverse is not None:
            break
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * n
        for _ in range(degree):
            mono[rng.randrange(n)] += 1
        terms[tuple(mono)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(den))
    f = HPoly(n, terms)
    if case % 4 == 1:
        return fraction_substitute_linear(f, inverse), basis, f
    return f, basis, None


def test_substitute_linear_matches_fraction_reference():
    rng = Random(1967)
    seen = set()
    for case in range(320):
        f, basis, expected = _substitution_case(rng, case)
        got = substitute_linear(f, basis)
        assert got == fraction_substitute_linear(f, basis)
        assert expected is None or got == expected
        assert all(type(c) is Fraction and c for c in got.terms.values())
        # the same expansion with |entries| cannot cancel: its support is
        # every monomial the products reach
        reach = fraction_substitute_linear(
            HPoly(f.n_vars, {m: 1 for m in f.terms}), [[abs(x) for x in row] for row in basis]
        )
        den = lcm(*(x.denominator for row in basis for x in row))
        scale = lcm(*(c.denominator for c in f.terms.values())) * den**f.degree
        seen.add(f"degree {f.degree}")
        seen.update(
            name
            for name, hit in (
                ("1 variable", f.n_vars == 1),
                ("cancel", set(got.terms) < set(reach.terms)),
                ("past 2**64", scale > 2**64),
            )
            if hit
        )
    assert seen == {"1 variable", "cancel", "past 2**64", *(f"degree {d}" for d in range(1, 9))}


def test_parse_field():
    v = parse_field("diag:-7,5,1,1", 4)
    assert v.is_diagonal and [v.rows[i][i] for i in range(4)] == [-7, 5, 1, 1]
    w = parse_field('[[0, 1], ["1/2", 0]]', 2)
    assert w.rows[1][0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_field("diag:1,2", 3)
    with pytest.raises(ValueError):
        parse_field("[[1,2],[3]]", 2)
    with pytest.raises(ValueError):
        parse_field("[[1,2],[3,4]]", 3)
    with pytest.raises(ValueError):
        parse_field("{bad}", 2)
