"""Linear vector fields: derivation action, splitting, diagonalization."""

from fractions import Fraction
from random import Random

import pytest

from gitstab import linalg
from gitstab.poly import parse_poly
from gitstab.vfield import (
    LinearVectorField,
    _rational_roots,
    _squarefree_mod,
    apply_derivation,
    chevalley_split,
    invariance,
    parse_field,
    rational_diagonalize,
    substitute_linear,
)
from helpers import (
    hp,
    naive_derivation,
    naive_multiply,
    random_hpoly,
    random_invertible,
    random_matrix,
    random_weights,
    run_python,
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
    p = random_invertible(rng, n, 2)
    return linalg.mat_mul(linalg.mat_inv(p), linalg.mat_mul(tuple(map(tuple, upper)), p))


def _psf(v):
    """The squarefree characteristic factor that callers pass in."""
    return linalg.poly_squarefree_part(linalg.charpoly(v.rows))


def test_chevalley_postconditions_and_uniqueness():
    pytest.importorskip("sympy")
    rng = Random(41)
    for _ in range(100):
        m = _random_interesting_matrix(rng, 4)
        v = LinearVectorField(m)
        psf = _psf(v)
        s, nil = chevalley_split(v, psf)
        assert linalg.mat_sub(v.rows, nil.rows) == s.rows
        assert linalg.mat_mul(s.rows, nil.rows) == linalg.mat_mul(nil.rows, s.rows)
        assert nil.is_nilpotent()
        assert linalg.is_zero_matrix(linalg.poly_eval_matrix(psf, s.rows))
        # uniqueness: agree with the independent quotient-ring construction
        assert s.rows == _sympy_semisimple_part(m)


def test_chevalley_golden_jordan():
    v = LinearVectorField([[3, 1, 0], [0, 3, 0], [0, 0, 2]])
    s, n = chevalley_split(v, _psf(v))
    assert s.rows == LinearVectorField.diagonal([3, 3, 2]).rows
    assert n.rows == LinearVectorField([[0, 1, 0], [0, 0, 0], [0, 0, 0]]).rows


def test_rational_diagonalize_swap():
    swap = LinearVectorField([[0, 1], [1, 0]])
    got = rational_diagonalize(swap, _psf(swap))
    assert got is not None
    weights, basis = got
    assert tuple(weights) == (1, -1)
    d = linalg.mat_mul(linalg.mat_inv(basis), linalg.mat_mul(((0, 1), (1, 0)), basis))
    assert d == LinearVectorField.diagonal([1, -1]).rows


def test_rational_diagonalize_irrational_returns_none():
    # eigenvalues +-sqrt(2)
    v = LinearVectorField([[0, 2], [1, 0]])
    assert rational_diagonalize(v, _psf(v)) is None


def test_chevalley_semisimple_field_has_zero_nilpotent_part():
    v = LinearVectorField([[0, 1, 0], [1, 0, 0], [0, 0, 5]])
    s, nil = chevalley_split(v, _psf(v))
    assert s == v and nil.is_zero and nil.n == 3


def test_chevalley_and_diagonalize_accept_a_known_squarefree_factor():
    rng = Random(43)
    for _ in range(60):
        v = LinearVectorField(_random_interesting_matrix(rng, rng.randint(2, 4)))
        psf = _psf(v)
        s, nil = chevalley_split(v, psf)
        assert linalg.mat_sub(v.rows, nil.rows) == s.rows
        assert linalg.mat_mul(s.rows, nil.rows) == linalg.mat_mul(nil.rows, s.rows)
        assert nil.is_nilpotent()
        assert linalg.is_zero_matrix(linalg.poly_eval_matrix(psf, s.rows))
        got = rational_diagonalize(s, psf)
        if got is not None:
            weights, basis = got
            conj = linalg.mat_mul(linalg.mat_inv(basis), linalg.mat_mul(s.rows, basis))
            assert conj == LinearVectorField.diagonal(weights).rows


def test_rational_diagonalize_certifies_a_caller_supplied_factor():
    jordan = LinearVectorField([[1, 1], [0, 1]])
    # x - 1 does kill the semisimple part, not this field: the eigenspace
    # check still refuses to return a basis
    with pytest.raises(RuntimeError):
        rational_diagonalize(jordan, (Fraction(-1), Fraction(1)))


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


def test_rational_diagonalize_random_conjugates():
    rng = Random(42)
    for _ in range(60):
        n = rng.randint(2, 4)
        eigs = [rng.randint(-4, 4) for _ in range(n)]
        p = random_invertible(rng, n, 2)
        m = linalg.mat_mul(linalg.mat_inv(p), linalg.mat_mul(
            LinearVectorField.diagonal(eigs).rows, p))
        v = LinearVectorField(m)
        got = rational_diagonalize(v, _psf(v))
        assert got is not None
        weights, basis = got
        assert sorted(weights, reverse=True) == sorted(map(Fraction, eigs), reverse=True)
        conj = linalg.mat_mul(linalg.mat_inv(basis), linalg.mat_mul(m, basis))
        assert conj == LinearVectorField.diagonal(weights).rows


def _from_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    p = [Fraction(1)]
    for r in roots:
        p = [Fraction(0)] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    return tuple(p)


def test_rational_roots_split_golden():
    F = Fraction
    # 7x - 3 once denominators are cleared
    assert _rational_roots(_from_roots([F(3, 7)])) == [F(3, 7)]
    # -x + 2: a negative leading coefficient
    assert _rational_roots((F(2), F(-1))) == [2]
    assert _rational_roots(_from_roots([0, 1])) == [1, 0]
    # 6x^2 + x - 2
    assert _rational_roots(_from_roots([F(1, 2), F(-2, 3)])) == [F(1, 2), F(-2, 3)]
    eight = [-4, -3, -1, 0, F(1, 2), 2, F(5, 3), 7]
    assert _rational_roots(_from_roots(eight)) == sorted(map(F, eight), reverse=True)
    big = [10**12 - 11, -(10**12) - 39, F(10**12 + 3, 7)]
    assert _rational_roots(_from_roots(big)) == sorted(map(F, big), reverse=True)


_NOT_SQUAREFREE = """\
from gitstab import linalg
from gitstab.vfield import LinearVectorField, _rational_roots, rational_diagonalize

calls = [
    lambda: _rational_roots((1, -2, 1)),  # (x - 1)^2
    lambda: _rational_roots((0, 0, 1, 1)),  # x^2 (x + 1)
    lambda: rational_diagonalize(LinearVectorField(((1, 0), (0, 1))), psf=(1, -2, 1)),
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
    F = Fraction
    assert _rational_roots((F(1), F(0), F(1))) is None  # x^2 + 1
    # x^2 - 7 is (x + 1)^2 mod 2 and (x - 1)(x + 1) mod 3, so both roots
    # mod 3 are lifted and then fail the exact check.
    x2m7 = (F(-7), F(0), F(1))
    assert not _squarefree_mod([-7, 0, 1], 2) and _squarefree_mod([-7, 0, 1], 3)
    assert _rational_roots(x2m7) is None
    # a rational root next to an irreducible quadratic
    assert _rational_roots((F(-2), F(1), F(-2), F(1))) is None  # (x - 2)(x^2 + 1)


def test_rational_roots_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = Random(44)
    verdicts = set()
    for _ in range(300):
        k = rng.randint(1, 6)
        if rng.random() < 0.5:
            roots = set()
            while len(roots) < k:
                big = rng.random() < 0.3
                top = 10**12 if big else 12
                roots.add(Fraction(rng.randint(-top, top), rng.randint(1, 10**6 if big else 5)))
            p = _from_roots(roots)
        else:
            p = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(k))
            p += (Fraction(1),)
        psf = linalg.poly_squarefree_part(p)
        ints, _ = linalg.clear_denominators(psf)
        _, factors = sympy.Poly(list(reversed(ints)), x, domain="QQ").factor_list()
        if all(fac.degree() == 1 for fac, _ in factors):
            want = sorted(
                (-Fraction(int(b.p), int(b.q)) / Fraction(int(a.p), int(a.q))
                 for a, b in (fac.all_coeffs() for fac, _ in factors)),
                reverse=True,
            )
        else:
            want = None
        assert _rational_roots(psf) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_substitute_linear_golden():
    # z0 -> z0+z3, z3 -> z0-z3 turns z0^2 - z3^2 into 4 z0 z3
    basis = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, -1))
    f = hp("z0^2 + z1^2 + z2^2 - z3^2", 4)
    assert substitute_linear(f, basis) == hp("4*z0*z3 + z1^2 + z2^2", 4)


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
        assert substitute_linear(f, linalg.mat_mul(a, b)) == substitute_linear(
            substitute_linear(f, a), b
        )
        inv = linalg.mat_inv(a)
        assert substitute_linear(substitute_linear(f, a), inv) == f


def test_substitute_linear_expands_a_six_variable_quartic():
    # The work bound leaves room for every input the benchmark substitutes;
    # the first substitution makes the form dense, the second undoes it.
    rng = Random(44)
    f = random_hpoly(rng, 6, 4, 12)
    a = random_invertible(rng, 6, 2)
    g = substitute_linear(f, a)
    assert substitute_linear(g, linalg.mat_inv(a)) == f


def test_parse_field():
    v = parse_field("diag:-7,5,1,1", 4)
    assert v.is_diagonal and tuple(v.diagonal_entries()) == (-7, 5, 1, 1)
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
