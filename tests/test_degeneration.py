"""Degeneration families, their invariants, and the equivalence crosscheck."""

import json
from fractions import Fraction
from random import Random

import pytest

from gitstab import boxscan, degeneration, linalg, stability
from gitstab.cli import main
from gitstab.degeneration import (
    CrosscheckReport,
    CrosscheckViolation,
    DegenerationError,
    DegenerationFamily,
    build_degeneration,
    from_destabilizer,
    theorem_crosscheck,
)
from gitstab.futaki import FutakiValue
from gitstab.poly import HPoly
from gitstab.vfield import LinearVectorField, apply_derivation, chevalley_split, substitute_linear
from gitstab.weights import WeightVector, limit_poly, mu, weight_spectrum
from helpers import (
    conjugate,
    fraction_chevalley_split,
    hp,
    integer_split,
    random_hpoly,
    random_invertible,
    random_trace_zero_ints,
    rational_charpoly,
    squarefree_factor,
    squarefree_part,
)

UNSTABLE_CUBIC = "z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3"
FERMAT = "z0^3 + z1^3 + z2^3 + z3^3"


def test_destabilizer_family_golden():
    f = hp(UNSTABLE_CUBIC, 4)
    rep = from_destabilizer(f, WeightVector.parse("-7,5,1,1"))
    fam = rep.family
    assert fam.generator == WeightVector.parse("-24,12,0,0")
    assert fam.s_rescale == 1
    assert sorted(fam.strata) == [0, 12]
    assert fam.strata[0] == hp("z0*z1^2 + z2^2*z3 - z2*z3^2", 4)
    assert fam.strata[12] == hp("z1*z2*z3", 4)
    assert rep.special_fiber == fam.strata[0]
    assert not rep.trivial
    assert rep.futaki is not None and rep.futaki.value == -8
    assert rep.normalized_trace_zero_generator == WeightVector.parse("-7,5,1,1")
    assert rep.basis_change is None
    assert fam.fiber(1) == f
    assert fam.fiber(2) == hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + 4096*z1*z2*z3", 4)


def test_fermat_family_golden():
    f = hp(FERMAT, 4)
    rep = from_destabilizer(f, WeightVector.parse("1,-1,0,0"))
    fam = rep.family
    assert fam.generator == WeightVector.parse("6,0,3,3")
    assert sorted(fam.strata) == [0, 9, 18]
    assert fam.strata[0] == hp("z1^3", 4)
    assert fam.strata[9] == hp("z2^3 + z3^3", 4)
    assert fam.strata[18] == hp("z0^3", 4)
    assert not rep.trivial
    # a nontrivial degeneration of a stable hypersurface has positive invariant
    assert rep.futaki.value == 8
    assert rep.normalized_trace_zero_generator == WeightVector.parse("1,-1,0,0")


def test_zero_weights_give_trivial_family():
    f = hp(UNSTABLE_CUBIC, 4)
    rep = from_destabilizer(f, WeightVector.from_values([0] * 4))
    assert rep.trivial
    assert rep.family.strata == {0: f}
    assert rep.special_fiber == f
    assert rep.family.fiber(5) == f
    assert rep.futaki.value == 0
    assert rep.normalized_trace_zero_generator.is_zero


def test_from_destabilizer_validation():
    f = hp(FERMAT, 4)
    with pytest.raises(ValueError, match="length"):
        from_destabilizer(f, WeightVector.parse("1,-1,0"))
    with pytest.raises(ValueError, match="integers"):
        from_destabilizer(f, WeightVector.from_values([Fraction(1, 2), Fraction(-1, 2), 0, 0]))
    with pytest.raises(ValueError, match="trace"):
        from_destabilizer(f, WeightVector.parse("1,1,0,0"))


def test_fractional_diagonal_field_is_rescaled():
    f = hp(FERMAT, 4)
    v = LinearVectorField.diagonal([Fraction(1, 2), Fraction(1, 3), 0, Fraction(-1, 6)])
    rep = build_degeneration(f, v)
    fam = rep.family
    assert fam.s_rescale == 2
    assert sorted(fam.strata) == [0, 1, 3, 4]
    assert fam.strata[0] == hp("z3^3", 4)
    assert fam.strata[4] == hp("z0^3", 4)
    assert fam.fiber(1) == f
    assert rep.normalized_trace_zero_generator == WeightVector.parse("2,1,-1,-2")
    assert rep.futaki.value == 16


def test_degenerations_along_random_destabilizers():
    rng = Random(701)
    for _ in range(60):
        n = rng.randint(3, 5)
        d = rng.randint(2, 4)
        f = random_hpoly(rng, n, d, 8)
        lam = random_trace_zero_ints(rng, n)
        rep = from_destabilizer(f, lam)
        fam = rep.family
        assert fam.s_rescale == 1
        assert fam.fiber(1) == f
        assert fam.fiber(0) == rep.special_fiber == limit_poly(lam, f)
        assert all(isinstance(e, int) and e >= 0 for e in fam.strata)
        assert 0 in fam.strata
        assert rep.trivial == (len(weight_spectrum(lam, f)) == 1)
        if not lam.is_zero:
            assert rep.normalized_trace_zero_generator == lam.primitive_integer()


def test_from_destabilizer_is_the_floor_normalized_field():
    # from_destabilizer hands d*lambda to build_degeneration, whose floor
    # step alone makes the generator d*lambda - mu*ones, of floor zero.
    rng = Random(1709)
    for _ in range(200):
        n = rng.randint(2, 6)
        f = random_hpoly(rng, n, rng.randint(2, 4), 10)
        lam = random_trace_zero_ints(rng, n)
        gen = lam.scaled(f.degree).shifted(-mu(lam, f))
        want = build_degeneration(f, LinearVectorField.diagonal(gen.values))
        rep = from_destabilizer(f, lam)
        assert rep == want and rep.to_json() == want.to_json()
        assert rep.family.generator == gen and mu(gen, f) == 0


def _fiber_terms(family, s):
    """G(s) monomial by monomial: the sum over strata of coefficient * s^e."""
    monos = {m for part in family.strata.values() for m in part.terms}
    terms = {
        m: sum(part.terms.get(m, 0) * Fraction(s) ** e for e, part in family.strata.items())
        for m in monos
    }
    return {m: c for m, c in terms.items() if c}


def test_fiber_sums_every_stratum_term():
    params = (0, 1, 2, Fraction(1, 3), -1, Fraction(-5, 2))
    rng = Random(1517)
    for _ in range(40):
        n = rng.randint(3, 5)
        f = random_hpoly(rng, n, rng.randint(2, 4), 8)
        fam = from_destabilizer(f, random_trace_zero_ints(rng, n)).family
        for s in params:
            assert fam.fiber(s).terms == _fiber_terms(fam, s)
    # two strata share z0^2, so their coefficients add (and cancel at s = -1)
    a, b = hp("z0^2 + z1^2", 2), hp("z0^2 - z0*z1", 2)
    base = hp("2*z0^2 + z1^2 - z0*z1", 2)
    fam = DegenerationFamily(base, WeightVector.parse("0,1"), 1, {0: a, 1: b})
    for s in params:
        assert fam.fiber(s).terms == _fiber_terms(fam, s)
    assert fam.fiber(1) == fam.base_poly
    assert fam.fiber(-1) == hp("z1^2 + z0*z1", 2)
    assert fam.fiber(0) == a


def test_jordan_block_fixing_polynomial_degenerates():
    # the nilpotent part moves z0 only, and f does not involve z0, so the
    # split passes and the semisimple part drives the family
    f = hp("z1^3 + z2^3 + z3^3", 4)
    v = LinearVectorField(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -2]]
    )
    rep = build_degeneration(f, v)
    assert rep.basis_change is not None
    assert sorted(rep.family.strata) == [0, 6, 9]
    assert rep.special_fiber == hp("z3^3", 4)
    assert not rep.trivial
    assert rep.normalized_trace_zero_generator == WeightVector.parse("1,1,0,-2")
    assert rep.futaki.value == 16


def test_swap_field_goes_through_an_eigenbasis():
    f = hp(FERMAT, 4)
    v = LinearVectorField(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    rep = build_degeneration(f, v)
    assert rep.basis_change is not None
    assert rep.family.base_poly == substitute_linear(f, rep.basis_change)
    assert sorted(rep.family.strata) == [0, 1, 4]
    assert rep.family.strata[0] == hp("6*z0*z3^2", 4)
    assert rep.family.strata[1] == hp("z1^3 + z2^3", 4)
    assert rep.family.strata[4] == hp("2*z0^3", 4)
    assert rep.normalized_trace_zero_generator == WeightVector.parse("1,0,0,-1")
    assert rep.futaki.value == Fraction(8, 3)


def _field_case(rng: Random, i: int):
    """(f, v, kind) for a seeded non-diagonal field v = P^-1 C P and f = g(Pz),
    so v acts on f as C acts on g.  C is diagonal with small rational
    eigenvalues, denominators included, the second above the first (so C is
    never scalar) and the last equal to the first on odd cases from n = 3.
    Every third case adds z1 d/dz0 on a repeated eigenvalue and g does not
    involve z0, so v's nilpotent part fixes f; every fifth other case has a
    companion block of x^2 - 2 instead."""
    n = 2 + i % 4
    eigs = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
    eigs[1] = eigs[0] + Fraction(1, rng.choice((1, 2)))
    if i % 2 and n > 2:
        eigs[-1] = eigs[0]
    core = [[eigs[r] if r == c else Fraction(0) for c in range(n)] for r in range(n)]
    kind, used = "semisimple", range(n)
    if i % 3 == 0:
        kind, used = "nilpotent", range(1, n)
        core[1][1], core[0][1] = core[0][0], Fraction(1)
    elif i % 5 == 0:
        kind = "irrational"
        core[0][0], core[0][1], core[1][0], core[1][1] = 0, 1, 2, 0
    terms = {}
    for _ in range(4):
        mono = [0] * n
        for _ in range(3):
            mono[rng.choice(used)] += 1
        terms[tuple(mono)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5))
    while True:
        p = random_invertible(rng, n, 1)
        v = LinearVectorField(conjugate(p, core))
        if not v.is_diagonal:
            return substitute_linear(HPoly(n, terms), p), v, kind


def test_scaled_field_gives_the_same_family():
    # c*v has v's eigenbasis and c times its eigenvalues, so the rewritten
    # form, the basis and the special fibre stay, and the generator scales.
    rng = Random(1968)
    seen = set()
    for i in range(100):
        f, v, kind = _field_case(rng, i)
        scaled = {c: LinearVectorField([[c * x for x in row] for row in v.rows])
                  for c in (Fraction(2), Fraction(1, 3), Fraction(6))}
        try:
            rep = build_degeneration(f, v)
        except DegenerationError as exc:
            seen.add(f"{kind} refused")
            for w in scaled.values():
                with pytest.raises(DegenerationError) as caught:
                    build_degeneration(f, w)
                assert str(caught.value) == str(exc)
            continue
        seen.add(kind)
        if any(x.denominator != 1 for row in v.rows for x in row):
            seen.add("denominators")
        if len(set(rep.family.generator)) < f.n_vars:
            seen.add("repeated eigenvalue")
        for c, w in scaled.items():
            got = build_degeneration(f, w)
            assert got.basis_change == rep.basis_change
            assert got.family.base_poly == rep.family.base_poly
            assert got.special_fiber == rep.special_fiber
            assert got.family.generator == rep.family.generator.scaled(c)
    assert seen >= {"semisimple", "nilpotent", "irrational refused", "denominators",
                    "repeated eigenvalue"}


def test_each_eigenbasis_gets_one_rank_test(monkeypatch, capsys):
    # The certificate's rank test is the only one: the substitution trusts
    # the certified basis.  A basis from the command line keeps its own.
    sizes = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: sizes.append(len(rows)) or rank(rows))
    assert build_degeneration(hp(FERMAT, 4), LinearVectorField(SWAP)).basis_change is not None
    jordan = LinearVectorField([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -2]])
    assert build_degeneration(hp("z1^3 + z2^3 + z3^3", 4), jordan).basis_change is not None
    assert sizes == [4, 4]
    singular = "[[1,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]"
    assert main(["stability", "-f", FERMAT, "--basis", singular]) == 2
    assert capsys.readouterr().err == "error: matrix is singular\n"


SWAP = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def _repeat_first(basis):
    return [basis[0]] * len(basis)


def _feed_wrong_eigenspaces(monkeypatch, wrong):
    """Make every eigenspace kernel return wrong(its basis), with its
    denominator kept."""
    real = linalg.nullspace

    def kernel(rows):
        basis, den = real(rows)
        return wrong(basis), den

    monkeypatch.setattr(linalg, "nullspace", kernel)


@pytest.mark.parametrize(
    "wrong, message",
    [
        # e2 added to each one-dimensional eigenspace's vector: the basis
        # keeps rank 4 and the dimension count, but A*P != P*D
        (lambda b: [tuple(x + (k == 2) for k, x in enumerate(b[0]))] if len(b) == 1 else b,
         "must diagonalize"),
        # the kernel of A repeats its first vector: A*P = P*D and the
        # dimensions still sum to 4, but P is singular
        (_repeat_first, "must have full rank"),
        # a repeated vector on top: five columns of rank 4 with A*P = P*D
        (lambda b: b + b[:1] if len(b) == 2 else b, "must sum to the ambient dimension"),
    ],
    ids=["not-an-eigenvector", "duplicated-column", "extra-column"],
)
def test_a_wrong_eigenspace_kernel_ends_in_runtime_error(monkeypatch, wrong, message):
    _feed_wrong_eigenspaces(monkeypatch, wrong)
    with pytest.raises(RuntimeError, match=message):
        build_degeneration(hp(FERMAT, 4), LinearVectorField(SWAP))


def test_a_singular_eigenbasis_is_an_internal_error(monkeypatch, capsys):
    _feed_wrong_eigenspaces(monkeypatch, _repeat_first)
    assert main(["degenerate", "-f", FERMAT, "--field", json.dumps(SWAP)]) == 6
    assert capsys.readouterr().err == "internal error: eigenbasis must have full rank\n"


@pytest.mark.parametrize(
    "psf",
    [(-1, 0, 1), (0, 2, -3, 1)],  # x^2 - 1, x(x - 1)(x - 2)
    ids=["missing-root", "wrong-root"],
)
def test_a_wrong_squarefree_factor_ends_in_runtime_error(monkeypatch, psf):
    # The swap field's factor is x^3 - x; either wrong one leaves fewer than
    # four eigenvectors.
    real = degeneration.rational_diagonalize
    monkeypatch.setattr(degeneration, "rational_diagonalize", lambda b, _, den: real(b, psf, den))
    with pytest.raises(RuntimeError, match="must sum to the ambient dimension"):
        build_degeneration(hp(FERMAT, 4), LinearVectorField(SWAP))


def _non_semisimple_case(rng: Random, i: int):
    """(f, v, irrational) for a seeded non-semisimple field v = P^-1 C P and
    f = g(Pz), so v acts on f as C acts on g.  C is diagonal with small
    rationals, denominators included, except for one block: on even i a
    Jordan block of size 2 or 3 on a rational eigenvalue, on odd i the block
    [[A, I], [0, A]] for the companion matrix A of x^2 - c, c not a square,
    whose eigenvalues are irrational.  On every other pair of cases g avoids
    the variables the block's nilpotent part differentiates, so it fixes f."""
    irrational, fixes = i % 2 == 1, i // 2 % 2 == 1
    n = rng.randint(4, 6) if irrational else rng.randint(2, 5)
    eigs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
    core = [[eigs[r] if r == c else Fraction(0) for c in range(n)] for r in range(n)]
    if irrational:
        c = rng.choice((2, 3, 5, 6, 7))
        for r in range(4):
            core[r][r] = Fraction(0)
        core[0][1] = core[2][3] = core[0][2] = core[1][3] = Fraction(1)
        core[1][0] = core[3][2] = Fraction(c)
        moved = (0, 1)  # the nilpotent part is z2 d/dz0 + z3 d/dz1
    else:
        size = min(n, rng.choice((2, 3)))
        for k in range(1, size):
            core[k][k], core[k - 1][k] = core[0][0], Fraction(1)
        moved = range(size - 1)  # z_(k+1) d/dz_k inside the block
    used = [k for k in range(n) if not (fixes and k in moved)]
    terms = {}
    for _ in range(4):
        mono = [0] * n
        for _ in range(3):
            mono[rng.choice(used)] += 1
        terms[tuple(mono)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.choice((1, 2)))
    p = random_invertible(rng, n, 1)
    return substitute_linear(HPoly(n, terms), p), LinearVectorField(conjugate(p, core)), irrational


def _answer(f, v):
    try:
        return build_degeneration(f, v).to_json()
    except DegenerationError as exc:
        return str(exc)


def _fraction_newton(b, q):
    """chevalley_split's (M, N, e) from the Fraction Newton of the helpers."""
    s, _ = fraction_chevalley_split(b, q)
    m, e = linalg.integer_matrix(s)
    return m, [[e * x - y for x, y in zip(rb, rm)] for rb, rm in zip(b, m)], e


def test_integer_split_matches_the_fraction_newton():
    # Non-semisimple fields of the kinds the benchmark pool lacks: Jordan
    # blocks on rational and on irrational eigenvalues, with nilpotent parts
    # that fix f and ones that move it.  The integer split is the Fraction
    # Newton's.  A nilpotent part that moves f is refused as such, before
    # irrational eigenvalues are; otherwise v gives the answer or refusal of
    # its semisimple part, which takes the path without Newton.
    rng = Random(1971)
    seen = set()
    for i in range(80):
        f, v, irrational = _non_semisimple_case(rng, i)
        s, nil = fraction_chevalley_split(v.rows, squarefree_part(rational_charpoly(v.rows)))
        assert integer_split(v) == (s, nil)
        b, _ = linalg.integer_matrix(v.rows)
        q = squarefree_factor(b)
        split = chevalley_split(b, q)
        assert split == _fraction_newton(b, q)
        got = _answer(f, v)
        moves = apply_derivation(LinearVectorField(nil), f) is not None
        if moves:
            assert got == "the nilpotent part of the field acts nontrivially on the polynomial"
        else:
            want = _answer(f, LinearVectorField(s))
            if isinstance(want, dict) and want["basis"] is None:  # s is diagonal
                got = dict(got, basis=None)
            assert got == want
            assert isinstance(got, str) == irrational
        seen.add((irrational, moves))
        if split[2] > 1:
            seen.add("denominator")
        if q[-1] < 0:
            seen.add("leading -1")
    want = {(False, False), (False, True), (True, False), (True, True), "denominator", "leading -1"}
    assert seen == want


def test_nilpotent_part_moving_f_is_rejected():
    f = hp("z0*z1^2 + z2^2*z3", 4)
    v = LinearVectorField(
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    with pytest.raises(DegenerationError, match="nilpotent"):
        build_degeneration(f, v)


def test_irrational_eigenvalues_are_rejected():
    f = hp(FERMAT, 4)
    v = LinearVectorField(
        [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    with pytest.raises(DegenerationError, match="irrational"):
        build_degeneration(f, v)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="variable"):
        build_degeneration(hp("z0^2 + z1^2", 3), LinearVectorField.diagonal([1, -1]))


def test_report_json_golden():
    rep = from_destabilizer(hp(UNSTABLE_CUBIC, 4), WeightVector.parse("-7,5,1,1"))
    assert rep.to_json() == {
        "f": "z0*z1^2 + z1*z2*z3 + z2^2*z3 - z2*z3^2",
        "generator": ["-24", "12", "0", "0"],
        "s_rescale": 1,
        "strata": {"0": "z0*z1^2 + z2^2*z3 - z2*z3^2", "12": "z1*z2*z3"},
        "special_fiber": "z0*z1^2 + z2^2*z3 - z2*z3^2",
        "trivial": False,
        "futaki": "-8",
        "normalized_generator": [-7, 5, 1, 1],
        "basis": None,
    }


def _box_count(n_vars, bound):
    """Independent count of nonzero trace-zero integer vectors in the box."""
    from itertools import product

    total = 0
    for head in product(range(-bound, bound + 1), repeat=n_vars - 1):
        tail = -sum(head)
        if abs(tail) > bound:
            continue
        if any(head) or tail:
            total += 1
    return total


def test_crosscheck_fermat_agrees():
    rep = theorem_crosscheck(hp(FERMAT, 4), bound=2)
    assert rep.agreement and rep.weakly_stable and rep.box_consistent
    assert rep.violations == ()
    assert rep.enumerated == _box_count(4, 2)
    assert rep.bound == 2


def test_crosscheck_unstable_cubic_sees_violations():
    rep = theorem_crosscheck(hp(UNSTABLE_CUBIC, 4), bound=3)
    assert rep.agreement
    assert not rep.weakly_stable and not rep.box_consistent
    kinds = {v.kind for v in rep.violations}
    assert "negative_futaki" in kinds and "zero_futaki_nontrivial" in kinds
    hit = [v for v in rep.violations if tuple(v.generator) == (-3, 2, 1, 0)]
    assert hit and hit[0].kind == "negative_futaki" and hit[0].futaki == Fraction(-8, 3)
    hit0 = [v for v in rep.violations if tuple(v.generator) == (-1, 1, 0, 0)]
    assert hit0 and hit0[0].kind == "zero_futaki_nontrivial" and not hit0[0].trivial


def test_crosscheck_triangle_cubic():
    # reducible cubic with a single support point: every family is trivial,
    # yet the invariant takes both signs, so violations of both trivial kinds
    # appear and match the LP verdict (not weakly stable)
    rep = theorem_crosscheck(hp("z0*z1*z2", 4), bound=3)
    assert rep.agreement and not rep.weakly_stable
    hit = [v for v in rep.violations if tuple(v.generator) == (1, 1, 1, -3)]
    assert hit and hit[0].futaki == -8 and hit[0].kind == "negative_futaki"
    assert hit[0].trivial
    assert "trivial_positive_futaki" in {v.kind for v in rep.violations}


def test_crosscheck_requires_fano_window():
    with pytest.raises(ValueError, match="Fano"):
        theorem_crosscheck(hp("z0*z1*z2", 3), bound=2)
    with pytest.raises(ValueError, match="Fano"):
        theorem_crosscheck(hp("z0^4 + z1^4 + z2^4 + z3^4", 4), bound=2)


def test_crosscheck_random_cubic_surfaces_always_agree():
    rng = Random(702)
    seen_unstable = 0
    for _ in range(25):
        f = random_hpoly(rng, 4, 3, 8)
        rep = theorem_crosscheck(f, bound=3)
        assert rep.agreement, f"disagreement on {f}"
        if not rep.weakly_stable:
            seen_unstable += 1
    assert seen_unstable > 3


def test_crosscheck_disagreement_when_box_is_too_small():
    # every bound-1 generator drops some support weight below zero, so the
    # box sees no violation, while the LP proves instability with the strict
    # witness (3,3,-1,-5); growing the bound restores agreement
    f = hp("z0^3 + z0^2*z3 + z0*z2^2 + z1^2*z3", 4)
    small = theorem_crosscheck(f, bound=1)
    assert not small.weakly_stable
    assert small.box_consistent and not small.agreement
    assert small.violations == () and small.enumerated == 18
    grown = theorem_crosscheck(f, bound=2)
    assert grown.agreement and not grown.box_consistent
    assert any(tuple(v.generator) == (1, 1, 0, -2) for v in grown.violations)


def test_crosscheck_json_shape():
    rep = theorem_crosscheck(hp("z0*z1*z2", 4), bound=1)
    js = rep.to_json()
    assert set(js) == {"agreement", "weakly_stable", "class", "enumerated", "bound", "violations"}
    assert js["violations"] and set(js["violations"][0]) == {"lambda", "futaki", "trivial", "kind"}


def _crosscheck_reference(f, bound):
    """The crosscheck with one full degeneration family per box generator."""
    verdict = stability.classify_torus(f)
    violations = []
    enumerated = 0
    for lam in boxscan.iter_trace_zero_box(f.n_vars, bound):
        enumerated += 1
        rep = from_destabilizer(f, WeightVector.from_values(lam))
        value = rep.futaki.value
        if value < 0:
            kind = "negative_futaki"
        elif value == 0 and not rep.trivial:
            kind = "zero_futaki_nontrivial"
        elif value > 0 and rep.trivial:
            kind = "trivial_positive_futaki"
        else:
            continue
        violation = CrosscheckViolation(lam, value, rep.trivial)
        assert violation.kind == kind
        violations.append(violation)
    return CrosscheckReport(verdict, enumerated, bound, tuple(violations))


@pytest.mark.parametrize(
    "text, n_vars, bound",
    [
        (UNSTABLE_CUBIC, 4, 4),
        ("z0*z1*z2", 4, 3),
        ("z0^3*z1 + z1^2*z2^2 + z2*z3^3 - z0*z1*z3*z4", 5, 2),
    ],
)
def test_crosscheck_matches_family_per_generator(text, n_vars, bound):
    f = hp(text, n_vars)
    assert theorem_crosscheck(f, bound).to_json() == _crosscheck_reference(f, bound).to_json()


def test_crosscheck_matches_family_per_generator_on_random_cubic_surfaces():
    rng = Random(703)
    for _ in range(20):
        f = random_hpoly(rng, 4, 3, 8)
        got = theorem_crosscheck(f, 3).to_json()
        assert got == _crosscheck_reference(f, 3).to_json(), f"mismatch on {f}"


def test_crosscheck_reports_invariant_of_primitive_generator():
    # (-3,-3,3,3) = 3 * (-1,-1,1,1): the family reports the invariant of the
    # primitive generator, kappa = -3/3, not of the box vector itself
    rep = theorem_crosscheck(hp("z0*z1*z2", 4), bound=3)
    hit = [v for v in rep.violations if tuple(v.generator) == (-3, -3, 3, 3)]
    assert hit and hit[0].kind == "trivial_positive_futaki"
    assert hit[0].trivial and hit[0].futaki == Fraction(8, 3)


def test_crosscheck_audit_catches_a_wrong_family_invariant(monkeypatch):
    def wrong(lmbda, f):
        return FutakiValue(f.n_vars - 1, f.degree, Fraction(12345))

    monkeypatch.setattr(degeneration, "futaki_of_limit", wrong)
    with pytest.raises(RuntimeError, match="predict"):
        theorem_crosscheck(hp(UNSTABLE_CUBIC, 4), bound=2)
