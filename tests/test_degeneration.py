"""Degeneration families, their invariants, and the equivalence crosscheck."""

from fractions import Fraction
from random import Random

import pytest

from gitstab import boxscan, degeneration, stability
from gitstab.degeneration import (
    CrosscheckReport,
    CrosscheckViolation,
    DegenerationError,
    build_degeneration,
    from_destabilizer,
    theorem_crosscheck,
)
from gitstab.futaki import FutakiValue
from gitstab.vfield import LinearVectorField, substitute_linear
from gitstab.weights import WeightVector, limit_poly, weight_spectrum
from helpers import hp, random_hpoly, random_trace_zero_ints

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
        violations.append(CrosscheckViolation(lam, value, rep.trivial, kind))
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
        return FutakiValue(Fraction(12345), f.n_vars - 1, f.degree, Fraction(0))

    monkeypatch.setattr(degeneration, "futaki_of_limit", wrong)
    with pytest.raises(RuntimeError, match="predict"):
        theorem_crosscheck(hp(UNSTABLE_CUBIC, 4), bound=2)
