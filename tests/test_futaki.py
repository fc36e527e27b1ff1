"""Futaki invariant: closed form, window validation, sign behaviour."""

from fractions import Fraction
from random import Random

import pytest

from gitstab.futaki import check_fano_range, futaki_from_kappa, futaki_of_limit
from gitstab.poly import HPoly
from gitstab.vfield import LinearVectorField, invariance, substitute_linear
from gitstab.weights import WeightVector, limit_poly, mu
from helpers import (
    conjugate,
    hp,
    is_nilpotent,
    random_coeff,
    random_hpoly,
    random_invertible,
    random_trace_zero_ints,
)


def test_golden_values():
    fv = futaki_from_kappa(3, 3, 3)
    assert fv.value == -8
    assert fv.to_json() == {"n": 3, "d": 3, "kappa": "3", "futaki": "-8"}
    assert futaki_from_kappa(4, 3, 1).value == -5
    assert futaki_from_kappa(3, 2, Fraction(-2)).value == Fraction(16, 3)


def test_zero_kappa_vanishes_in_every_dimension():
    for n in range(2, 9):
        for d in range(2, n + 1):
            assert futaki_from_kappa(n, d, 0).value == 0


def test_window_validation():
    for n, d in ((3, 1), (3, 4), (3, 0), (2, 3), (1, 1)):
        with pytest.raises(ValueError):
            check_fano_range(n, d)
    check_fano_range(3, 3)
    check_fano_range(7, 2)


def test_futaki_of_limit_golden():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    lam = WeightVector.parse("-7,5,1,1")
    fv = futaki_of_limit(lam, f)
    assert fv.kappa == 3 and fv.value == -8 and (fv.n, fv.d) == (3, 3)


def test_futaki_of_limit_requires_trace_zero():
    with pytest.raises(ValueError):
        futaki_of_limit(WeightVector.parse("1,0,0,0"), hp("z0^3 + z1^3 + z2^3 + z3^3", 4))


def test_kappa_equals_eigenvalue_of_limit():
    # the limit is always an eigenvector of the diagonal field, with
    # eigenvalue mu; futaki_of_limit must match that eigenvalue exactly
    rng = Random(606)
    for _ in range(120):
        n = rng.randint(3, 4)
        d = rng.randint(2, n - 1)  # inside the Fano window for P^{n-1}
        f = random_hpoly(rng, n, d, 8)
        lam = random_trace_zero_ints(rng, n)
        lim = limit_poly(lam, f)
        kappa = invariance(LinearVectorField.diagonal(lam.values), lim)
        assert kappa is not None
        fv = futaki_of_limit(lam, f)
        assert fv.kappa == kappa == mu(lam, f)


def test_sign_opposite_to_mu():
    rng = Random(607)
    signs = {-1: 0, 0: 0, 1: 0}
    for _ in range(200):
        n = rng.randint(3, 4)
        d = rng.randint(2, n - 1)
        f = random_hpoly(rng, n, d, 8)
        lam = random_trace_zero_ints(rng, n)
        fv = futaki_of_limit(lam, f)
        m = mu(lam, f)
        if m > 0:
            assert fv.value < 0
            signs[1] += 1
        elif m == 0:
            assert fv.value == 0
            signs[0] += 1
        else:
            assert fv.value > 0
            signs[-1] += 1
    assert min(signs.values()) > 5, f"sign coverage too thin: {signs}"


def _poly_avoiding_first_variable(rng, n_vars, degree, max_terms):
    """Random form in z1..z_{n_vars-1} only, viewed inside n_vars variables."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * n_vars
        for _ in range(degree):
            mono[rng.randrange(1, n_vars)] += 1
        terms[tuple(mono)] = random_coeff(rng)
    return HPoly(n_vars, terms)


def test_nilpotent_invariant_fields_give_zero():
    # a nilpotent field fixing f projectively must fix it on the nose, so
    # kappa = 0 and the invariant vanishes
    rng = Random(608)
    checked = 0
    for _ in range(110):
        n = rng.randint(3, 4)
        d = rng.randint(2, n - 1)
        f = _poly_avoiding_first_variable(rng, n, d, 6)
        nil_rows = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n):
            nil_rows[0][j] = Fraction(rng.randint(-2, 2))
        p = random_invertible(rng, n, 2)
        v = LinearVectorField(conjugate(p, nil_rows))
        assert is_nilpotent(v.rows)
        g = substitute_linear(f, p)
        kappa = invariance(v, g)
        assert kappa is not None and kappa == 0
        assert futaki_from_kappa(n - 1, d, kappa).value == 0
        checked += 1
    assert checked >= 100
