"""Weight vectors, mu, spectra and limit polynomials."""

from fractions import Fraction
from random import Random

import pytest

from gitstab.poly import parse_poly
from gitstab.weights import WeightVector, limit_poly, mu, weight_spectrum
from helpers import hp, random_hpoly, random_weights


def test_parse_weights():
    lam = WeightVector.parse("-7,5,1,1")
    assert tuple(lam) == (-7, 5, 1, 1)
    assert WeightVector.parse("-1/2, 1/2, 0, 0")[0] == Fraction(-1, 2)
    for bad in ("", "1,,2", "1;2", "a,b"):
        with pytest.raises(ValueError):
            WeightVector.parse(bad)


def test_vector_helpers():
    lam = WeightVector.parse("-24,12,0,0")
    assert lam.trace == -12
    assert tuple(lam.trace_zero()) == (-21, 15, 3, 3)
    assert tuple(lam.trace_zero().primitive_integer()) == (-7, 5, 1, 1)
    assert tuple(lam.scaled(Fraction(1, 2))) == (-12, 6, 0, 0)
    assert tuple(lam.shifted(1)) == (-23, 13, 1, 1)
    assert WeightVector.from_values([0, 0, 0]).is_zero
    assert not lam.is_zero
    with pytest.raises(ValueError):
        WeightVector.parse("1/2,0").as_ints()


def test_mu_golden():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    lam = WeightVector.parse("-7,5,1,1")
    assert mu(lam, f) == 3
    assert mu(WeightVector.from_values([0] * 4), f) == 0


def test_mu_dimension_mismatch():
    with pytest.raises(ValueError):
        mu(WeightVector.parse("1,-1"), hp("z0*z1*z2", 3))


def test_spectrum_golden():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    lam = WeightVector.parse("-7,5,1,1")
    spec = weight_spectrum(lam, f)
    assert spec == {
        Fraction(3): hp("z0*z1^2 + z2^2*z3 - z2*z3^2", 4),
        Fraction(7): hp("z1*z2*z3", 4),
    }


def test_spectrum_partitions():
    rng = Random(101)
    for _ in range(100):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 5), 8, den_bound=3)
        lam = random_weights(rng, n, den_bound=3)
        spec = weight_spectrum(lam, f)
        # the strata split f's terms: disjoint supports whose union is f
        assert sum(len(part.terms) for part in spec.values()) == len(f.terms)
        assert {m: c for part in spec.values() for m, c in part.terms.items()} == f.terms
        assert min(spec) == mu(lam, f)


def test_limit_golden():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    lam = WeightVector.parse("-7,5,1,1")
    assert limit_poly(lam, f) == hp("z0*z1^2 + z2^2*z3 - z2*z3^2", 4)


def test_mu_affine_laws_and_limit_idempotence():
    rng = Random(102)
    for _ in range(120):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(1, 5), 8, den_bound=2)
        lam = random_weights(rng, n, den_bound=2)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        # shift by c * ones adds c*degree; positive scaling scales
        assert mu(lam.shifted(c), f) == mu(lam, f) + c * f.degree
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert mu(lam.scaled(k), f) == k * mu(lam, f)
        lim = limit_poly(lam, f)
        assert limit_poly(lam, lim) == lim
        assert mu(lam, lim) == mu(lam, f)


def test_spectrum_matches_the_fraction_dot():
    # weight_spectrum's integer dots against WeightVector.dot, on weights
    # with denominators up to 2**61 - 1: the same keys, first-occurrence
    # order and strata, and limit_poly is the stratum of the least key.
    rng = Random(103)
    non_integral = 0
    for case in range(300):
        n = 1 + case % 6
        f = random_hpoly(rng, n, rng.randint(1, 5), 10, den_bound=3)
        den = rng.choice(((1,), (2, 3), (1, 6, 2**61 - 1)))
        lam = WeightVector.from_values(
            Fraction(rng.randint(-9, 9), rng.choice(den)) for _ in range(n)
        )
        want: dict = {}
        for mono, c in f.terms.items():
            want.setdefault(lam.dot(mono), {})[mono] = c
        got = weight_spectrum(lam, f)
        assert list(got) == list(want)
        assert all(type(w) is Fraction for w in got)
        assert {w: part.terms for w, part in got.items()} == want
        assert limit_poly(lam, f).terms == want[min(want)]
        non_integral += not lam.is_integral
    assert non_integral >= 150
