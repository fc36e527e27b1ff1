"""Polynomial construction, parsing and printing."""

import re
from fractions import Fraction
from random import Random

import pytest

from gitstab.poly import (
    HPoly,
    PolyParseError,
    infer_n_vars,
    parse_poly,
    print_poly,
    support,
)
from helpers import random_hpoly


def test_parse_basic():
    f = parse_poly("z0*z1^2 + z2*z3^2 - z2^2*z3", 4)
    assert f.n_vars == 4
    assert f.degree == 3
    assert f.terms == {
        (1, 2, 0, 0): Fraction(1),
        (0, 0, 1, 2): Fraction(1),
        (0, 0, 2, 1): Fraction(-1),
    }


def test_parse_coefficients_and_whitespace():
    f = parse_poly("  3/2 * z0^2*z1 -  z1^3+2*z0*z1 * z2 ", 3)
    assert f.terms == {
        (2, 1, 0): Fraction(3, 2),
        (0, 3, 0): Fraction(-1),
        (1, 1, 1): Fraction(2),
    }


def test_parse_repeated_variable_accumulates_exponent():
    f = parse_poly("z0*z0*z1^2", 3)
    assert f.terms == {(2, 2, 0): Fraction(1)}


def test_parse_cancellation_within_input():
    f = parse_poly("z0^2 + z1^2 - z0^2", 2)
    assert f.terms == {(0, 2): Fraction(1)}


def test_parse_leading_sign():
    f = parse_poly("- 3/2*z0^3 + z1^3", 2)
    assert f.terms[(3, 0)] == Fraction(-3, 2)
    assert parse_poly("+z0^2 + z1^2", 2).terms == {(2, 0): 1, (0, 2): 1}


def _error_case(text, message, position, short=None):
    # A case's id is its text and a short form of its message, as it has always been.
    return pytest.param(text, message, position, id=f"{text}-{short or message}")


@pytest.mark.parametrize(
    "text,message,position",
    [
        _error_case("", "empty input", 0),
        _error_case("z0^2 + ", "expected a variable like z0", 7, "expected a variable"),
        _error_case("z0^2 z1", "expected '+' or '-' between terms", 5, "expected '+' or '-'"),
        _error_case("3z0", "expected '*' between coefficient and variables", 1, "expected '*'"),
        _error_case("z0^0", "exponent must be positive", 3),
        _error_case("z0^2 * 3", "expected a variable like z0", 7, "expected a variable"),
        _error_case("w0^2", "unexpected character 'w'", 0, "unexpected character"),
        _error_case("z9^2", "variable z9 out of range for n_vars=4", 0, "out of range"),
        _error_case("z0^2 + z1", "inhomogeneous polynomial: degrees [1, 2]", 0, "inhomogeneous"),
        _error_case("z0^2 - z0^2", "polynomial cancels to zero", 0, "cancels to zero"),
        _error_case("1/0*z0", "denominator must be positive", 2),
        _error_case("1/*z0", "expected denominator after '/'", 2),
        _error_case("z0^*z1", "expected an integer exponent after '^'", 3),
        # a sign separates terms; it never starts a coefficient
        _error_case("z0^2 + -3*z1^2", "expected a variable like z0", 7),
    ],
)
def test_parse_errors(text, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 4)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_parse_error_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("z0^2 + w1^2", 3)
    assert err.value.position == 7


def test_parse_requires_two_variables():
    with pytest.raises(ValueError):
        parse_poly("z0^2", 1)


@pytest.mark.parametrize(
    "text,n_vars",
    [("", 2), ("3*w^2", 2), ("z0^2", 2), ("z12", 13), ("z1 + @z4*zz2", 5), ("2z3 z007", 8)],
)
def test_infer_n_vars(text, n_vars):
    # one more than the highest zK index, at least 2; a stray character is skipped
    assert infer_n_vars(text) == n_vars


def test_print_golden():
    f = parse_poly("z2*z3^2+z0*z1^2-z2^2*z3", 4)
    assert print_poly(f) == "z0*z1^2 - z2^2*z3 + z2*z3^2"
    g = HPoly(2, {(3, 0): Fraction(-3, 2), (0, 3): Fraction(1)})
    assert print_poly(g) == "- 3/2*z0^3 + z1^3"
    h = HPoly(3, {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1)})
    assert print_poly(h) == "2*z0*z1 - z2^2"


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        HPoly(3, {})
    with pytest.raises(ValueError):
        HPoly(3, {(1, 0, 0): Fraction(0)})
    with pytest.raises(ValueError):
        HPoly(3, {(1, 0, 0): 1, (2, 0, 0): 1})
    with pytest.raises(ValueError):
        HPoly(3, {(-1, 2, 0): 1})
    with pytest.raises(ValueError):
        HPoly(3, {(1, 0): 1})


def test_roundtrip_random():
    rng = Random(20240)
    for _ in range(1000):
        n = rng.randint(2, 5)
        f = random_hpoly(rng, n, rng.randint(1, 6), 8, den_bound=4)
        assert parse_poly(print_poly(f), n) == f


def test_support_and_euler():
    f = parse_poly("z0*z1^2 + z2^3", 3)
    assert support(f) == {(1, 2, 0), (0, 0, 3)}


def test_constructor_keeps_integer_tuple_keys():
    mono = (2, 1, 0)
    f = HPoly(3, {mono: 1})
    assert next(iter(f.terms)) is mono
    # other key shapes are still normalized to tuples of ints
    g = HPoly(3, {(Fraction(2), 1, 0): 1})
    assert list(g.terms) == [(2, 1, 0)] and all(type(e) is int for e in next(iter(g.terms)))
    with pytest.raises(ValueError):
        HPoly(3, {(3, -1, 1): 1})
    # non-integral exponents are refused, not truncated, and exponents that
    # int() cannot read are refused the same way, naming the monomial
    for mono in [
        (1.5, 0.5), (Fraction(3, 2), Fraction(1, 2)), ("2", "1"),
        (None, 1), ("a", 1), (float("inf"), 1),
    ]:
        message = f"non-integral exponent in monomial {mono!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HPoly(2, {mono: 1})
    with pytest.raises(ValueError):
        HPoly(3, {(2, 1): 1})
