"""Sparse homogeneous polynomials over the rationals.

A polynomial in variables z0..z{n-1} is stored as a map from exponent
multi-indices (tuples of non-negative ints) to nonzero Fraction coefficients.
Only homogeneous nonzero polynomials are representable.  `HPoly` owns term
validation, which lets every downstream computation assume a single total
degree: it refuses negative or non-integral exponents and inhomogeneous
terms, and drops zero coefficients, so code that builds a term map (the
parser, `_mul_maps`) just accumulates and may leave cancelled terms at 0.
The parser and `vfield.substitute_linear` key their terms by shared
monomial tuples (`shared_monomial`), so equal monomials are one object.

The text format is deliberately small:

    poly   := [sign] term (sign term)*
    sign   := '+' | '-'
    term   := [coeff '*'] factor ('*' factor)*
    factor := var ['^' posint]
    var    := 'z' index
    coeff  := int ['/' posint]

Whitespace is insignificant.  `parse_poly` and `print_poly` are mutually
inverse on canonical output: printing orders terms by descending lexicographic
exponent (z0 heaviest), writes signs as separators, and omits coefficients of
magnitude one.

>>> print_poly(parse_poly("z2*z3^2 + z0*z1^2 - z2^2*z3", 4))
'z0*z1^2 - z2^2*z3 + z2*z3^2'
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from operator import add

from .linalg import frac

Monomial = tuple  # tuple[int, ...]

# One shared tuple per monomial for the term maps built here and by
# `vfield.substitute_linear`: parsed forms and forms rewritten in another
# basis (and their strata and limits, which reuse the keys) hold one copy of
# each monomial however many of them are kept.  The table stops taking new
# monomials at _SHARED_MAX entries.
_SHARED: dict = {}
_SHARED_MAX = 1 << 12


def shared_monomial(mono: Monomial) -> Monomial:
    """The table's tuple equal to mono; mono is entered while there is room."""
    if len(_SHARED) < _SHARED_MAX:
        return _SHARED.setdefault(mono, mono)
    return _SHARED.get(mono, mono)


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HPoly:
    """Immutable-by-convention homogeneous polynomial.

    Attributes:
        n_vars: number of ambient variables.
        degree: common total degree of every monomial.
        terms:  dict mapping Monomial -> nonzero Fraction.  Treat as
                read-only; all operations return fresh objects.
    """

    __slots__ = ("n_vars", "degree", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Monomial, Fraction]):
        if n_vars < 1:
            raise ValueError(f"need at least one variable, got n_vars={n_vars}")
        clean = {}
        degree = None
        for mono, coeff in terms.items():
            if not (type(mono) is tuple and all(type(e) is int for e in mono)):
                try:
                    ints = tuple(int(e) for e in mono)
                except (TypeError, ValueError, OverflowError):
                    ints = None
                if ints is None or ints != tuple(mono):
                    raise ValueError(f"non-integral exponent in monomial {mono!r}")
                mono = ints
            if len(mono) != n_vars:
                raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {n_vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            coeff = frac(coeff)
            if not coeff:
                continue
            d = sum(mono)
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(f"inhomogeneous terms: degree {degree} vs {d}")
            clean[mono] = coeff
        if not clean:
            raise ValueError("the zero polynomial is not representable")
        self.n_vars = n_vars
        self.degree = degree
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __str__(self) -> str:
        return print_poly(self)

    def __repr__(self) -> str:
        return f"HPoly({print_poly(self)!r}, n_vars={self.n_vars})"


def support(f: HPoly) -> set:
    """The set of exponent multi-indices with nonzero coefficient."""
    return set(f.terms)


def _mul_maps(a: Mapping, b: Mapping) -> dict:
    """Convolution of two raw term maps (not necessarily homogeneous); terms
    that cancel stay as zero entries, which `HPoly` drops."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return out


_TOKEN = re.compile(r"z(?P<var>\d+)|(?P<int>\d+)|(?P<op>[-+*/^])|(?P<bad>\S)")


def _tokenize(text: str) -> list:
    """(kind, value, position) per token, then the sentinel (None, None, len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, val = m.lastgroup, m[m.lastgroup]
        if kind == "bad":
            raise PolyParseError(f"unexpected character {val!r}", m.start())
        tokens.append((kind, val if kind == "op" else int(val), m.start()))
    return tokens + [(None, None, len(text))]


def infer_n_vars(text: str) -> int:
    """One more than the highest variable index the text names, and at least 2."""
    indices = (int(m["var"]) for m in _TOKEN.finditer(text) if m.lastgroup == "var")
    return max(2, 1 + max(indices, default=0))


def parse_poly(text: str, n_vars: int) -> HPoly:
    """Parse the text format into a canonical HPoly.

    Raises PolyParseError (with position) on syntax errors, out-of-range
    variable indices, inhomogeneous input, or input that cancels to zero.
    Requires n_vars >= 2: a projective hypersurface needs at least two
    coordinates.
    """
    if n_vars < 2:
        raise ValueError(f"n_vars must be at least 2, got {n_vars}")
    tokens = _tokenize(text)
    if tokens[0][0] is None:
        raise PolyParseError("empty input", len(text))
    i = 0

    def take(kind, val=None):
        """Consume and return the next token's value if it has this kind (and a value in val)."""
        nonlocal i
        k, v, _ = tokens[i]
        if k == kind and (val is None or v in val):
            i += 1
            return v

    def positive(op, missing, what):
        """The positive integer after the operator op, or 1 when op is not next."""
        if take("op", op) is None:
            return 1
        pos = tokens[i][2]
        val = take("int")
        if not val:
            raise PolyParseError(missing if val is None else f"{what} must be positive", pos)
        return val

    terms, degrees = {}, set()
    sign = take("op", "+-") or "+"  # optional before the first term, required after
    while sign:
        coeff = Fraction(1)
        start = tokens[i][2]
        num = take("int")
        if num is not None:
            coeff = Fraction(num, positive("/", "expected denominator after '/'", "denominator"))
            if take("op", "*") is None:
                pos = tokens[i][2]
                if tokens[i][1] in (None, "+", "-"):  # the term ends without a variable
                    raise PolyParseError(f"constant term {text[start:pos].strip()} has no variable", start)
                raise PolyParseError("expected '*' between coefficient and variables", pos)
        mono = [0] * n_vars
        while True:  # one or more '*'-separated factors
            pos = tokens[i][2]
            idx = take("var")
            if idx is None:
                raise PolyParseError("expected a variable like z0", pos)
            if idx >= n_vars:
                raise PolyParseError(f"variable z{idx} out of range for n_vars={n_vars}", pos)
            mono[idx] += positive("^", "expected an integer exponent after '^'", "exponent")
            if take("op", "*") is None:
                break
        key = shared_monomial(tuple(mono))
        degrees.add(sum(key))
        terms[key] = terms.get(key, 0) + (-coeff if sign == "-" else coeff)
        sign = take("op", "+-")
        if sign is None and tokens[i][0] is not None:
            raise PolyParseError("expected '+' or '-' between terms", tokens[i][2])

    if len(degrees) > 1:
        raise PolyParseError(f"inhomogeneous polynomial: degrees {sorted(degrees)}", 0)
    if not any(terms.values()):
        raise PolyParseError("polynomial cancels to zero", 0)
    return HPoly(n_vars, terms)


def _mono_str(mono: Monomial) -> str:
    return "*".join(
        f"z{i}" if e == 1 else f"z{i}^{e}" for i, e in enumerate(mono) if e
    )


def print_poly(f: HPoly) -> str:
    """Canonical text form: terms in descending lex order on exponents."""
    out = ""
    for mono in sorted(f.terms, reverse=True):
        c = f.terms[mono]
        mag = abs(c)
        out += (" - " if c < 0 else " + ") + (
            _mono_str(mono) if mag == 1 else f"{mag}*{_mono_str(mono)}"
        )
    return out[3:] if out[1] == "+" else "- " + out[3:]
