"""Weight vectors of diagonal one-parameter actions and their polynomial data.

A weight vector lambda assigns the rational weight lambda[i] to the variable
zi, so the monomial z^gamma picks up weight <lambda, gamma>.  The three core
quantities are the minimum weight mu over the support, the partition of a
polynomial into constant-weight strata (a plain {weight: stratum} dict), and
the minimum-weight stratum (the limit of the polynomial under the associated
one-parameter degeneration).  `weight_spectrum` computes the weights as
integer dots with the lcm-scaled weights and makes one Fraction per distinct
weight; `limit_poly` is its minimum stratum.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import linalg
from .linalg import frac
from .poly import HPoly, Monomial
from .record import record


@record
class WeightVector:
    """Rational weights, one per variable."""

    values: tuple

    @classmethod
    def from_values(cls, values) -> "WeightVector":
        return cls(tuple(frac(x) for x in values))

    @classmethod
    def parse(cls, text: str) -> "WeightVector":
        """Parse a comma-separated list like '-7,5,1,1' or '-1/2,1/2,0,0'."""
        parts = [p.strip() for p in text.split(",")]
        if not all(parts):
            raise ValueError(f"malformed weight list {text!r}")
        try:
            return cls.from_values(parts)
        except ValueError as exc:
            raise ValueError(f"malformed weight list {text!r}: {exc}") from None

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    @property
    def trace(self) -> Fraction:
        return sum(self.values, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    @property
    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.values)

    def as_ints(self) -> tuple:
        if not self.is_integral:
            raise ValueError(f"weights {self} are not integral")
        return tuple(int(x) for x in self.values)

    def dot(self, mono: Monomial) -> Fraction:
        if len(mono) != len(self.values):
            raise ValueError("weight/monomial length mismatch")
        return sum((l * g for l, g in zip(self.values, mono)), Fraction(0))

    def shifted(self, c) -> "WeightVector":
        c = frac(c)
        return WeightVector(tuple(x + c for x in self.values))

    def scaled(self, c) -> "WeightVector":
        c = frac(c)
        return WeightVector(tuple(c * x for x in self.values))

    def trace_zero(self) -> "WeightVector":
        return self.shifted(-self.trace / len(self.values))

    def primitive_integer(self) -> "WeightVector":
        """Positive rescaling to coprime integer entries (zero stays zero)."""
        ints = linalg.primitive(linalg.clear_denominators(self.values)[0])
        return WeightVector.from_values(ints)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.values)


def _check_dims(lmbda: WeightVector, f: HPoly):
    if len(lmbda) != f.n_vars:
        raise ValueError(
            f"weight vector has {len(lmbda)} entries but polynomial has {f.n_vars} variables"
        )


def mu(lmbda: WeightVector, f: HPoly) -> Fraction:
    """Minimum weight over the support of f."""
    _check_dims(lmbda, f)
    return min(lmbda.dot(g) for g in f.terms)


def weight_spectrum(lmbda: WeightVector, f: HPoly) -> dict:
    """Group the terms of f by weight: {weight: stratum}, the strata summing
    back to f, in the order their weights first occur among f's terms.

    With D the lcm of the denominators of lambda, each term's weight is the
    integer dot <D*lambda, gamma>; each distinct one becomes one Fraction,
    divided by D.
    """
    _check_dims(lmbda, f)
    ints, den = linalg.clear_denominators(lmbda.values)
    buckets: dict = {}
    for mono, c in f.terms.items():
        buckets.setdefault(sum(map(mul, ints, mono)), {})[mono] = c
    return {Fraction(w, den): HPoly(f.n_vars, t) for w, t in buckets.items()}


def limit_poly(lmbda: WeightVector, f: HPoly) -> HPoly:
    """The minimum-weight stratum: the limit of f under the action of lambda."""
    spectrum = weight_spectrum(lmbda, f)
    return spectrum[min(spectrum)]
