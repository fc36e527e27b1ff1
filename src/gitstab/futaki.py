"""Futaki invariant of a hypersurface limit under a diagonal field.

For a degree-d hypersurface in projective n-space inside the anticanonical
window 1 < d < n+1, a diagonal field with eigenvalue kappa on the defining
polynomial has invariant

    F = -(n+1-d) * (d-1) * ((n+1)/n) * kappa.

This is the formal evaluation of that closed form: it does not verify any
positivity or singularity hypotheses on the limit.  A `FutakiValue` stores
(n, d, kappa); its `value` is the closed form.  For trace-zero weights kappa
equals the minimum weight mu, which is how `futaki_of_limit` computes it.
The invariant is exact; its sign is opposite to the sign of kappa.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import frac
from .poly import HPoly
from .record import record
from .weights import WeightVector, mu


@record
class FutakiValue:
    n: int
    d: int
    kappa: Fraction

    @property
    def value(self) -> Fraction:
        n, d = self.n, self.d
        return -Fraction(n + 1 - d) * (d - 1) * Fraction(n + 1, n) * self.kappa

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "kappa": str(self.kappa),
            "futaki": str(self.value),
        }


def check_fano_range(n: int, d: int):
    if n < 2:
        raise ValueError(f"ambient projective dimension must be at least 2, got n={n}")
    if not 1 < d < n + 1:
        raise ValueError(
            f"degree d={d} is outside the Fano range 1 < d < n+1 for n={n}"
        )


def futaki_from_kappa(n: int, d: int, kappa) -> FutakiValue:
    """Evaluate the closed form at an eigenvalue kappa."""
    check_fano_range(n, d)
    return FutakiValue(n, d, frac(kappa))


def futaki_of_limit(lmbda: WeightVector, f: HPoly) -> FutakiValue:
    """Invariant of the limit of f under a trace-zero diagonal field.

    The limit polynomial is an eigenvector of the field with eigenvalue
    mu(lmbda, f), so no limit needs to be materialized here.
    """
    if len(lmbda) != f.n_vars:
        raise ValueError("weight vector length does not match the polynomial")
    if lmbda.trace != 0:
        raise ValueError(f"weights must sum to zero, got trace {lmbda.trace}")
    return futaki_from_kappa(f.n_vars - 1, f.degree, mu(lmbda, f))
