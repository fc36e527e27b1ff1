"""One-parameter degenerations of a hypersurface, realized as hypersurfaces.

A linear field v with rational semisimple part generates a curve of
hypersurfaces G(s) degenerating f to its minimum-weight limit as s -> 0.
After diagonalizing the semisimple part and dropping the weight floor to
zero, every exponent of s is a non-negative integer once cleared by a single
rescaling s -> s^M, so the total space is again a hypersurface:

    G(s) = sum_gamma f_gamma s^(M * <lambda~, gamma>) z^gamma,

with lambda~ the floor-normalized generator.  The family is trivial exactly
when a single stratum remains, i.e. the generator fixes f projectively.

`theorem_crosscheck` compares the two available answers to "is f weakly
stable": the exact LP classification on one side, and on the other the sign
behaviour of the Futaki invariant over every integer generator in an
enumeration box (non-negative everywhere, vanishing only on trivial
families).  Disagreements are reported with explicit witnesses.

The box side needs no families.  For an integer trace-zero lambda with
support weights w = <lambda, gamma>, the family along lambda is trivial
exactly when all w agree, and its invariant is the closed form at
kappa = min(w) / gcd(lambda): the family reports the invariant of its
primitive generator lambda / gcd(lambda), and the Fano-range constant is
positive, so the sign of the invariant is opposite to that of min(w).  The
crosscheck therefore reads every violation from the integer weights and
builds the full family only as an audit, for the first generator of each
violation kind and the first generator with none; a family that disagrees
with the integer prediction raises RuntimeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import boxscan, linalg, poly, stability
from .futaki import FutakiValue, check_fano_range, futaki_from_kappa, futaki_of_limit
from .lazylog import LazyLogger
from .poly import HPoly
from .record import record
from .vfield import (
    LinearVectorField,
    apply_derivation,
    chevalley_split,
    rational_diagonalize,
    substitute_linear,
)
from .weights import WeightVector, mu, weight_spectrum

log = LazyLogger(__name__)


class DegenerationError(ValueError):
    """The field cannot degenerate f within this representation."""


@record
class DegenerationFamily:
    """G(s) = sum over strata of s^exponent * stratum, with G(1) = base_poly."""

    base_poly: HPoly
    generator: WeightVector  # floor-normalized diagonal generator lambda~
    s_rescale: int  # M, the exponent clearing factor
    strata: dict  # int exponent -> HPoly

    def fiber(self, s) -> HPoly:
        """Evaluate the family at a rational parameter value."""
        s = Fraction(s)
        if s == 0:
            return self.strata[0]
        acc = None
        for e, part in sorted(self.strata.items()):
            piece = poly.scale(part, s**e)
            acc = piece if acc is None else poly.add(acc, piece)
        if acc is None:
            raise RuntimeError("a fiber of a nonzero family cannot vanish")
        return acc

    @property
    def trivial(self) -> bool:
        return len(self.strata) == 1


@record
class DegenerationReport:
    family: DegenerationFamily
    futaki: FutakiValue | None
    normalized_trace_zero_generator: WeightVector
    basis_change: tuple | None  # eigenbasis columns, None when already diagonal

    @property
    def special_fiber(self) -> HPoly:
        return self.family.strata[0]

    @property
    def trivial(self) -> bool:
        return self.family.trivial

    def to_json(self) -> dict:
        from .poly import print_poly

        return {
            "f": print_poly(self.family.base_poly),
            "generator": [str(x) for x in self.family.generator],
            "s_rescale": self.family.s_rescale,
            "strata": {str(e): print_poly(p) for e, p in sorted(self.family.strata.items())},
            "special_fiber": print_poly(self.special_fiber),
            "trivial": self.trivial,
            "futaki": str(self.futaki.value) if self.futaki is not None else None,
            "normalized_generator": [int(x) for x in self.normalized_trace_zero_generator],
            "basis": None
            if self.basis_change is None
            else [[str(x) for x in row] for row in self.basis_change],
        }


def build_degeneration(f: HPoly, v: LinearVectorField) -> DegenerationReport:
    """Degenerate f along v, reporting the family and its invariant.

    Raises DegenerationError when the nilpotent part of v moves f (the limit
    is then not a limit of this hypersurface under a diagonal subgroup) or
    when the semisimple part has irrational eigenvalues (unsupported here).
    In the non-diagonal case f is first rewritten in the eigenbasis, recorded
    in basis_change.
    """
    if v.n != f.n_vars:
        raise ValueError(f"field on {v.n} variables cannot act on {f.n_vars}-variable polynomial")

    if v.is_diagonal:
        weights = v.diagonal_entries()
        f_work = f
        basis = None
    else:
        psf = linalg.poly_squarefree_part(linalg.charpoly(v.rows))
        semi, nil = chevalley_split(v, psf)
        if not nil.is_zero and apply_derivation(nil, f) is not None:
            raise DegenerationError(
                "the nilpotent part of the field acts nontrivially on the polynomial"
            )
        diag = rational_diagonalize(semi, psf)
        if diag is None:
            raise DegenerationError(
                "the semisimple part has irrational eigenvalues; "
                "its limit is not reachable in rational coordinates"
            )
        eigvals, basis = diag
        f_work = substitute_linear(f, basis)
        weights = eigvals
        log.debug("rewrote polynomial in an eigenbasis; weights %s", weights)

    d = f.degree
    floor = mu(weights, f_work)
    lam_tilde = weights.shifted(-Fraction(floor, d))

    spectrum = weight_spectrum(lam_tilde, f_work)
    rescale = lcm(*(w.denominator for w in spectrum))
    strata = {}
    for w, part in spectrum.items():
        e = w * rescale
        if e.denominator != 1 or e < 0:
            raise RuntimeError("cleared exponents must be non-negative integers")
        strata[int(e)] = part
    if 0 not in strata:
        raise RuntimeError("the floor normalization must leave a weight-zero stratum")

    family = DegenerationFamily(f_work, lam_tilde, rescale, strata)
    if family.fiber(1) != f_work:
        raise RuntimeError("the family must pass through the polynomial at s=1")

    tz = lam_tilde.trace_zero().primitive_integer()
    n = f.n_vars - 1
    fut = futaki_of_limit(tz, f_work) if 1 < d < n + 1 else None
    return DegenerationReport(family, fut, tz, basis)


def from_destabilizer(f: HPoly, lmbda: WeightVector) -> DegenerationReport:
    """Degeneration along d*lambda - mu*ones for an integer trace-zero lambda.

    This rescaled generator has integer weights with floor zero, so the
    family needs no further normalization; lambda = 0 gives the trivial
    family over f itself.
    """
    if len(lmbda) != f.n_vars:
        raise ValueError("weight vector length does not match the polynomial")
    if not lmbda.is_integral:
        raise ValueError("destabilizer weights must be integers")
    if lmbda.trace != 0:
        raise ValueError(f"destabilizer must be trace-zero, got trace {lmbda.trace}")
    floor = mu(lmbda, f)
    gen = lmbda.scaled(f.degree).shifted(-floor)
    return build_degeneration(f, LinearVectorField.diagonal(gen.values))


@record
class CrosscheckViolation:
    generator: tuple  # integer trace-zero lambda
    futaki: Fraction
    trivial: bool
    kind: str  # negative_futaki | zero_futaki_nontrivial | trivial_positive_futaki


@record
class CrosscheckReport:
    verdict: stability.StabilityVerdict
    enumerated: int
    bound: int
    violations: tuple

    @property
    def weakly_stable(self) -> bool:
        """The LP side."""
        return self.verdict.classification != stability.NOT_WEAKLY_STABLE

    @property
    def box_consistent(self) -> bool:
        """The Futaki-sign side over the box."""
        return not self.violations

    @property
    def agreement(self) -> bool:
        return self.weakly_stable == self.box_consistent

    def to_json(self) -> dict:
        return {
            "agreement": self.agreement,
            "weakly_stable": self.weakly_stable,
            "class": self.verdict.classification,
            "enumerated": self.enumerated,
            "bound": self.bound,
            "violations": [
                {
                    "lambda": list(v.generator),
                    "futaki": str(v.futaki),
                    "trivial": v.trivial,
                    "kind": v.kind,
                }
                for v in self.violations
            ],
        }


def _weight_kind(lo: int, trivial: bool) -> str | None:
    """Violation kind of a generator from its minimum support weight lo and
    whether all its support weights agree; None when there is no violation."""
    if lo > 0:
        return "negative_futaki"
    if lo == 0 and not trivial:
        return "zero_futaki_nontrivial"
    if lo < 0 and trivial:
        return "trivial_positive_futaki"
    return None


def _audit_family(f: HPoly, lam: tuple, value: Fraction, trivial: bool):
    """Build the full family along lam and check it against the integer
    prediction of its invariant and triviality."""
    rep = from_destabilizer(f, WeightVector.from_values(lam))
    if rep.futaki is None:
        raise RuntimeError("crosscheck runs inside the Fano range")
    if rep.futaki.value != value or rep.trivial != trivial:
        raise RuntimeError(
            f"family along {lam} has invariant {rep.futaki.value} (trivial={rep.trivial}), "
            f"but its integer weights predict {value} (trivial={trivial})"
        )


def theorem_crosscheck(f: HPoly, bound: int) -> CrosscheckReport:
    """Compare LP weak stability against Futaki signs over an integer box.

    For every nonzero trace-zero integer generator in the box, the induced
    family must have non-negative invariant, vanishing exactly on trivial
    families, precisely when f is weakly stable; any generator breaking one
    of these conditions is collected as a violation.

    Each generator is judged from its integer support weights w alone, with
    lo = min(w) and trivial meaning all w agree: lo > 0 is negative_futaki,
    lo == 0 on a nontrivial family is zero_futaki_nontrivial, and lo < 0 on
    a trivial family is trivial_positive_futaki.  The reported invariant is
    the one of the primitive generator lambda / gcd(lambda), as the family
    reports it.  The first generator of each kind and the first without a
    violation are audited against their full degeneration family.
    """
    n = f.n_vars - 1
    d = f.degree
    check_fano_range(n, d)
    boxscan.check_box_size(f.n_vars, bound)

    verdict = stability.classify_torus(f)
    gammas = list(f.terms)
    violations = []
    audited = set()
    enumerated = 0
    for lam in boxscan.iter_trace_zero_box(f.n_vars, bound):
        enumerated += 1
        weights = [sum(map(mul, lam, g)) for g in gammas]
        lo = min(weights)
        trivial = lo == max(weights)
        kind = _weight_kind(lo, trivial)
        if kind is None and None in audited:
            continue
        value = futaki_from_kappa(n, d, Fraction(lo, gcd(*lam))).value
        if kind not in audited:
            audited.add(kind)
            _audit_family(f, lam, value, trivial)
        if kind is not None:
            violations.append(CrosscheckViolation(lam, value, trivial, kind))

    report = CrosscheckReport(verdict, enumerated, bound, tuple(violations))
    if not report.agreement:
        log.warning(
            "crosscheck disagreement: LP says weakly_stable=%s, box says %s",
            report.weakly_stable,
            report.box_consistent,
        )
    return report
