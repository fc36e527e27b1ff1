"""One-parameter degenerations of a hypersurface, realized as hypersurfaces.

A linear field v with rational semisimple part generates a curve of
hypersurfaces G(s) degenerating f to its minimum-weight limit as s -> 0.
After diagonalizing the semisimple part and dropping the weight floor to
zero, every exponent of s is a non-negative integer once cleared by a single
rescaling s -> s^M, so the total space is again a hypersurface:

    G(s) = sum_gamma f_gamma s^(M * <lambda~, gamma>) z^gamma,

with lambda~ the floor-normalized generator.  The family is trivial exactly
when a single stratum remains, i.e. the generator fixes f projectively.
A report's trace-zero generator and Futaki invariant are read off the family.

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

from . import boxscan, linalg, stability
from .futaki import FutakiValue, futaki_from_kappa, futaki_of_limit
from .lazylog import LazyLogger
from .poly import HPoly, print_poly
from .record import record
from .vfield import (
    LinearVectorField,
    chevalley_split,
    derive,
    diagonalize_integer,
    substitute_integer,
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
        """G(s) at a rational s; strata sharing a monomial add up.  A stratum
        with s^e = 1 (every one at s = 1) adds its coefficients unscaled."""
        s = Fraction(s)
        terms: dict = {}
        for e, part in self.strata.items():
            se = s**e
            for mono, c in part.terms.items():
                terms[mono] = terms.get(mono, 0) + (c if se == 1 else c * se)
        return HPoly(self.base_poly.n_vars, terms)

    @property
    def trivial(self) -> bool:
        return len(self.strata) == 1


@record
class DegenerationReport:
    family: DegenerationFamily
    basis_change: tuple | None  # eigenbasis columns, None when already diagonal

    @property
    def normalized_trace_zero_generator(self) -> WeightVector:
        return self.family.generator.trace_zero().primitive_integer()

    @property
    def futaki(self) -> FutakiValue | None:
        """Invariant of the limit inside the Fano range 1 < d < n+1, else None."""
        f = self.family.base_poly
        if not 1 < f.degree < f.n_vars:
            return None
        return futaki_of_limit(self.normalized_trace_zero_generator, f)

    @property
    def special_fiber(self) -> HPoly:
        return self.family.strata[0]

    @property
    def trivial(self) -> bool:
        return self.family.trivial

    def to_json(self) -> dict:
        futaki = self.futaki
        return {
            "f": print_poly(self.family.base_poly),
            "generator": [str(x) for x in self.family.generator],
            "s_rescale": self.family.s_rescale,
            "strata": {str(e): print_poly(p) for e, p in sorted(self.family.strata.items())},
            "special_fiber": print_poly(self.special_fiber),
            "trivial": self.trivial,
            "futaki": str(futaki.value) if futaki is not None else None,
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
        weights = WeightVector(tuple(row[i] for i, row in enumerate(v.rows)))
        f_work = f
        basis = None
    else:
        found = _eigenbasis(f, v)
        if isinstance(found, str):
            raise DegenerationError(found)
        weights, f_work, basis = found
        log.debug("rewrote polynomial in an eigenbasis; weights %s", weights)

    # One weight pass: the floor-normalized generator shifts every weight by
    # the floor, so its strata are these with exponents (w - floor) * M.
    spectrum = weight_spectrum(weights, f_work)
    floor = min(spectrum)
    lam_tilde = weights.shifted(-Fraction(floor, f.degree))
    rescale = lcm(*[(w - floor).denominator for w in spectrum])
    strata = {}
    for w, part in spectrum.items():
        e = (w - floor) * rescale
        if e.denominator != 1 or e < 0:
            raise RuntimeError("cleared exponents must be non-negative integers")
        strata[int(e)] = part
    if 0 not in strata:
        raise RuntimeError("the floor normalization must leave a weight-zero stratum")

    family = DegenerationFamily(f_work, lam_tilde, rescale, strata)
    if family.fiber(1) != f_work:
        raise RuntimeError("the family must pass through the polynomial at s=1")
    return DegenerationReport(family, basis)


def _eigenbasis(f: HPoly, v: LinearVectorField):
    """(eigenvalues, f in the eigenbasis, the basis) for a non-diagonal v, or
    the reason there is none as a message.  The caller raises it, so the
    traceback a kept DegenerationError carries ends in build_degeneration and
    does not hold this frame's Chevalley split.  The work runs on B = D*v,
    with v's eigenvectors and D times its eigenvalues, and on the monic
    squarefree factor q of its characteristic polynomial.  B is split into
    (M + N)/e on integers, which also tests semisimplicity: N = 0 exactly
    when q(B) = 0.  A nonzero N must annihilate f, whose coefficients are
    scaled to integers for the test, and the semisimple part goes on as M,
    its factor e^k q(x/e) and the denominator D*e."""
    b, den = linalg.integer_matrix(v.rows)
    q = linalg.int_squarefree(linalg.int_charpoly(b))
    if q[-1] < 0:  # a primitive factor of a monic integer polynomial ends in +-1
        q = [-c for c in q]
    b, nil, e = chevalley_split(b, q)
    if not linalg.is_zero_matrix(nil):
        coeffs = linalg.clear_denominators(f.terms.values())[0]
        if any(derive(nil, zip(f.terms, coeffs)).values()):
            return "the nilpotent part of the field acts nontrivially on the polynomial"
        k = len(q) - 1
        q, den = [c * e ** (k - i) for i, c in enumerate(q)], den * e
    diag = diagonalize_integer(b, q, den)
    if diag is None:
        return (
            "the semisimple part has irrational eigenvalues; "
            "its limit is not reachable in rational coordinates"
        )
    eigvals, basis, p, pden = diag
    return eigvals, substitute_integer(f, p, pden), basis


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

    @property
    def kind(self) -> str | None:
        """The weights' rule at -futaki: sign(futaki) = -sign(min weight) here."""
        return _weight_kind(-self.futaki, self.trivial)


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


def _weight_kind(lo, trivial: bool) -> str | None:
    """Violation kind of a generator from its minimum support weight lo (or a
    number of its sign) and whether all its support weights agree; else None."""
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
    futaki = rep.futaki
    if futaki is None:
        raise RuntimeError("crosscheck runs inside the Fano range")
    if futaki.value != value or rep.trivial != trivial:
        raise RuntimeError(
            f"family along {lam} has invariant {futaki.value} (trivial={rep.trivial}), "
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
    # The closed form at kappa = 1, which also checks the Fano range; every
    # generator's invariant is this constant times its kappa.
    scale = futaki_from_kappa(f.n_vars - 1, f.degree, 1).value
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
        value = scale * Fraction(lo, gcd(*lam))
        if kind not in audited:
            audited.add(kind)
            _audit_family(f, lam, value, trivial)
        if kind is not None:
            violations.append(CrosscheckViolation(lam, value, trivial))

    report = CrosscheckReport(verdict, enumerated, bound, tuple(violations))
    if not report.agreement:
        log.warning(
            "crosscheck disagreement: LP says weakly_stable=%s, box says %s",
            report.weakly_stable,
            report.box_consistent,
        )
    return report
