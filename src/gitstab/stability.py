"""Torus stability of a hypersurface in the given coordinates.

Everything revolves around the closed cone

    C(f) = { lambda : sum(lambda) = 0, <lambda, gamma> >= 0 for gamma in supp f }

and its lineality part L(f) = { lambda in C : every weight is zero }, the
diagonal fields fixing f.  The classification is

    stable                    <=>  C = {0}
    weakly_stable_not_stable  <=>  C = L != {0}
    not_weakly_stable         <=>  C strictly larger than L

decided by exact linear programming: L comes from a kernel computation, and
C > L holds precisely when the total weight sum(gamma) <lambda, gamma> can be
made positive on C.  Up to three capped programs settle it, each run only
when the one before reached its cap of 1:

    decision  the total weight over C in the trace-zero coordinates
              mu_i = lambda_i (i < n-1), lambda_{n-1} = -sum(mu); every row
              is '<=' with right-hand side 0 or 1, so the simplex starts
              from its slack basis and runs no phase one.  At 0, C = L.
    strict    a witness with every support weight positive.
    cone      the total weight over C in lambda itself, for the witness of a
              form that has no strict one (all weights >= 0, one positive).

So stable and weakly stable forms solve one program, forms with a strict
witness two, and the rest three.

`oracle_classify` answers the same question by brute-force enumeration of
integer vectors in a box; it is independent of the LP route and exists to
cross-check it.  Its verdicts are box-relative for the stable and weakly
stable classes (a witness may live outside the box), which is what
`verdicts_consistent` accounts for.

Stable and weakly-stable verdicts are relative to the coordinates in which f
is written; only not_weakly_stable is intrinsic under linear changes of
coordinates restricted to diagonal one-parameter subgroups.  See the CLI's
basis sweep for a way to probe other bases.
"""

from __future__ import annotations

from fractions import Fraction

from . import boxscan, lp
from .lazylog import LazyLogger
from .poly import HPoly
from .record import record
from .weights import WeightVector

log = LazyLogger(__name__)

STABLE = "stable"
WEAKLY_STABLE_NOT_STABLE = "weakly_stable_not_stable"
NOT_WEAKLY_STABLE = "not_weakly_stable"


@record
class StabilityVerdict:
    """Outcome of a classification.

    destabilizer is a primitive integer trace-zero weight vector witnessing
    non-stability (all support weights zero for the weakly stable class,
    non-negative with a positive one otherwise); certificate_mu is its
    minimum weight.
    """

    classification: str
    destabilizer: WeightVector | None
    fixing_subspace_dim: int
    certificate_mu: Fraction | None

    @property
    def exit_code(self) -> int:
        return {STABLE: 0, WEAKLY_STABLE_NOT_STABLE: 3, NOT_WEAKLY_STABLE: 4}[
            self.classification
        ]

    def to_json(self) -> dict:
        return {
            "class": self.classification,
            "destabilizer": list(self.destabilizer.as_ints()) if self.destabilizer else None,
            "mu": str(self.certificate_mu) if self.certificate_mu is not None else None,
            "fixing_dim": self.fixing_subspace_dim,
            "basis": "given",
        }


# What the support weights of each kind of witness must satisfy.
_WEIGHT_TESTS = {
    "fixing": lambda ws: not any(ws),
    "semi": lambda ws: min(ws) >= 0 and any(ws),
    "strict": lambda ws: min(ws) > 0,
}


def _verdict(f: HPoly, fixing_dim: int, kind=None, witness=None) -> StabilityVerdict:
    """The verdict a witness of the given kind proves; with no kind, stable.

    This is the one witness check of both classifiers: made a primitive
    integer vector, the witness must be nonzero and trace-zero, and its
    support weights must all vanish (fixing), be non-negative with one
    positive (semi) or all be positive (strict).
    """
    if kind is None:
        return StabilityVerdict(STABLE, None, 0, None)
    lam = WeightVector.from_values(witness).primitive_integer()
    weights = [lam.dot(g) for g in f.terms]
    if lam.is_zero or lam.trace != 0 or not _WEIGHT_TESTS[kind](weights):
        raise RuntimeError(f"{kind} witness {lam} fails the witness check")
    classification = WEAKLY_STABLE_NOT_STABLE if kind == "fixing" else NOT_WEAKLY_STABLE
    return StabilityVerdict(classification, lam, fixing_dim, min(weights))


def _capped(objective, rows, optima, failure: str) -> lp.LPOutcome:
    """Maximize objective over rows plus the cap objective <= 1, appended
    last; the program must reach an optimum in optima, or RuntimeError(failure)."""
    out = lp.solve(lp.LinearProgram.maximize(objective, rows + [(objective, lp.LE, 1)]))
    if out.status != lp.OPTIMAL or out.value not in optima:
        raise RuntimeError(failure)
    return out


def classify_torus(f: HPoly) -> StabilityVerdict:
    """Exact classification in the given coordinates via linear programming.

    The decision program runs for every form, the strict program only when
    C > L, and the cone program only when no strict witness exists (see the
    module docstring).
    """
    gammas = sorted(f.terms, reverse=True)
    n = f.n_vars
    ones = tuple(Fraction(1) for _ in range(n))
    fixing_basis = lp.kernel([ones] + gammas)
    fixing_dim = len(fixing_basis)

    total = tuple(sum(Fraction(g[i]) for g in gammas) for i in range(n))
    # With lambda_{n-1} = -sum(mu), <lambda, g> = sum_i mu_i (g_i - g_{n-1}).
    # The rows are lists because `maximize` copies each into a tuple anyway;
    # throwaway tuples here left peak RSS about 0.3 MB higher over 1,900 calls.
    last = n - 1
    t_mu = tuple(total[i] - total[last] for i in range(last))
    decide = [([g[last] - g[i] for i in range(last)], lp.LE, 0) for g in gammas]
    out = _capped(t_mu, decide, (0, 1), "decision program must optimize at 0 or at the cap")
    if out.value == 0:
        # Every lambda in C has all weights zero, so C = L.
        if fixing_dim == 0:
            return _verdict(f, 0)
        return _verdict(f, fixing_dim, "fixing", fixing_basis[0])

    # C is strictly larger than L; try to strengthen the witness to mu > 0.
    m_col = tuple(Fraction(int(i == n)) for i in range(n + 1))
    strict = [(ones + (Fraction(0),), lp.EQ, 0)]
    strict += [(g + (Fraction(-1),), lp.GE, 0) for g in gammas]
    out = _capped(m_col, strict, (0, 1), "strict cone program must optimize at 0 or at the cap")
    if out.value == 1:
        kind, witness = "strict", out.witness[:n]
    else:
        cone = [(ones, lp.EQ, 0)] + [(g, lp.GE, 0) for g in gammas]
        out = _capped(total, cone, (1,), "cone and decision programs disagree")
        kind, witness = "semi", out.witness
    v = _verdict(f, fixing_dim, kind, witness)
    msg = "destabilizer %s with mu=%s (strict=%s)"
    log.debug(msg, v.destabilizer, v.certificate_mu, kind == "strict")
    return v


def oracle_classify(f: HPoly, box_bound: int) -> StabilityVerdict:
    """Classification by exhaustive enumeration of integer vectors in a box.

    Independent of the LP route.  A not_weakly_stable verdict is definitive;
    stable and weakly-stable verdicts only assert that no witness exists with
    entries bounded by box_bound.
    """
    gammas = sorted(f.terms, reverse=True)
    res = boxscan.scan_box(gammas, f.n_vars, box_bound)
    fixing = res.fixing_basis[0] if res.fixing_basis else None
    for kind, witness in (("strict", res.strict), ("semi", res.semi), ("fixing", fixing)):
        if witness is not None:
            return _verdict(f, len(res.fixing_basis), kind, witness)
    return _verdict(f, 0)


def verdicts_consistent(exact: StabilityVerdict, boxed: StabilityVerdict, bound: int) -> bool:
    """Whether an LP verdict and a box verdict can both be right: they name
    the same class, or the LP class is the stronger and its witness lies
    outside the box.

    The box is sound but incomplete for instability, and its fixing rank can
    undercount when the fixing subspace meets the box only at zero; an LP
    witness with some entry beyond the bound is invisible to the box.
    """
    if exact.classification == boxed.classification:
        return True
    # Verdict exit codes 0 < 3 < 4 rank the classes from stable up.
    return exact.exit_code > boxed.exit_code and max(map(abs, exact.destabilizer)) > bound
