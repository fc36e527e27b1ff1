"""Acceptance gate: one test per shipping criterion.

Every test prints a single `criterion N ...: PASS` (or FAIL) line; run

    python3 -m pytest tests/test_acceptance.py -v -s

to see the lines as the gate executes.  All assertions are exact, with no
numeric tolerances anywhere; the only budgets are wall-clock ones stated in
the criteria themselves.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from operator import add
from pathlib import Path
from random import Random

from gitstab import lp
from gitstab.degeneration import from_destabilizer, theorem_crosscheck
from gitstab.futaki import futaki_from_kappa, futaki_of_limit
from gitstab.poly import HPoly, parse_poly, print_poly
from gitstab.stability import (
    NOT_WEAKLY_STABLE,
    STABLE,
    WEAKLY_STABLE_NOT_STABLE,
    classify_torus,
    oracle_classify,
    verdicts_consistent,
)
from gitstab.vfield import LinearVectorField, invariance, substitute_linear
from gitstab.weights import WeightVector, limit_poly, mu
from helpers import (
    conjugate,
    fraction_chevalley_split,
    fraction_horner,
    fraction_mat_mul,
    integer_split,
    is_nilpotent,
    random_coeff,
    random_hpoly,
    random_invertible,
    random_matrix,
    random_trace_zero_ints,
    random_weights,
    rational_charpoly,
    squarefree_part,
)

UNSTABLE_CUBIC = "z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3"
FERMAT = "z0^3 + z1^3 + z2^3 + z3^3"

N_CASES = 120


@contextmanager
def criterion(label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\ncriterion {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_worked_cubic_end_to_end():
    with criterion("1 (worked cubic end-to-end, < 1 s)"):
        start = time.perf_counter()
        f = parse_poly(UNSTABLE_CUBIC, 4)
        lam = WeightVector.parse("-7,5,1,1")

        assert mu(lam, f) == 3
        lim = limit_poly(lam, f)
        assert lim == parse_poly("z0*z1^2 + z2^2*z3 - z2*z3^2", 4)

        assert invariance(LinearVectorField.diagonal(lam.values), lim) == 3
        assert futaki_of_limit(lam, f).value == -8  # exact equality, no tolerance

        assert classify_torus(f).classification == NOT_WEAKLY_STABLE

        rep = from_destabilizer(f, lam)
        assert rep.family.generator == WeightVector.parse("-24,12,0,0")
        assert not rep.trivial

        assert time.perf_counter() - start < 1.0


def test_criterion_2_futaki_closed_form():
    with criterion("2 (Futaki closed form unit values)"):
        assert futaki_from_kappa(3, 3, 3).value == -8
        for n in range(2, 9):
            for d in range(2, n + 1):
                assert futaki_from_kappa(n, d, 0).value == 0


def test_criterion_3_lp_agrees_with_enumeration_oracle():
    with criterion("3 (LP vs box oracle on 300 instances, < 2 min)"):
        start = time.perf_counter()
        rng = Random(20603)
        for _ in range(300):
            n = rng.randint(3, 4)
            d = rng.randint(1, 4)
            f = random_hpoly(rng, n, d, 8)
            exact = classify_torus(f)
            boxed = oracle_classify(f, 6)
            assert exact.classification == boxed.classification
            assert exact.fixing_subspace_dim == boxed.fixing_subspace_dim
            assert verdicts_consistent(exact, boxed, 6)
        assert time.perf_counter() - start < 120.0


def test_criterion_4_crosscheck_agreement():
    with criterion("4 (stability/Futaki crosscheck, zero disagreements)"):
        rep = theorem_crosscheck(parse_poly(FERMAT, 4), 4)
        assert rep.agreement and rep.weakly_stable and not rep.violations

        rep = theorem_crosscheck(parse_poly(UNSTABLE_CUBIC, 4), 7)
        assert rep.agreement and not rep.weakly_stable
        hits = [v for v in rep.violations if tuple(v.generator) == (-7, 5, 1, 1)]
        assert hits and hits[0].futaki == -8 and hits[0].kind == "negative_futaki"

        rep = theorem_crosscheck(parse_poly("z0*z1*z2", 4), 3)
        assert rep.agreement and not rep.weakly_stable
        hits = [v for v in rep.violations if tuple(v.generator) == (1, 1, 1, -3)]
        assert hits and hits[0].futaki == -8

        rng = Random(20604)
        for _ in range(100):
            f = random_hpoly(rng, 4, 3, 8)
            assert theorem_crosscheck(f, 4).agreement, f"disagreement on {f}"


def _suite_mu_laws():
    rng = Random(50101)
    for _ in range(N_CASES):
        n = rng.randint(3, 5)
        d = rng.randint(1, 4)
        f = random_hpoly(rng, n, d, 8)
        lam = random_weights(rng, n, den_bound=3)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert mu(lam.shifted(c), f) == mu(lam, f) + c * d
        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert mu(lam.scaled(k), f) == k * mu(lam, f)


def _suite_limit_idempotence():
    rng = Random(50102)
    for _ in range(N_CASES):
        n = rng.randint(3, 5)
        f = random_hpoly(rng, n, rng.randint(1, 4), 8)
        lam = random_weights(rng, n, den_bound=2)
        lim = limit_poly(lam, f)
        assert limit_poly(lam, lim) == lim


def _suite_mu_of_limit():
    rng = Random(50103)
    for _ in range(N_CASES):
        n = rng.randint(3, 5)
        f = random_hpoly(rng, n, rng.randint(1, 4), 8)
        lam = random_weights(rng, n, den_bound=2)
        assert mu(lam, limit_poly(lam, f)) == mu(lam, f)


def _suite_kappa_equals_mu_for_invariant_diagonals():
    rng = Random(50104)
    for _ in range(N_CASES):
        n = rng.randint(3, 5)
        f = random_hpoly(rng, n, rng.randint(1, 4), 8)
        lam = random_weights(rng, n, den_bound=2)
        lim = limit_poly(lam, f)
        assert invariance(LinearVectorField.diagonal(lam.values), lim) == mu(lam, f)


def _suite_nilpotent_fields_have_zero_kappa():
    rng = Random(50105)
    for _ in range(N_CASES):
        n = rng.randint(3, 4)
        d = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            mono = [0] * n
            for _ in range(d):
                mono[rng.randrange(1, n)] += 1
            terms[tuple(mono)] = random_coeff(rng)
        f = HPoly(n, terms)  # avoids z0 entirely
        nil = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n):
            nil[0][j] = Fraction(rng.randint(-2, 2))
        p = random_invertible(rng, n, 2)
        v = LinearVectorField(conjugate(p, nil))
        assert is_nilpotent(v.rows)
        kappa = invariance(v, substitute_linear(f, p))
        assert kappa is not None and kappa == 0


def _suite_futaki_sign_is_opposite_mu():
    rng = Random(50106)
    for _ in range(N_CASES):
        n = rng.randint(3, 4)
        d = rng.randint(2, n - 1)
        f = random_hpoly(rng, n, d, 8)
        lam = random_trace_zero_ints(rng, n)
        value = futaki_of_limit(lam, f).value
        m = mu(lam, f)
        assert (value > 0) == (m < 0)
        assert (value == 0) == (m == 0)


def _suite_chevalley_postconditions():
    rng = Random(50107)
    for _ in range(N_CASES):
        n = rng.randint(2, 4)
        if rng.random() < 0.5:
            a = random_matrix(rng, n, 3)
        else:
            # conjugated upper triangular with a forced repeated eigenvalue,
            # the shape that produces a nonzero nilpotent part
            tri = [[Fraction(0)] * n for _ in range(n)]
            eigs = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            eigs[1] = eigs[0]
            for i in range(n):
                tri[i][i] = eigs[i]
                for j in range(i + 1, n):
                    tri[i][j] = Fraction(rng.randint(-2, 2))
            p = random_invertible(rng, n, 2)
            a = conjugate(p, tri)
        v = LinearVectorField(a)
        semi, nil = integer_split(v)
        psf = squarefree_part(rational_charpoly(v.rows))
        assert (semi, nil) == fraction_chevalley_split(v.rows, psf)
        assert tuple(tuple(map(add, *rows)) for rows in zip(semi, nil)) == v.rows
        assert fraction_mat_mul(semi, nil) == fraction_mat_mul(nil, semi)
        assert is_nilpotent(nil)
        reduced = squarefree_part(rational_charpoly(semi))
        assert not any(x for row in fraction_horner(reduced, semi) for x in row)


def _suite_lp_witnesses_are_exact():
    rng = Random(50108)
    optimal_seen = 0
    for _ in range(2 * N_CASES):
        nv = rng.randint(1, 4)
        obj = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
        cons = []
        for _ in range(rng.randint(1, 4)):
            row = [Fraction(rng.randint(-4, 4)) for _ in range(nv)]
            rel = rng.choice((lp.LE, lp.GE, lp.EQ))
            cons.append((row, rel, Fraction(rng.randint(-6, 6))))
        for i in range(nv):
            # a box keeps every feasible program bounded, so each feasible
            # draw contributes an optimum with an exact witness
            unit = [Fraction(int(j == i)) for j in range(nv)]
            cons.append((unit, lp.LE, Fraction(rng.randint(2, 9))))
            cons.append((unit, lp.GE, Fraction(-rng.randint(2, 9))))
        out = lp.solve(lp.LinearProgram.maximize(obj, cons))
        if out.status != lp.OPTIMAL:
            continue
        optimal_seen += 1
        assert sum(c * x for c, x in zip(obj, out.witness)) == out.value
        for row, rel, rhs in cons:
            lhs = sum(a * x for a, x in zip(row, out.witness))
            if rel == lp.LE:
                assert lhs <= rhs
            elif rel == lp.GE:
                assert lhs >= rhs
            else:
                assert lhs == rhs
    assert optimal_seen >= 100, f"only {optimal_seen} optimal programs sampled"


def _suite_parser_round_trip():
    rng = Random(50109)
    for _ in range(N_CASES):
        f = random_hpoly(rng, rng.randint(2, 6), rng.randint(1, 5), 10, den_bound=4)
        assert parse_poly(print_poly(f), f.n_vars) == f


def test_criterion_5_property_suites():
    with criterion("5 (nine property suites, >= 100 cases each, < 5 min)"):
        start = time.perf_counter()
        _suite_mu_laws()
        _suite_limit_idempotence()
        _suite_mu_of_limit()
        _suite_kappa_equals_mu_for_invariant_diagonals()
        _suite_nilpotent_fields_have_zero_kappa()
        _suite_futaki_sign_is_opposite_mu()
        _suite_chevalley_postconditions()
        _suite_lp_witnesses_are_exact()
        _suite_parser_round_trip()
        assert time.perf_counter() - start < 300.0


def test_criterion_6_basis_dependence_demo():
    with criterion("6 (basis dependence demonstration)"):
        diagonal = classify_torus(parse_poly("z0^2 + z1^2 + z2^2 + z3^2", 4))
        assert diagonal.classification == STABLE

        hyperbolic = classify_torus(parse_poly("z0*z1 + z2*z3", 4))
        assert hyperbolic.classification == WEAKLY_STABLE_NOT_STABLE
        assert hyperbolic.fixing_subspace_dim == 2

        script = Path(__file__).resolve().parents[1] / "scripts" / "basis_dependence.py"
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "class       = stable" in proc.stdout
        assert "class       = weakly_stable_not_stable" in proc.stdout
