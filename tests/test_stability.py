"""Stability classification: golden cases, oracle agreement, equivariance."""

from fractions import Fraction
from random import Random

import pytest

from gitstab import lp
from gitstab.poly import HPoly, parse_poly
from gitstab.stability import (
    NOT_WEAKLY_STABLE,
    STABLE,
    WEAKLY_STABLE_NOT_STABLE,
    StabilityVerdict,
    classify_torus,
    oracle_classify,
    verdicts_consistent,
)
from gitstab.weights import WeightVector, mu
from gitstab.vfield import substitute_linear
from helpers import (
    hp,
    random_hpoly,
    random_invertible,
    random_monomial,
    random_trace_zero_ints,
    run_python,
    solve_stopping_short,
)


def test_fermat_cubic_stable():
    v = classify_torus(hp("z0^3 + z1^3 + z2^3 + z3^3", 4))
    assert v.classification == STABLE
    assert v.destabilizer is None and v.certificate_mu is None
    assert v.fixing_subspace_dim == 0
    assert v.exit_code == 0


def test_diagonal_quadric_stable():
    assert classify_torus(hp("z0^2 + z1^2 + z2^2 + z3^2", 4)).classification == STABLE


def test_hyperbolic_quadric_weakly_stable():
    v = classify_torus(hp("z0*z1 + z2*z3", 4))
    assert v.classification == WEAKLY_STABLE_NOT_STABLE
    assert v.fixing_subspace_dim == 2
    assert v.certificate_mu == 0
    lam = v.destabilizer
    assert lam is not None and not lam.is_zero and lam.trace == 0
    assert all(lam.dot(g) == 0 for g in ((1, 1, 0, 0), (0, 0, 1, 1)))
    assert v.exit_code == 3


def test_unstable_cubic_with_strict_witness():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    v = classify_torus(f)
    assert v.classification == NOT_WEAKLY_STABLE
    assert v.certificate_mu > 0
    assert mu(v.destabilizer, f) == v.certificate_mu
    assert v.exit_code == 4


def test_single_monomial_destabilized():
    v = classify_torus(hp("z0^3", 4))
    assert v.classification == NOT_WEAKLY_STABLE
    assert v.certificate_mu > 0  # strict witness achievable


def test_semi_but_not_strict_witness():
    # z0*z1 in 2 variables: weights lambda0+lambda1 = 0 always; C = L, dim 1
    v = classify_torus(hp("z0*z1", 2))
    assert v.classification == WEAKLY_STABLE_NOT_STABLE
    assert v.fixing_subspace_dim == 1
    # z0^2 + z0*z1: lambda = (t, -t) gives weights 2t and 0 -> strict impossible,
    # semi witness with mu = 0 exists
    w = classify_torus(hp("z0^2 + z0*z1", 2))
    assert w.classification == NOT_WEAKLY_STABLE
    assert w.certificate_mu == 0
    assert w.destabilizer is not None


def test_json_shape():
    v = classify_torus(hp("z0*z1 + z2*z3", 4))
    js = v.to_json()
    assert set(js) == {"class", "destabilizer", "mu", "fixing_dim", "basis"}
    assert js["class"] == WEAKLY_STABLE_NOT_STABLE
    assert js["mu"] == "0" and js["fixing_dim"] == 2 and js["basis"] == "given"
    assert isinstance(js["destabilizer"], list)
    s = classify_torus(hp("z0^2 + z1^2 + z2^2 + z3^2", 4)).to_json()
    assert s["destabilizer"] is None and s["mu"] is None


def test_oracle_golden():
    f = hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4)
    v = oracle_classify(f, 6)
    assert v.classification == NOT_WEAKLY_STABLE
    assert v.certificate_mu > 0
    w = oracle_classify(hp("z0*z1 + z2*z3", 4), 3)
    assert w.classification == WEAKLY_STABLE_NOT_STABLE
    assert w.fixing_subspace_dim == 2
    s = oracle_classify(hp("z0^3 + z1^3 + z2^3 + z3^3", 4), 3)
    assert s.classification == STABLE


def test_oracle_box_guard():
    with pytest.raises(ValueError):
        oracle_classify(hp("z0^2 + z1^2", 2), 10**6)


def test_verdicts_consistent_rules():
    mk = lambda cls, lam=None: StabilityVerdict(
        cls,
        WeightVector.from_values(lam) if lam else None,
        0,
        Fraction(0) if lam else None,
    )
    assert verdicts_consistent(mk(STABLE), mk(STABLE), 3)
    assert verdicts_consistent(mk(NOT_WEAKLY_STABLE, (1, -1)), mk(NOT_WEAKLY_STABLE, (1, -1)), 3)
    # box found instability but LP says stable: impossible
    assert not verdicts_consistent(mk(STABLE), mk(NOT_WEAKLY_STABLE, (1, -1)), 3)
    # LP witness beyond the box radius is invisible to the box
    assert verdicts_consistent(mk(NOT_WEAKLY_STABLE, (9, -9)), mk(STABLE), 3)
    assert not verdicts_consistent(mk(NOT_WEAKLY_STABLE, (2, -2)), mk(STABLE), 3)
    # box found a fixing line but LP says stable: impossible
    assert not verdicts_consistent(mk(STABLE), mk(WEAKLY_STABLE_NOT_STABLE, (1, -1)), 3)


def test_lp_and_oracle_agree_randomized():
    rng = Random(909)
    for _ in range(150):
        n = rng.randint(3, 4)
        f = random_hpoly(rng, n, rng.randint(1, 4), 8)
        exact = classify_torus(f)
        boxed = oracle_classify(f, 5)
        assert verdicts_consistent(exact, boxed, 5), (
            f"LP {exact.classification} vs box {boxed.classification} on {f}"
        )


def test_permutation_equivariance():
    rng = Random(910)
    for _ in range(100):
        n = rng.randint(3, 4)
        f = random_hpoly(rng, n, rng.randint(1, 4), 7)
        perm = list(range(n))
        rng.shuffle(perm)
        g_terms = {}
        for mono, c in f.terms.items():
            g_terms[tuple(mono[perm[i]] for i in range(n))] = c
        g = HPoly(n, g_terms)
        vf, vg = classify_torus(f), classify_torus(g)
        assert vf.classification == vg.classification
        assert vf.fixing_subspace_dim == vg.fixing_subspace_dim
        if vg.destabilizer is not None:
            # pull the witness back and check it certifies the same class for f
            vals = [None] * n
            for i in range(n):
                vals[perm[i]] = vg.destabilizer[i]
            pulled = WeightVector.from_values(vals)
            ws = [pulled.dot(m) for m in f.terms]
            assert all(w >= 0 for w in ws)
            if vg.classification == WEAKLY_STABLE_NOT_STABLE:
                assert all(w == 0 for w in ws)
            else:
                assert any(w > 0 for w in ws)
                assert (vf.certificate_mu > 0) == (min(ws) > 0)


_BOGUS_WITNESSES = """\
import sys
from gitstab.poly import parse_poly
from gitstab.stability import _verdict

cases = [
    ("z0^2 + z0*z1", "semi", (0, 0)),  # the zero vector
    ("z0^2 + z0*z1", "semi", (5, 3)),  # not trace-zero
    ("z0^2 + z0*z1", "fixing", (1, -1)),  # moves z0^2
    ("z0^2 + z0*z1", "semi", (-1, 1)),  # weight -2 on z0^2
    ("z0*z1", "semi", (1, -1)),  # every weight zero
    ("z0^2 + z0*z1", "strict", (1, -1)),  # weight 0 on z0*z1
]
print(sys.flags.optimize)
for text, kind, witness in cases:
    try:
        _verdict(parse_poly(text, 2), 0, kind, witness)
    except RuntimeError as exc:
        print(exc)

# The cone program, third to run on a semi form, stops short of its cap.
from fractions import Fraction
from gitstab import lp
from gitstab.stability import classify_torus

real_solve, count = lp.solve, 0

def solve(program, pivot_log=None):
    global count
    count += 1
    out = real_solve(program, pivot_log)
    return out if count != 3 else lp.LPOutcome(out.status, Fraction(0), out.witness)

lp.solve = solve
try:
    classify_torus(parse_poly("z0^2 + z0*z1", 2))
except RuntimeError as exc:
    print(exc)
"""


def test_bogus_destabilizer_rejected_under_optimize():
    # The one witness check and the cone program's cap check must not be
    # asserts: python -O would strip them.
    proc = run_python("-O", "-c", _BOGUS_WITNESSES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1",
        "semi witness 0,0 fails the witness check",
        "semi witness 5,3 fails the witness check",
        "fixing witness 1,-1 fails the witness check",
        "semi witness -1,1 fails the witness check",
        "semi witness 1,-1 fails the witness check",
        "strict witness 1,-1 fails the witness check",
        "cone and decision programs disagree",
    ]


@pytest.mark.parametrize(
    "kind, text, n_vars",
    [
        ("fixing", "z0*z1 + z2*z3", 4),
        ("semi", "z0^2 + z0*z1", 2),
        ("strict", "z0^3 + z0^2*z1", 2),
    ],
)
def test_both_classifiers_check_witnesses_in_one_place(monkeypatch, kind, text, n_vars):
    # With the check for one kind of witness made to fail, the LP and the
    # box classifier both raise on a form whose verdict rests on that kind.
    import gitstab.stability

    monkeypatch.setitem(gitstab.stability._WEIGHT_TESTS, kind, lambda ws: False)
    f = hp(text, n_vars)
    for classify in (classify_torus, lambda f: oracle_classify(f, 2)):
        with pytest.raises(RuntimeError, match=f"{kind} witness .* fails the witness check"):
            classify(f)


def _reference_cone_program(f):
    """The total weight over C in lambda itself, capped at 1, built from the
    definition of C."""
    n = f.n_vars
    gammas = sorted(f.terms, reverse=True)
    total = [sum(g[i] for g in gammas) for i in range(n)]
    cone = [([1] * n, lp.EQ, 0)] + [(list(g), lp.GE, 0) for g in gammas]
    return lp.LinearProgram.maximize(total, cone + [(total, lp.LE, 1)])


def _binomial_sum(rng, n):
    """Binomials z^g + z^h with g + h = (2, ..., 2) in degree n, fewer than
    n - 1 of them: (1, ..., 1) is the midpoint of every segment, so C = L."""
    terms = {}
    for _ in range(rng.randint(1, max(1, n - 2))):
        g = [1] * n
        for _ in range(rng.randint(1, n)):
            i, j = rng.sample(range(n), 2)
            if g[i] > 0 and g[j] < 2:
                g[i] -= 1
                g[j] += 1
        terms[tuple(g)] = Fraction(rng.randint(1, 5))
        terms[tuple(2 - x for x in g)] = Fraction(-rng.randint(1, 5))
    return HPoly(n, terms)


def _nonnegative_form(rng, n):
    """Monomials of weight >= 0 under a random trace-zero vector: never
    stable, and often semi (some weight 0, no strict witness)."""
    lam = random_trace_zero_ints(rng, n, 3)
    degree = rng.randint(1, 4)
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, 10)):
            m = random_monomial(rng, n, degree)
            if lam.dot(m) >= 0:
                terms[m] = Fraction(rng.randint(1, 9))
    return HPoly(n, terms)


def _agreement_forms():
    rng = Random(1313)
    for _ in range(90):
        n = rng.randint(2, 8)
        yield "random", random_hpoly(rng, n, rng.randint(1, 4), 8)
    for _ in range(90):
        yield "nonnegative", _nonnegative_form(rng, rng.randint(2, 8))
    for _ in range(70):
        yield "binomial", _binomial_sum(rng, rng.randint(2, 7))
    for _ in range(60):
        n = rng.randint(2, 4)
        f = random_hpoly(rng, n, rng.randint(2, 3), 4)
        yield "dense", substitute_linear(f, random_invertible(rng, n, 2))


def test_decision_program_agrees_with_cone_program(monkeypatch):
    # The decision program classify_torus solves first must reach the cap
    # exactly when the cone program over lambda does; a semi verdict carries
    # the cone program's own witness.
    real_solve = lp.solve
    outcomes = []

    def solve(program, pivot_log=None):
        outcomes.append(real_solve(program, pivot_log))
        return outcomes[-1]

    monkeypatch.setattr(lp, "solve", solve)
    seen = {}
    for family, f in _agreement_forms():
        outcomes.clear()
        v = classify_torus(f)
        reference = real_solve(_reference_cone_program(f))
        assert reference.value in (0, 1)
        assert outcomes[0].value == reference.value, (family, f)
        assert (v.classification == NOT_WEAKLY_STABLE) == (reference.value == 1), (family, f)
        if family == "binomial":
            assert reference.value == 0
        if v.classification == NOT_WEAKLY_STABLE and v.certificate_mu == 0:
            assert v.destabilizer == WeightVector.from_values(reference.witness).primitive_integer()
        key = (family, v.classification, v.certificate_mu == 0)
        seen[key] = seen.get(key, 0) + 1
    assert sum(seen.values()) >= 300
    for family in ("random", "nonnegative", "dense"):
        assert (family, NOT_WEAKLY_STABLE, True) in seen  # semi verdicts
        assert (family, NOT_WEAKLY_STABLE, False) in seen  # strict verdicts
    assert ("binomial", WEAKLY_STABLE_NOT_STABLE, True) in seen
    assert any(k[:2] == ("dense", STABLE) for k in seen)


@pytest.mark.parametrize(
    "text, n_vars, cls, n_solves",
    [
        ("z0^3 + z1^3 + z2^3 + z3^3", 4, STABLE, 1),
        ("z0^3 + z1^3 + z2^3 + z3^3 + z0^2*z1", 4, STABLE, 1),
        ("z0*z1 + z2*z3", 4, WEAKLY_STABLE_NOT_STABLE, 1),
        ("z0*z1 + z2*z3 + z0^2 + z1^2", 4, WEAKLY_STABLE_NOT_STABLE, 1),
        ("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4, NOT_WEAKLY_STABLE, 2),
        ("z0^3", 4, NOT_WEAKLY_STABLE, 2),
        ("z0^2 + z0*z1", 2, NOT_WEAKLY_STABLE, 3),
    ],
)
def test_programs_run_only_when_needed(monkeypatch, text, n_vars, cls, n_solves):
    real_solve = lp.solve
    logs = []  # one pivot log per solve

    def solve(program, pivot_log=None):
        logs.append([])
        return real_solve(program, logs[-1])

    monkeypatch.setattr(lp, "solve", solve)
    assert classify_torus(hp(text, n_vars)).classification == cls
    assert len(logs) == n_solves
    # The decision program starts from its slack basis.
    assert not any(snap["phase"] == 1 for snap in logs[0])


def test_cone_program_short_of_the_cap_raises(monkeypatch):
    monkeypatch.setattr(lp, "solve", solve_stopping_short(lp.solve, 3))
    msg = "cone and decision programs disagree"
    with pytest.raises(RuntimeError, match=msg):
        classify_torus(hp("z0^2 + z0*z1", 2))


def test_configured_logging_receives_debug_record(caplog):
    # A library caller that imported and configured logging gets the
    # package's DEBUG records, attributed to the function that logged them.
    import logging

    caplog.set_level(logging.DEBUG, logger="gitstab.stability")
    classify_torus(hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4))
    records = [r for r in caplog.records if r.name == "gitstab.stability"]
    assert [r.getMessage() for r in records] == ["destabilizer -7,5,1,1 with mu=3 (strict=True)"]
    assert records[0].levelname == "DEBUG" and records[0].funcName == "classify_torus"
