"""Stability classification: golden cases, oracle agreement, equivariance."""

from fractions import Fraction
from random import Random

import pytest

from gitstab.poly import parse_poly
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
from helpers import hp, random_hpoly, run_python


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
    assert v.classification == NOT_WEAKLY_STABLE and v.box_bound == 6
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
    mk = lambda cls, lam=None, box=None: StabilityVerdict(
        cls,
        WeightVector.from_values(lam) if lam else None,
        0,
        Fraction(0) if lam else None,
        box,
    )
    assert verdicts_consistent(mk(STABLE), mk(STABLE, box=3), 3)
    assert verdicts_consistent(
        mk(NOT_WEAKLY_STABLE, (1, -1)), mk(NOT_WEAKLY_STABLE, (1, -1), 3), 3
    )
    # box found instability but LP says stable: impossible
    assert not verdicts_consistent(mk(STABLE), mk(NOT_WEAKLY_STABLE, (1, -1), 3), 3)
    # LP witness beyond the box radius is invisible to the box
    assert verdicts_consistent(mk(NOT_WEAKLY_STABLE, (9, -9)), mk(STABLE, box=3), 3)
    assert not verdicts_consistent(mk(NOT_WEAKLY_STABLE, (2, -2)), mk(STABLE, box=3), 3)
    # box found a fixing line but LP says stable: impossible
    assert not verdicts_consistent(mk(STABLE), mk(WEAKLY_STABLE_NOT_STABLE, (1, -1), 3), 3)


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
        from gitstab.poly import HPoly

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
        _verdict(parse_poly(text, 2), 0, None, kind, witness)
    except RuntimeError as exc:
        print(exc)
"""


def test_bogus_destabilizer_rejected_under_optimize():
    # The one witness check must not be an assert: python -O would strip it.
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


def test_configured_logging_receives_debug_record(caplog):
    # A library caller that imported and configured logging gets the
    # package's DEBUG records, attributed to the function that logged them.
    import logging

    caplog.set_level(logging.DEBUG, logger="gitstab.stability")
    classify_torus(hp("z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3", 4))
    records = [r for r in caplog.records if r.name == "gitstab.stability"]
    assert [r.getMessage() for r in records] == ["destabilizer -7,5,1,1 with mu=3 (strict=True)"]
    assert records[0].levelname == "DEBUG" and records[0].funcName == "classify_torus"
