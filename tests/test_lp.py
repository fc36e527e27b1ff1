"""Exact simplex: golden cases, random verification, Fourier-Motzkin oracle."""

import time
from fractions import Fraction
from random import Random

import pytest

from gitstab import linalg, lp
from gitstab.cli import main
from gitstab.lp import EQ, GE, LE, LinearProgram, solve, kernel


def _program(obj, cons):
    return LinearProgram.maximize(obj, cons)


def test_golden_bounded():
    out = solve(_program([1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)]))
    assert out.status == lp.OPTIMAL
    assert out.value == Fraction(14, 5)
    assert out.witness == (Fraction(8, 5), Fraction(6, 5))


def test_golden_infeasible():
    out = solve(_program([1], [([1], LE, 0), ([1], GE, 1)]))
    assert out.status == lp.INFEASIBLE
    assert out.value is None and out.witness is None


def test_golden_unbounded_with_ray():
    out = solve(_program([1, 0], [([0, 1], LE, 1)]))
    assert out.status == lp.UNBOUNDED
    ray = out.witness
    assert ray[0] > 0 and ray[1] <= 0


def test_free_variables_negative_witness():
    # minimize x by maximizing -x with x >= -3 as the only bound
    out = solve(_program([-1], [([1], GE, -3)]))
    assert out.status == lp.OPTIMAL
    assert out.value == 3 and out.witness == (Fraction(-3),)


def test_equality_constraints():
    out = solve(_program([1, 1, 1], [([1, 1, 1], EQ, 0), ([1, 0, 0], LE, 5)]))
    assert out.status == lp.OPTIMAL and out.value == 0


def test_degenerate_cone_program():
    # the cubic-cone shape: trace zero, all weights >= 0, capped total
    gammas = [(3, 0, 0, 0), (0, 3, 0, 0), (1, 1, 1, 0)]
    total = [sum(g[i] for g in gammas) for i in range(4)]
    cons = [([1] * 4, EQ, 0)] + [(g, GE, 0) for g in gammas] + [(total, LE, 1)]
    out = solve(_program(total, cons))
    assert out.status == lp.OPTIMAL and out.value == 1


def test_pivot_log_collects_snapshots():
    log: list = []
    solve(_program([1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)]), pivot_log=log)
    assert log, "at least one pivot must be taken"
    assert {"phase", "entering", "leaving", "tableau"} <= set(log[0])


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram.maximize([1, 2], [([1], LE, 0)])
    with pytest.raises(ValueError):
        LinearProgram.maximize([1], [([1], "<", 0)])


def test_verification_rejects_bad_points_and_rays():
    # The one check behind every answer: a point against each right-hand
    # side, a ray against 0 after it must improve the objective.
    program = _program([1, 1], [([1, 0], LE, 1), ([0, 1], EQ, 2), ([1, 1], GE, 0)])
    x_row = "(Fraction(1, 1), Fraction(0, 1))"
    y_row = "(Fraction(0, 1), Fraction(1, 1))"
    sum_row = "(Fraction(1, 1), Fraction(1, 1))"
    cases = [
        ((2, 2), False, f"simplex witness violates {x_row} <= 1: got 2"),
        ((0, 1), False, f"simplex witness violates {y_row} = 2: got 1"),
        ((-3, 2), False, f"simplex witness violates {sum_row} >= 0: got -1"),
        ((1, 0), True, f"unbounded ray leaves the recession cone at {x_row} <= 0"),
        ((0, 1), True, f"unbounded ray leaves the recession cone at {y_row} = 0"),
        ((-1, 0), True, "unbounded ray does not improve the objective"),
        ((0, 0), True, "unbounded ray does not improve the objective"),
    ]
    for x, ray, message in cases:
        with pytest.raises(RuntimeError) as exc:
            lp._verify(program, tuple(map(Fraction, x)), ray)
        assert str(exc.value) == message
    lp._verify(program, (Fraction(1), Fraction(2)), False)
    lp._verify(_program([1, 1], [([1, 0], LE, 1), ([1, 1], GE, 0)]), (0, 1), True)


def test_a_pivot_that_moves_nothing_is_an_error_not_a_hang(monkeypatch, capsys):
    # With a no-op elimination the tableau never changes, so the step after
    # the first pivot pivots on the same entry and comes back to the basis
    # it made.  A run without the repeated-basis check would pivot forever;
    # the fake elimination fails it after 100 steps instead.
    steps = []

    def no_op(rows, pr, c):
        steps.append(c)
        if len(steps) > 100:
            raise AssertionError("the simplex kept pivoting on a tableau that never changes")

    monkeypatch.setattr(linalg, "eliminate", no_op)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="phase 2 came back to an earlier basis"):
        solve(_program([1, 1], [([1, 0], LE, 1), ([0, 1], LE, 1)]))
    assert time.perf_counter() - start < 1
    # The classifier's programs fail the same way, as an internal error.
    assert main(["stability", "-f", "z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3"]) == 6
    assert capsys.readouterr().err == "internal error: phase 2 came back to an earlier basis\n"


def test_kernel_golden():
    basis = kernel([(1, 1, 1, 1), (1, 2, 0, 0)])
    assert basis == [[-2, 1, 1, 0], [-2, 1, 0, 1]]


# -- randomized cross-checks ------------------------------------------------


def _random_program(rng: Random, n_max=4, m_max=5):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    cons = []
    for _ in range(m):
        row = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        rel = rng.choice([LE, GE, EQ])
        rhs = Fraction(rng.randint(-6, 6))
        cons.append((row, rel, rhs))
    return _program(obj, cons)


def _satisfies(cons, x):
    for row, rel, rhs in cons:
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        if rel == LE and lhs > rhs:
            return False
        if rel == GE and lhs < rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def _fm_feasible(cons, n):
    """Fourier-Motzkin feasibility over the rationals, written independently
    of the simplex.  Equalities are expanded into two inequalities; variables
    are eliminated left to right.  Returns True when the system is feasible."""
    rows = []  # (coeffs, rhs) meaning coeffs . x <= rhs
    for row, rel, rhs in cons:
        if rel in (LE, EQ):
            rows.append((list(row), rhs))
        if rel in (GE, EQ):
            rows.append(([-a for a in row], -rhs))
    for i in range(n):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            if coeffs[i] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[i] < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new = rest
        for pc, pr in pos:
            for nc, nr in neg:
                scale_p = 1 / pc[i]
                scale_n = -1 / nc[i]
                coeffs = [a * scale_p + b * scale_n for a, b in zip(pc, nc)]
                new.append((coeffs, pr * scale_p + nr * scale_n))
        rows = new
    return all(rhs >= 0 for _, rhs in rows)


def test_random_against_fourier_motzkin():
    rng = Random(77)
    checked = 0
    for _ in range(150):
        prog = _random_program(rng, n_max=3, m_max=4)
        out = solve(prog)
        feasible = _fm_feasible(prog.constraints, prog.n_vars)
        if out.status == lp.INFEASIBLE:
            assert not feasible
        else:
            assert feasible
            checked += 1
        if out.status == lp.OPTIMAL:
            assert _satisfies(prog.constraints, out.witness)
            assert sum(
                (c * v for c, v in zip(prog.objective, out.witness)), Fraction(0)
            ) == out.value
            # optimality: demanding any more objective must be infeasible
            eps = Fraction(1, 1000000)
            tightened = list(prog.constraints) + [
                (tuple(-c for c in prog.objective), LE, -(out.value + eps))
            ]
            assert not _fm_feasible(tightened, prog.n_vars)
    assert checked > 30, "the generator should produce plenty of feasible programs"


def test_random_unbounded_rays_verified():
    rng = Random(78)
    seen = 0
    for _ in range(200):
        prog = _random_program(rng, n_max=3, m_max=3)
        out = solve(prog)  # internal verification raises on a bad ray
        if out.status == lp.UNBOUNDED:
            seen += 1
            gain = sum((c * v for c, v in zip(prog.objective, out.witness)), Fraction(0))
            assert gain > 0
    assert seen > 10, "the generator should produce unbounded programs"


def test_determinism():
    rng = Random(79)
    for _ in range(40):
        prog = _random_program(rng)
        assert solve(prog) == solve(prog)


# -- differential check against the dense Fraction simplex -------------------


def _dense_solve(program, pivot_log):
    """The two-phase Bland simplex with a dense Fraction tableau: every pivot
    rewrites every entry of every row with a nonzero in the entering column.
    It is the reference the sparse `linalg.eliminate` pivots must reproduce
    entry for entry, so it shares no code with `lp.solve`.  Returns
    (status, value, witness, number of artificials driven out)."""
    Z = Fraction(0)
    n = program.n_vars
    flip = {LE: GE, GE: LE, EQ: EQ}
    cons = [
        (tuple(-x for x in row), -rhs, flip[rel]) if rhs < 0 else (row, rhs, rel)
        for row, rel, rhs in program.constraints
    ]
    n_slack = sum(rel != EQ for _, _, rel in cons)
    n_art = sum(rel != LE for _, _, rel in cons)
    width = 2 * n + n_slack
    total = width + n_art
    tab, basis, art = [], [], []
    si, ai = 2 * n, width
    for row, rhs, rel in cons:
        line = [Z] * (total + 1)
        for j, x in enumerate(row):
            if x:
                line[j], line[n + j] = x, -x
        line[-1] = rhs
        if rel != EQ:
            line[si] = Fraction(1 if rel == LE else -1)
            si += 1
        if rel == LE:
            basis.append(si - 1)
        else:
            line[ai] = Fraction(1)
            basis.append(ai)
            art.append(ai)
            ai += 1
        tab.append(line)

    def pivot(crow, pr, e):
        pv = tab[pr][e]
        tab[pr] = [x / pv for x in tab[pr]]
        for r in range(len(tab)):
            if r != pr and tab[r][e]:
                f = tab[r][e]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[pr])]
        if crow[e]:
            f = crow[e]
            crow[:] = [x - f * y for x, y in zip(crow, tab[pr])]
        basis[pr] = e

    def canonical(cost):
        crow = list(cost) + [Z]
        for r, b in enumerate(basis):
            if crow[b]:
                c = crow[b]
                crow = [x - c * y for x, y in zip(crow, tab[r])]
        return crow

    def iterate(crow, enterable, phase):
        while True:
            e = next((j for j in range(enterable) if crow[j] > 0), None)
            if e is None:
                return None
            pr = None
            for r in range(len(tab)):
                if tab[r][e] > 0:
                    ratio = tab[r][-1] / tab[r][e]
                    if pr is None or ratio < best or (ratio == best and basis[r] < basis[pr]):
                        best, pr = ratio, r
            if pr is None:
                return e
            pivot_log.append(
                {
                    "phase": phase,
                    "entering": e,
                    "leaving": basis[pr],
                    "tableau": [[str(x) for x in row] for row in tab],
                    "reduced_costs": [str(x) for x in crow],
                }
            )
            pivot(crow, pr, e)

    driven = 0
    if art:
        crow = canonical([Fraction(-1) if j in art else Z for j in range(total)])
        if iterate(crow, total, 1) is not None:
            raise AssertionError("phase one is bounded")
        if crow[-1] > 0:
            return lp.INFEASIBLE, None, None, driven
        for r in [r for r in range(len(tab)) if basis[r] in art]:
            j = next((j for j in range(width) if tab[r][j]), None)
            if j is not None:
                pivot(crow, r, j)
                driven += 1
        keep = [r for r in range(len(tab)) if basis[r] not in art]
        tab[:] = [tab[r] for r in keep]
        basis[:] = [basis[r] for r in keep]

    obj = list(program.objective)
    crow = canonical(obj + [-c for c in obj] + [Z] * (n_slack + n_art))
    e = iterate(crow, width, 2)
    point = [Z] * total
    if e is not None:
        point[e] = Fraction(1)
    for r, b in enumerate(basis):
        point[b] = -tab[r][e] if e is not None else tab[r][-1]
    x = tuple(point[i] - point[n + i] for i in range(n))
    if e is not None:
        return lp.UNBOUNDED, None, x, driven
    return lp.OPTIMAL, sum((c * v for c, v in zip(obj, x)), Z), x, driven


def _differential_program(rng: Random, case: int):
    """Seeded programs covering every status and the artificial drive-out:
    mixed relations, zero and nonzero right-hand sides, rational entries,
    redundant equalities (rational combinations of earlier rows), and the
    capped cone shape of `stability.classify_torus`."""
    if case % 4 == 3:
        n = rng.randint(2, 5)
        gammas = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))}
        gammas = sorted(gammas, reverse=True)
        total = [sum(g[i] for g in gammas) for i in range(n)]
        cons = [([1] * n, EQ, 0)] + [(g, GE, 0) for g in gammas] + [(total, LE, 1)]
        return _program(total, cons)
    n = rng.randint(1, 5)
    den = 1 if case % 2 else 3

    def entry(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, den))

    obj = [entry(4) for _ in range(n)]
    cons = []
    for _ in range(rng.randint(1, 6)):
        row = [entry(4) if rng.random() < 0.7 else Fraction(0) for _ in range(n)]
        rhs = entry(6) if rng.random() < 0.6 else Fraction(0)
        cons.append((row, rng.choice([LE, GE, EQ]), rhs))
    if rng.random() < 0.4:
        a, b = rng.choice(cons), rng.choice(cons)
        s, t = entry(3), entry(3)
        row = [s * x + t * y for x, y in zip(a[0], b[0])]
        rhs = s * a[2] + t * b[2]
        cons.insert(rng.randint(0, len(cons)), (row, EQ, rhs))
    return _program(obj, cons)


def test_sparse_pivots_match_dense_simplex():
    rng = Random(2025)
    statuses = {}
    driven_out = 0
    for case in range(400):
        prog = _differential_program(rng, case)
        got_log, want_log = [], []
        got = solve(prog, pivot_log=got_log)
        *want, driven = _dense_solve(prog, want_log)
        assert (got.status, got.value, got.witness) == tuple(want)
        assert got_log == want_log
        statuses[got.status] = statuses.get(got.status, 0) + 1
        driven_out += driven
    assert min(statuses.get(s, 0) for s in (lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED)) >= 30
    assert driven_out >= 30, "redundant equalities should leave artificials to drive out"


def _artificial_relations(program):
    """The relation of each artificial's row, keyed by the artificial's
    column: the columns run x+ | x- | slacks | artificials, after a row with
    a negative right-hand side has been flipped."""
    flip = {LE: GE, GE: LE, EQ: EQ}
    rels = [rel if rhs >= 0 else flip[rel] for _, rel, rhs in program.constraints]
    width = 2 * program.n_vars + sum(rel != EQ for rel in rels)
    return {width + k: rel for k, rel in enumerate(rel for rel in rels if rel != LE)}


def _mirror_program(rng: Random, case: int):
    """The three shapes the stored '>=' artificials must get right: the cone
    program of `stability.classify_torus` on homogeneous exponents (= and
    >= rows, where a >= artificial sometimes re-enters in phase one), the
    mixed programs of `_differential_program`, and <= rows alone."""
    if case % 3 == 0:
        n, d = rng.randint(4, 5), rng.randint(3, 4)
        gammas = set()
        for _ in range(rng.randint(6, 10)):
            cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
            gammas.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, d])))
        gammas = sorted(gammas, reverse=True)
        total = [sum(g[i] for g in gammas) for i in range(n)]
        cons = [([1] * n, EQ, 0)] + [(g, GE, 0) for g in gammas] + [(total, LE, 1)]
        return _program(total, cons)
    if case % 3 == 1:
        return _differential_program(rng, case)
    n = rng.randint(1, 4)
    obj = [rng.randint(-4, 4) for _ in range(n)]
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
    return _program(obj, [(row, LE, rng.randint(0, 6)) for row in rows])


def test_stored_artificials_match_dense_simplex():
    # The artificial of a >= row is read through its surplus column; every
    # snapshot must still be the dense tableau's, in all three shapes.
    rng = Random(2026)
    reentered = mixed = le_only = 0
    for case in range(240):
        prog = _mirror_program(rng, case)
        got_log, want_log = [], []
        got = solve(prog, pivot_log=got_log)
        *want, _ = _dense_solve(prog, want_log)
        assert (got.status, got.value, got.witness) == tuple(want)
        assert got_log == want_log
        rels = _artificial_relations(prog)
        reentered += any(s["phase"] == 1 and rels.get(s["entering"]) == GE for s in got_log)
        mixed += {EQ, GE} <= set(rels.values())
        le_only += all(rel == LE for _, rel, _ in prog.constraints)
    assert reentered >= 5, "a >= artificial should re-enter the basis in phase one"
    assert mixed >= 60 and le_only >= 60
