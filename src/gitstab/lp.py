"""Exact rational linear programming.

A small two-phase simplex over Fraction entries.  Variables are free (each is
split into a positive and a negative part internally), constraints may be
'<=', '=' or '>=', and the objective is always maximized.  Bland's smallest
index rule makes the pivot sequence, and therefore the reported witness,
deterministic; it also rules out cycling, so termination needs no tolerance
or iteration cap.

Pivots are `linalg.eliminate` steps on the tableau plus its cost row; the
simplex is that step's one caller, as `linalg.rref` eliminates on integers.
Only the pivot row's nonzero entries are touched, and only in rows with a
nonzero entry in the entering column.  The cone programs of `stability` are
sparse and fully degenerate (every right-hand side but the cap is 0, and the
ratio test divides no zero), so this skips most of the Fraction arithmetic
while every value, witness, pivot and `pivot_log` snapshot stays what the
dense tableau gives.

Every answer is re-verified by substitution before it is returned: optimal
witnesses must satisfy all constraints exactly, unbounded rays must lie in
the recession cone and strictly improve the objective.  A verification
failure would mean a bug in the pivoting itself and raises RuntimeError.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .lazylog import LazyLogger
from .linalg import frac
from .record import record

log = LazyLogger(__name__)

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)
_FLIPPED = {LE: GE, EQ: EQ, GE: LE}

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


@record
class LinearProgram:
    """Maximize objective . x subject to row . x <rel> rhs for each constraint."""

    objective: tuple
    constraints: tuple  # of (row, relation, rhs)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @classmethod
    def maximize(cls, objective, constraints) -> "LinearProgram":
        obj = tuple(frac(c) for c in objective)
        n = len(obj)
        rows = []
        for row, rel, rhs in constraints:
            row = tuple(frac(x) for x in row)
            if len(row) != n:
                raise ValueError(f"constraint row has {len(row)} entries, expected {n}")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            rows.append((row, rel, frac(rhs)))
        return cls(obj, tuple(rows))


@record
class LPOutcome:
    """status is 'optimal' (value + witness), 'unbounded' (witness is an
    improving ray) or 'infeasible' (no witness)."""

    status: str
    value: Fraction | None
    witness: tuple | None


def _pivot(tab, crow, basis, pr, e):
    linalg.eliminate(tab + [crow], pr, e)
    basis[pr] = e


def _iterate(tab, basis, crow, n_enterable, pivot_log, phase):
    """Run simplex steps until optimal or unbounded.

    Only columns below n_enterable may enter the basis (this is how phase two
    locks out the artificial columns).  Returns ('optimal', None) or
    ('unbounded', entering_column).
    """
    while True:
        e = next((j for j in range(n_enterable) if crow[j] > 0), None)
        if e is None:
            return OPTIMAL, None
        pr = None
        best = None
        for r in range(len(tab)):
            a = tab[r][e]
            if a > 0:
                rhs = tab[r][-1]
                ratio = rhs / a if rhs else rhs
                if best is None or ratio < best or (ratio == best and basis[r] < basis[pr]):
                    best = ratio
                    pr = r
        if pr is None:
            return UNBOUNDED, e
        if pivot_log is not None:
            pivot_log.append(
                {
                    "phase": phase,
                    "entering": e,
                    "leaving": basis[pr],
                    "tableau": [[str(x) for x in row] for row in tab],
                    "reduced_costs": [str(x) for x in crow],
                }
            )
        _pivot(tab, crow, basis, pr, e)


def _canonical_cost(cost, tab, basis):
    """Reduce a cost vector against the current basis; last slot is -value.

    Each basic column holds a 1 in its row, so each reduction is one
    `eliminate` step on that row that touches the cost row alone.
    """
    crow = list(cost) + [Fraction(0)]
    for r, bcol in enumerate(basis):
        if crow[bcol]:
            linalg.eliminate([tab[r], crow], 0, bcol)
    return crow


def solve(program: LinearProgram, pivot_log: list | None = None) -> LPOutcome:
    """Exact two-phase simplex with Bland's rule.

    pivot_log, when given, collects one snapshot per pivot for debugging.
    """
    n = program.n_vars
    # A negative right-hand side is negated together with its row.
    cons = [
        (row, rel, rhs) if rhs >= 0 else (tuple(-x for x in row), _FLIPPED[rel], -rhs)
        for row, rel, rhs in program.constraints
    ]
    # Columns: x+ | x- | one slack per inequality | one artificial per row
    # that has no +1 slack to start the basis with, each block in row order.
    n_slack = sum(rel != EQ for _, rel, _ in cons)
    n_art = sum(rel != LE for _, rel, _ in cons)
    width = 2 * n + n_slack
    total = width + n_art
    tab = []
    basis = []
    scol, acol = 2 * n, width
    for row, rel, rhs in cons:
        line = [Fraction(0)] * total + [rhs]
        for j, x in enumerate(row):
            if x:
                line[j] = x
                line[n + j] = -x
        if rel != EQ:
            line[scol] = Fraction(1) if rel == LE else Fraction(-1)
            scol += 1
        if rel == LE:
            basis.append(scol - 1)
        else:
            line[acol] = Fraction(1)
            basis.append(acol)
            acol += 1
        tab.append(line)

    if n_art:
        cost1 = [Fraction(0)] * width + [Fraction(-1)] * n_art
        crow = _canonical_cost(cost1, tab, basis)
        status, _ = _iterate(tab, basis, crow, total, pivot_log, phase=1)
        if status != OPTIMAL:
            raise RuntimeError("phase one is bounded above by zero")
        if -crow[-1] < 0:
            log.debug("infeasible: phase-one optimum %s", -crow[-1])
            return LPOutcome(INFEASIBLE, None, None)
        # Drive leftover artificials (columns from width on) out of the basis;
        # a row with no real entries left is a redundant constraint and is
        # dropped.
        for r in [r for r, b in enumerate(basis) if b >= width]:
            j = next((j for j in range(width) if tab[r][j]), None)
            if j is None:
                continue
            _pivot(tab, crow, basis, r, j)
        keep = [r for r, b in enumerate(basis) if b < width]
        tab = [tab[r] for r in keep]
        basis = [basis[r] for r in keep]

    cost2 = (
        list(program.objective)
        + [-c for c in program.objective]
        + [Fraction(0)] * (n_slack + n_art)
    )
    crow = _canonical_cost(cost2, tab, basis)
    status, e = _iterate(tab, basis, crow, width, pivot_log, phase=2)

    if status == UNBOUNDED:
        d_std = [Fraction(0)] * total
        d_std[e] = Fraction(1)
        for r in range(len(tab)):
            d_std[basis[r]] = -tab[r][e]
        ray = tuple(d_std[i] - d_std[n + i] for i in range(n))
        _verify_ray(program, ray)
        return LPOutcome(UNBOUNDED, None, ray)

    x_std = [Fraction(0)] * total
    for r in range(len(tab)):
        x_std[basis[r]] = tab[r][-1]
    x = tuple(x_std[i] - x_std[n + i] for i in range(n))
    value = sum((c * v for c, v in zip(program.objective, x)), Fraction(0))
    _verify_point(program, x)
    return LPOutcome(OPTIMAL, value, x)


def _verify_point(program: LinearProgram, x):
    for row, rel, rhs in program.constraints:
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        ok = lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        if not ok:
            raise RuntimeError(f"simplex witness violates {row} {rel} {rhs}: got {lhs}")


def _verify_ray(program: LinearProgram, d):
    gain = sum((c * v for c, v in zip(program.objective, d)), Fraction(0))
    if gain <= 0:
        raise RuntimeError("unbounded ray does not improve the objective")
    for row, rel, rhs in program.constraints:
        lhs = sum((a * v for a, v in zip(row, d)), Fraction(0))
        ok = lhs <= 0 if rel == LE else lhs >= 0 if rel == GE else lhs == 0
        if not ok:
            raise RuntimeError(f"unbounded ray leaves the recession cone at {row} {rel} 0")


def kernel(rows):
    """Deterministic rational basis of {x : row . x = 0 for all rows}."""
    return linalg.nullspace(rows)
