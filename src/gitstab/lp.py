"""Exact rational linear programming.

A small two-phase simplex over Fraction entries.  Variables are free (each is
split into a positive and a negative part internally), constraints may be
'<=', '=' or '>=', and the objective is always maximized.  Bland's smallest
index rule makes the pivot sequence, and therefore the reported witness,
deterministic; it also rules out cycling, so termination needs no tolerance
or iteration cap.

Pivots are `linalg.eliminate` steps on the tableau plus its cost row; the
simplex is that step's one caller, as `linalg.int_echelon` eliminates on
integers.  Only the pivot row's nonzero entries are touched, and only in rows
with a nonzero entry in the entering column.  The cone programs of
`stability` are sparse and fully degenerate (every right-hand side but the
cap is 0, and the ratio test divides no zero), so this skips most of the
Fraction arithmetic while every value, witness, pivot and `pivot_log`
snapshot stays what the dense tableau gives.

The tableau's columns are x+ | x- | one slack per inequality | one
artificial per '=' or '>=' row, each block in row order, and Bland's rule,
the basis and every snapshot use these indices.  The artificial of a '>='
row is not stored.  It starts as the negation of the row's surplus column,
and a pivot is a row operation, so it stays that: its entry is read as minus
the surplus entry, and its reduced cost as -1 (phase one) or 0 (phase two)
minus the surplus column's.  Only phase one reads the artificial block; when
such an artificial re-enters there, the step pivots on the surplus column,
negates the new pivot row and adds it to the cost row once more, for the
cost -1 the stored column lacks.  The strict and cone programs of
`stability` have one '>=' row per monomial, so this drops over a quarter
of their entry updates; a program without artificials runs as before.

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


def _pivot(tab, crow, basis, pr, e, col, mirrored):
    """Pivot on tab[pr] at virtual column e, stored as column col.

    A mirrored e is the artificial of a '>=' row, which enters only in phase
    one: the step runs on its surplus column col, the new pivot row is
    negated to hold the artificial's 1, and the pivot row is added to the
    cost row once more for the cost -1 that the stored column lacks.
    """
    linalg.eliminate(tab + [crow], pr, col)
    if mirrored:
        prow = tab[pr]
        for j, y in enumerate(prow):
            if y:
                prow[j] = -y
                crow[j] -= y
    basis[pr] = e


def _full_row(line, width, arts, offset=0):
    """A stored row written out over the virtual columns, as strings; a
    mirrored artificial's entry is offset minus its surplus column's."""
    return [
        *map(str, line[:width]),
        *[str(offset - line[c] if m else line[c]) for c, m in arts],
        str(line[-1]),
    ]


def _iterate(tab, basis, crow, width, arts, pivot_log, phase):
    """Run simplex steps until optimal or unbounded.

    Columns below width may always enter the basis; the artificials in arts
    only in phase one, where their cost is -1.  Returns ('optimal', None) or
    ('unbounded', entering_column).
    """
    offset = -1 if phase == 1 else 0  # a mirrored artificial's cost
    while True:
        e = next((j for j in range(width) if crow[j] > 0), None)
        if e is None and phase == 1:
            e = next(
                (width + k for k, (c, m) in enumerate(arts) if (offset - crow[c] if m else crow[c]) > 0),
                None,
            )
        if e is None:
            return OPTIMAL, None
        col, mirrored = (e, False) if e < width else arts[e - width]
        pr = None
        best = None
        for r in range(len(tab)):
            a = tab[r][col]
            if mirrored:
                a = -a
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
                    "tableau": [_full_row(row, width, arts) for row in tab],
                    "reduced_costs": _full_row(crow, width, arts, offset),
                }
            )
        _pivot(tab, crow, basis, pr, e, col, mirrored)


def _canonical_cost(cost, tab, basis):
    """Reduce a cost vector against a basis of stored columns; last slot is
    -value.

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
    # Stored columns: x+ | x- | slacks | the artificials of '=' rows, each
    # block in row order (see the module docstring).  arts maps artificial k
    # to the stored column it reads and whether it reads it negated.
    n_slack = sum(rel != EQ for _, rel, _ in cons)
    n_eq = sum(rel == EQ for _, rel, _ in cons)
    width = 2 * n + n_slack
    tab = []
    basis = []
    arts = []
    scol, acol = 2 * n, width
    for row, rel, rhs in cons:
        line = [Fraction(0)] * (width + n_eq) + [rhs]
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
            basis.append(width + len(arts))
            if rel == GE:
                arts.append((scol - 1, True))
            else:
                line[acol] = Fraction(1)
                arts.append((acol, False))
                acol += 1
        tab.append(line)

    if arts:
        # Every artificial starts basic in its row at cost -1, so the reduced
        # phase-one costs are the stored -1s plus the sum of those rows.
        crow = [Fraction(0)] * width + [Fraction(-1)] * n_eq + [Fraction(0)]
        for line, b in zip(tab, basis):
            if b >= width:
                for j, y in enumerate(line):
                    if y:
                        crow[j] += y
        status, _ = _iterate(tab, basis, crow, width, arts, pivot_log, phase=1)
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
            _pivot(tab, crow, basis, r, j, j, False)
        keep = [r for r, b in enumerate(basis) if b < width]
        tab = [tab[r] for r in keep]
        basis = [basis[r] for r in keep]

    cost2 = (
        list(program.objective)
        + [-c for c in program.objective]
        + [Fraction(0)] * (n_slack + n_eq)
    )
    crow = _canonical_cost(cost2, tab, basis)
    status, e = _iterate(tab, basis, crow, width, arts, pivot_log, phase=2)

    if status == UNBOUNDED:
        d_std = [Fraction(0)] * width
        d_std[e] = Fraction(1)
        for r in range(len(tab)):
            d_std[basis[r]] = -tab[r][e]
        ray = tuple(d_std[i] - d_std[n + i] for i in range(n))
        _verify(program, ray, ray=True)
        return LPOutcome(UNBOUNDED, None, ray)

    x_std = [Fraction(0)] * width
    for r in range(len(tab)):
        x_std[basis[r]] = tab[r][-1]
    x = tuple(x_std[i] - x_std[n + i] for i in range(n))
    value = sum((c * v for c, v in zip(program.objective, x)), Fraction(0))
    _verify(program, x, ray=False)
    return LPOutcome(OPTIMAL, value, x)


def _verify(program: LinearProgram, x, ray: bool):
    """Substitute a witness into every constraint: an optimal point against
    its right-hand side, an unbounded ray (which must also improve the
    objective) against 0, as the recession cone has it."""
    if ray and sum((c * v for c, v in zip(program.objective, x)), Fraction(0)) <= 0:
        raise RuntimeError("unbounded ray does not improve the objective")
    for row, rel, rhs in program.constraints:
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        bound = 0 if ray else rhs
        if not (lhs <= bound if rel == LE else lhs >= bound if rel == GE else lhs == bound):
            if ray:
                raise RuntimeError(f"unbounded ray leaves the recession cone at {row} {rel} 0")
            raise RuntimeError(f"simplex witness violates {row} {rel} {rhs}: got {lhs}")


def kernel(rows):
    """Deterministic rational basis of {x : row . x = 0 for all rows}."""
    return linalg.nullspace(rows)
