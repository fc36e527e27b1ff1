"""Exact rational linear programming.

A small two-phase simplex over Fraction entries.  Variables are free (each is
split into a positive and a negative part internally), constraints may be
'<=', '=' or '>=', and the objective is always maximized.  Bland's smallest
index rule makes the pivot sequence, and therefore the reported witness,
deterministic; it also rules out cycling, so termination needs no tolerance
or iteration cap, and a phase that comes back to a basis it has left (a
fault in the pivoting) raises RuntimeError instead of running on.

Pivots are `linalg.eliminate` steps on the tableau plus its cost row; the
simplex is that step's one caller, as `linalg.int_echelon` eliminates on
integers.  Only the pivot row's nonzero entries are touched, and only in rows
with a nonzero entry in the entering column.  The cone programs of
`stability` are sparse and fully degenerate (every right-hand side but the
cap is 0, and the ratio test divides no zero), so this skips most of the
Fraction arithmetic while every value, witness, pivot and `pivot_log`
snapshot stays what the dense tableau gives.

The tableau's virtual columns are x+ | x- | one slack per inequality | one
artificial per '=' or '>=' row, each block in row order, and Bland's rule,
the basis and every snapshot use these indices.  Only x (as x+) | slacks |
the artificials of '=' rows are stored.  The other virtual columns start as
the negation of a stored one, x-_j of x+_j and the artificial of a '>=' row
of its surplus column, and a pivot is a row operation, so they stay that.
One `view` list maps each virtual column to the pair (stored column,
negated), and every read goes through it: a negated column's entries and
reduced cost are minus the stored ones, except that a '>=' artificial costs
-1 in phase one, so its reduced cost there is -1 minus the surplus
column's.  A negated column enters by a `linalg.eliminate` step with sign
-1, which leaves its stored column minus a unit vector; for a '>='
artificial the cost -1 rides on the surplus column's cost entry during that
step.  Phase two reduces its cost against basic columns holding 1 or -1,
and a point or a ray is x+ - x- of the virtual values.  The strict and cone
programs of `stability` have one '>=' row per monomial, so about half of
their virtual columns are stored.

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


def _pivot(tab, crow, basis, pr, e, view, width):
    """Pivot on tab[pr] at virtual column e.  A '>=' artificial (e from
    width on, read negated) enters only in phase one, where its cost -1
    rides on its surplus column for the step."""
    c, neg = view[e]
    art = neg and e >= width
    if art:
        crow[c] += 1
    linalg.eliminate(tab + [crow], pr, c, -1 if neg else 1)
    if art:
        crow[c] -= 1
    basis[pr] = e


def _full_row(line, view, width, offset=0):
    """A stored row written out over the virtual columns, as strings: a
    negated column reads minus its stored entry, and a '>=' artificial
    offset minus it."""
    return [
        *[
            str((offset if k >= width else 0) - line[c] if neg else line[c])
            for k, (c, neg) in enumerate(view)
        ],
        str(line[-1]),
    ]


def _iterate(tab, basis, crow, view, width, pivot_log, phase):
    """Run simplex steps until optimal or unbounded.

    Columns below width may always enter the basis; the artificials only in
    phase one, where their cost is -1.  Returns ('optimal', None) or
    ('unbounded', entering_column).
    """
    offset = -1 if phase == 1 else 0  # a '>=' artificial's cost
    seen = {tuple(basis)}
    while True:
        # Bland: the first column with a positive reduced cost, read through
        # view (offset - crow[c] > 0 is crow[c] < offset).
        e = next(
            (
                k
                for k, (c, neg) in enumerate(view if phase == 1 else view[:width])
                if (crow[c] < (offset if k >= width else 0) if neg else crow[c] > 0)
            ),
            None,
        )
        if e is None:
            return OPTIMAL, None
        c, neg = view[e]
        pr = None
        best = None
        for r in range(len(tab)):
            a = -tab[r][c] if neg else tab[r][c]
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
                    "tableau": [_full_row(row, view, width) for row in tab],
                    "reduced_costs": _full_row(crow, view, width, offset),
                }
            )
        _pivot(tab, crow, basis, pr, e, view, width)
        key = tuple(basis)
        if key in seen:
            raise RuntimeError(f"phase {phase} came back to an earlier basis")
        seen.add(key)


def solve(program: LinearProgram, pivot_log: list | None = None) -> LPOutcome:
    """Exact two-phase simplex with Bland's rule.

    pivot_log, when given, collects one snapshot per pivot for debugging.
    A free variable may end negative: minimizing x subject to x >= -3,

    >>> out = solve(LinearProgram.maximize([-1], [([1], GE, -3)]))
    >>> out.status, out.value, out.witness
    ('optimal', Fraction(3, 1), (Fraction(-3, 1),))
    """
    n = program.n_vars
    # A negative right-hand side is negated together with its row.
    cons = [
        (row, rel, rhs) if rhs >= 0 else (tuple(-x for x in row), _FLIPPED[rel], -rhs)
        for row, rel, rhs in program.constraints
    ]
    # Stored columns: x | slacks | the artificials of '=' rows, each block in
    # row order; view maps the virtual columns onto them (see the module
    # docstring).
    n_slack = sum(rel != EQ for _, rel, _ in cons)
    n_eq = len(cons) - n_slack
    width = 2 * n + n_slack
    view = [(j, False) for j in range(n)] + [(j, True) for j in range(n)]
    view += [(j, False) for j in range(n, n + n_slack)]
    tab = []
    basis = []
    scol, acol = n, n + n_slack
    for row, rel, rhs in cons:
        line = [*row, *[Fraction(0)] * (n_slack + n_eq), rhs]
        if rel != EQ:
            line[scol] = Fraction(1) if rel == LE else Fraction(-1)
            scol += 1
        if rel == LE:
            basis.append(n + scol - 1)
        else:
            basis.append(len(view))
            if rel == GE:
                view.append((scol - 1, True))
            else:
                line[acol] = Fraction(1)
                view.append((acol, False))
                acol += 1
        tab.append(line)

    if len(view) > width:
        # Every artificial starts basic in its row at cost -1, so the reduced
        # phase-one costs are the stored -1s plus the sum of those rows.
        crow = [Fraction(0)] * (n + n_slack) + [Fraction(-1)] * n_eq + [Fraction(0)]
        for line, b in zip(tab, basis):
            if b >= width:
                for j, y in enumerate(line):
                    if y:
                        crow[j] += y
        status, _ = _iterate(tab, basis, crow, view, width, pivot_log, phase=1)
        if status != OPTIMAL:
            raise RuntimeError("phase one is bounded above by zero")
        if -crow[-1] < 0:
            log.debug("infeasible: phase-one optimum %s", -crow[-1])
            return LPOutcome(INFEASIBLE, None, None)
        # Drive leftover artificials out of the basis on the first x+ or
        # slack with a nonzero entry; a row with none left is a redundant
        # constraint and is dropped.
        for r in [r for r, b in enumerate(basis) if b >= width]:
            j = next((j for j in range(n + n_slack) if tab[r][j]), None)
            if j is None:
                continue
            _pivot(tab, crow, basis, r, j if j < n else n + j, view, width)
        keep = [r for r, b in enumerate(basis) if b < width]
        tab = [tab[r] for r in keep]
        basis = [basis[r] for r in keep]

    # The phase-two cost, reduced against each basic column's +1 or -1.
    crow = [*program.objective, *[Fraction(0)] * (n_slack + n_eq + 1)]
    for r, b in enumerate(basis):
        c, neg = view[b]
        if crow[c]:
            linalg.eliminate([tab[r], crow], 0, c, -1 if neg else 1)
    status, e = _iterate(tab, basis, crow, view, width, pivot_log, phase=2)

    # The virtual values: a point's basic values, or a ray's 1 on the
    # entering column and minus the entering column's entry on each basic.
    v = [Fraction(0)] * width
    if e is not None:
        v[e] = Fraction(1)
        c, neg = view[e]
    for r, b in enumerate(basis):
        v[b] = tab[r][-1] if e is None else tab[r][c] if neg else -tab[r][c]
    x = tuple(v[i] - v[n + i] for i in range(n))
    if e is not None:
        _verify(program, x, ray=True)
        return LPOutcome(UNBOUNDED, None, x)
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
    """Deterministic integer basis of {x : row . x = 0 for all rows} for
    nonempty integer rows: the vectors of `linalg.nullspace`."""
    return linalg.nullspace(rows)[0]
