"""Integer box enumerator and scan.

`iter_trace_zero_box` walks every nonzero trace-zero integer vector in
[-bound, bound]^n (lexicographic order on the first n-1 coordinates, last
coordinate forced by the zero-sum condition); the crosscheck walks it too.
`scan_box` records, against a fixed list of exponent vectors,

  * the first vector whose weights are all positive,
  * the first vector whose weights are all non-negative with at least one
    positive,
  * an integer row-echelon basis of the span of the vectors whose weights all
    vanish.

All arithmetic is on plain Python ints.
"""

from __future__ import annotations

from bisect import insort
from itertools import product
from operator import mul

from .linalg import primitive
from .record import record

# Read by perfbench/run.py's run metadata; there is no compiled kernel.
HAVE_COMPILED = False

# Refuse enumerations beyond this many candidate vectors.
MAX_CANDIDATES = 10**8


@record
class BoxScanResult:
    scanned: int
    strict: tuple | None  # first vector with all support weights positive
    semi: tuple | None  # first vector with weights >= 0, at least one > 0
    fixing_basis: tuple  # integer echelon basis of the vectors with all weights zero


def check_box_size(n_vars: int, bound: int):
    if bound < 1:
        raise ValueError(f"enumeration bound must be positive, got {bound}")
    count = (2 * bound + 1) ** n_vars
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"enumeration box has {count} candidates, above the {MAX_CANDIDATES} limit"
        )


def _absorb(basis, vec):
    """Reduce vec against the echelon basis; extend the basis if independent.

    basis holds (pivot_index, row) pairs sorted by pivot index.  Rows are
    gcd-normalized with a positive pivot.  Returns True when vec enlarged the
    span.
    """
    v = list(vec)
    for pivot, row in basis:
        c = v[pivot]
        if c:
            p = row[pivot]
            v = primitive([a * p - b * c for a, b in zip(v, row)])
    pivot = next((i for i, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    if v[pivot] < 0:
        v = [-a for a in v]
    insort(basis, (pivot, primitive(v)))
    return True


def iter_trace_zero_box(n_vars: int, bound: int):
    """Yield every nonzero integer vector with zero sum in [-bound, bound]^n,
    in the order the scan visits them."""
    rng = range(-bound, bound + 1)
    for head in product(rng, repeat=n_vars - 1):
        last = -sum(head)
        if last < -bound or last > bound:
            continue
        if last == 0 and not any(head):
            continue
        yield head + (last,)


def scan_box(gammas, n_vars: int, bound: int) -> BoxScanResult:
    """Run the scan over the support rows `gammas`."""
    check_box_size(n_vars, bound)
    gs = [tuple(int(x) for x in g) for g in gammas]
    if not gs:
        raise ValueError("support must be nonempty")
    if any(len(g) != n_vars for g in gs):
        raise ValueError("support row length does not match n_vars")

    strict = None
    semi = None
    scanned = 0
    basis: list = []
    for lam in iter_trace_zero_box(n_vars, bound):
        scanned += 1
        weights = []
        for g in gs:
            w = sum(map(mul, lam, g))
            if w < 0:
                break
            weights.append(w)
        else:  # no weight is negative
            if not max(weights):
                _absorb(basis, lam)
                continue
            if semi is None:
                semi = lam
            if strict is None and min(weights) > 0:
                strict = lam
    return BoxScanResult(scanned, strict, semi, tuple(tuple(row) for _, row in basis))
