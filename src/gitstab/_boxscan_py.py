"""Pure-Python integer box scan.

Reference implementation of the enumeration kernel: walk every nonzero
trace-zero integer vector in [-bound, bound]^n with `iter_trace_zero_box`
(lexicographic order on the first n-1 coordinates, last coordinate forced by
the zero-sum condition) and record, against a fixed list of exponent vectors,

  * the first vector whose weights are all positive,
  * the first vector whose weights are all non-negative with at least one
    positive,
  * an integer row-echelon basis of the span of the vectors whose weights all
    vanish.

The compiled twin in _boxscan.pyx follows this code line for line; outputs
must agree exactly, which the test suite checks.  All arithmetic is on plain
Python ints, so there is no overflow concern here.
"""

from __future__ import annotations

from bisect import insort
from itertools import product
from math import gcd


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
            v = [a * p - b * c for a, b in zip(v, row)]
            g = 0
            for a in v:
                g = gcd(g, a)
            if g > 1:
                v = [a // g for a in v]
    pivot = next((i for i, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    if v[pivot] < 0:
        v = [-a for a in v]
    g = 0
    for a in v:
        g = gcd(g, a)
    if g > 1:
        v = [a // g for a in v]
    insort(basis, (pivot, v))
    return True


def iter_trace_zero_box(n_vars: int, bound: int):
    """Yield every nonzero integer vector with zero sum in [-bound, bound]^n,
    in the order the scan kernels visit them."""
    rng = range(-bound, bound + 1)
    for head in product(rng, repeat=n_vars - 1):
        last = -sum(head)
        if last < -bound or last > bound:
            continue
        if last == 0 and not any(head):
            continue
        yield head + (last,)


def scan_box_py(gammas, n_vars: int, bound: int):
    """Returns (scanned, strict, semi, rank, basis_rows, zero_weight_count)."""
    strict = None
    semi = None
    scanned = 0
    zero_count = 0
    basis: list = []
    for lam in iter_trace_zero_box(n_vars, bound):
        scanned += 1
        all_nonneg = True
        any_pos = False
        all_pos = True
        for g in gammas:
            w = 0
            for l, gi in zip(lam, g):
                w += l * gi
            if w < 0:
                all_nonneg = False
                break
            if w > 0:
                any_pos = True
            else:
                all_pos = False
        if not all_nonneg:
            continue
        if any_pos:
            if semi is None:
                semi = lam
            if all_pos and strict is None:
                strict = lam
        else:
            zero_count += 1
            _absorb(basis, lam)
    return (
        scanned,
        strict,
        semi,
        len(basis),
        tuple(tuple(row) for _, row in basis),
        zero_count,
    )
