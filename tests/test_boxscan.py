"""Box scan: the trace-zero enumerator, the scan's witnesses and fixing
basis, and its input checks."""

from itertools import product
from math import gcd
from random import Random

import pytest

from gitstab import boxscan, linalg
from helpers import random_monomial


def test_iter_trace_zero_box():
    pts = list(boxscan.iter_trace_zero_box(3, 1))
    assert (0, 0, 0) not in pts
    assert all(sum(p) == 0 and max(abs(x) for x in p) <= 1 for p in pts)
    assert len(pts) == len(set(pts)) == 6
    # lexicographic order on the free coordinates
    assert pts == sorted(pts, key=lambda p: p[:-1])


def test_scan_counts_match_enumeration():
    gammas = [(3, 0, 0, 0)]
    res = boxscan.scan_box(gammas, 4, 2)
    assert res.scanned == len(list(boxscan.iter_trace_zero_box(4, 2)))


def test_scan_single_monomial():
    # z0^3: strict witness exists, nothing fixes it except lambda0 = 0 plane
    res = boxscan.scan_box([(3, 0, 0, 0)], 4, 2)
    assert res.strict is not None
    assert sum(res.strict) == 0 and 3 * res.strict[0] > 0
    assert len(res.fixing_basis) == 2  # lambda0 = 0, trace zero
    assert all(row[0] == 0 for row in res.fixing_basis)


def test_scan_fermat_cubic_sees_nothing():
    gammas = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    res = boxscan.scan_box(gammas, 4, 3)
    assert res.strict is None and res.semi is None
    assert res.fixing_basis == ()


def test_scan_hyperbolic_quadric_fixing_plane():
    gammas = [(1, 1, 0, 0), (0, 0, 1, 1)]
    res = boxscan.scan_box(gammas, 4, 2)
    assert res.strict is None and res.semi is None
    assert len(res.fixing_basis) == 2
    for row in res.fixing_basis:
        assert row[0] + row[1] == 0 and row[2] + row[3] == 0


def test_box_size_guard():
    with pytest.raises(ValueError):
        boxscan.check_box_size(8, 50)
    with pytest.raises(ValueError):
        boxscan.scan_box([(1, 1)], 2, 0)
    with pytest.raises(ValueError, match="nonempty"):
        boxscan.scan_box([], 2, 1)
    with pytest.raises(ValueError, match="row length"):
        boxscan.scan_box([(1, 1), (2, 0, 0)], 2, 1)


def test_python_kernel_handles_big_integers():
    big = 2**40
    res = boxscan.scan_box([(big, 1)], 2, 3)
    assert res.semi is not None


def _scan_from_definition(gammas, n_vars, bound):
    """(scanned, strict, semi, zero-weight vectors), straight from the
    definitions, over the box in lexicographic order."""
    scanned, strict, semi, zeros = 0, None, None, []
    for lam in product(range(-bound, bound + 1), repeat=n_vars):
        if sum(lam) or not any(lam):
            continue
        scanned += 1
        weights = [sum(l * e for l, e in zip(lam, g)) for g in gammas]
        if min(weights) < 0:
            continue
        if max(weights) == 0:
            zeros.append(lam)
            continue
        if semi is None:
            semi = lam
        if strict is None and min(weights) > 0:
            strict = lam
    return scanned, strict, semi, zeros


def _rank(rows):
    return linalg.rank([linalg.clear_denominators(r)[0] for r in rows]) if rows else 0


def test_scan_matches_the_definition_on_random_supports():
    rng = Random(2024)
    for _ in range(300):
        n_vars = rng.randint(2, 5)
        bound = rng.randint(1, 3)
        degree = rng.randint(2, 4)
        gammas = sorted({random_monomial(rng, n_vars, degree) for _ in range(rng.randint(1, 5))})
        scanned, strict, semi, zeros = _scan_from_definition(gammas, n_vars, bound)
        res = boxscan.scan_box(gammas, n_vars, bound)
        assert (res.scanned, res.strict, res.semi) == (scanned, strict, semi)
        for row in res.fixing_basis:
            assert sum(row) == 0 and gcd(*row) == 1
            assert all(sum(l * e for l, e in zip(row, g)) == 0 for g in gammas)
        assert len(res.fixing_basis) == _rank(res.fixing_basis)
        assert _rank(res.fixing_basis) == _rank(zeros) == _rank(zeros + list(res.fixing_basis))
