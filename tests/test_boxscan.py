"""Box scan: the trace-zero enumerator, the scan's witnesses and fixing
basis, and its input checks."""

import pytest

from gitstab import boxscan


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
    assert res.fixing_rank == 2  # lambda0 = 0, trace zero
    assert all(row[0] == 0 for row in res.fixing_basis)


def test_scan_fermat_cubic_sees_nothing():
    gammas = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    res = boxscan.scan_box(gammas, 4, 3)
    assert res.strict is None and res.semi is None
    assert res.fixing_rank == 0 and res.zero_weight_count == 0


def test_scan_hyperbolic_quadric_fixing_plane():
    gammas = [(1, 1, 0, 0), (0, 0, 1, 1)]
    res = boxscan.scan_box(gammas, 4, 2)
    assert res.strict is None and res.semi is None
    assert res.fixing_rank == 2
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
