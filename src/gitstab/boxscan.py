"""Front end for the integer box scan.

Selects the compiled kernel when the extension was built and the problem fits
inside its int64 guards, otherwise the pure-Python twin.  Both implement the
identical algorithm, so the choice never changes a result, only the runtime.
The box enumerator `iter_trace_zero_box` is re-exported from the pure-Python
kernel, which walks it; the crosscheck walks the same enumerator.
"""

from __future__ import annotations

from ._boxscan_py import iter_trace_zero_box, scan_box_py  # noqa: F401
from .lazylog import LazyLogger
from .record import record

log = LazyLogger(__name__)

try:
    from ._boxscan import scan_box_c
except ImportError:  # extension not built; pure Python handles everything
    scan_box_c = None

HAVE_COMPILED = scan_box_c is not None

# Refuse enumerations beyond this many candidate vectors.
MAX_CANDIDATES = 10**8


@record
class BoxScanResult:
    scanned: int
    strict: tuple | None  # first vector with all support weights positive
    semi: tuple | None  # first vector with weights >= 0, at least one > 0
    fixing_rank: int  # rank of the vectors with all weights zero
    fixing_basis: tuple  # integer echelon basis of that span
    zero_weight_count: int


def candidate_count(n_vars: int, bound: int) -> int:
    return (2 * bound + 1) ** n_vars


def check_box_size(n_vars: int, bound: int):
    if bound < 1:
        raise ValueError(f"enumeration bound must be positive, got {bound}")
    count = candidate_count(n_vars, bound)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"enumeration box has {count} candidates, above the {MAX_CANDIDATES} limit"
        )


def scan_box(gammas, n_vars: int, bound: int, backend: str | None = None) -> BoxScanResult:
    """Run the scan over the support rows `gammas`.

    backend forces 'compiled' or 'python'; None picks the compiled kernel
    when available and falls back transparently if its guards trip.
    """
    check_box_size(n_vars, bound)
    gs = [tuple(int(x) for x in g) for g in gammas]
    if not gs:
        raise ValueError("support must be nonempty")
    if any(len(g) != n_vars for g in gs):
        raise ValueError("support row length does not match n_vars")

    if backend not in (None, "python", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "compiled" and not HAVE_COMPILED:
        raise ValueError("compiled kernel is not available")

    raw = None
    if backend != "python" and HAVE_COMPILED:
        try:
            raw = scan_box_c(gs, n_vars, bound)
        except OverflowError as exc:
            if backend == "compiled":
                raise ValueError(f"problem exceeds compiled kernel limits: {exc}") from None
            log.debug("compiled scan declined (%s); using pure Python", exc)
    if raw is None:
        raw = scan_box_py(gs, n_vars, bound)
    scanned, strict, semi, rank, basis, zero_count = raw
    return BoxScanResult(int(scanned), strict, semi, int(rank), basis, int(zero_count))
