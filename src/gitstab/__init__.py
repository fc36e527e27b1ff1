"""Exact torus-stability and Futaki-invariant computations for hypersurfaces.

The pipeline: parse a homogeneous polynomial (poly), act on it with linear
vector fields (vfield), extract weight data of diagonal actions (weights),
classify stability by exact linear programming (stability, lp) or by
box enumeration (boxscan), evaluate the Futaki invariant of limits (futaki),
and build one-parameter degeneration families (degeneration).  All arithmetic
is rational and exact.
"""

from .degeneration import (
    CrosscheckReport,
    DegenerationError,
    DegenerationFamily,
    DegenerationReport,
    build_degeneration,
    from_destabilizer,
    theorem_crosscheck,
)
from .futaki import FutakiValue, futaki_from_kappa, futaki_of_limit
from .poly import (
    HPoly,
    Monomial,
    PolyParseError,
    parse_poly,
    print_poly,
    support,
)
from .stability import (
    NOT_WEAKLY_STABLE,
    STABLE,
    WEAKLY_STABLE_NOT_STABLE,
    StabilityVerdict,
    classify_torus,
    oracle_classify,
    verdicts_consistent,
)
from .vfield import (
    LinearVectorField,
    apply_derivation,
    chevalley_split,
    invariance,
    parse_field,
    rational_diagonalize,
    substitute_linear,
)
from .weights import WeightVector, limit_poly, mu, weight_spectrum

__version__ = "0.1.0"

__all__ = [
    "CrosscheckReport",
    "DegenerationError",
    "DegenerationFamily",
    "DegenerationReport",
    "FutakiValue",
    "HPoly",
    "LinearVectorField",
    "Monomial",
    "NOT_WEAKLY_STABLE",
    "PolyParseError",
    "STABLE",
    "StabilityVerdict",
    "WEAKLY_STABLE_NOT_STABLE",
    "WeightVector",
    "apply_derivation",
    "build_degeneration",
    "chevalley_split",
    "classify_torus",
    "from_destabilizer",
    "futaki_from_kappa",
    "futaki_of_limit",
    "invariance",
    "limit_poly",
    "mu",
    "oracle_classify",
    "parse_field",
    "parse_poly",
    "print_poly",
    "rational_diagonalize",
    "substitute_linear",
    "support",
    "theorem_crosscheck",
    "verdicts_consistent",
    "weight_spectrum",
]
