"""Exact-arithmetic toolkit for Seshadri constants of cyclic coverings.

Computes and verifies bounds for multi-point Seshadri constants of pulled
back line bundles on branched n-cyclic coverings: condition counts for
invariant linear systems, the candidate table and explicit constants for
coverings of the projective plane, multiplicity sequences along blow-up
clusters on the branch curve, local intersection numbers, and the exact
linear-algebra witness computation that settles the degree-8 case.

All arithmetic is exact (arbitrary-precision rationals, quadratic surds,
truncated power series with certified precision). No floating point.
"""

from .cluster import (
    BranchJet,
    ClusterResult,
    branch_from_implicit,
    cluster_multiplicities,
    normalize_branch,
    pullback_mult,
)
from .conditions import (
    Candidate,
    candidate_search,
    condition_count,
    constants_table,
    discard_search,
    h0_plane,
)
from .covering import (
    CoveringSpec,
    SeshadriBounds,
    nagata_upper,
    plane_constant,
    steffens_bounds,
)
from .exact import (
    RatMatrix,
    SurdValue,
    surd_compare,
)
from .intersection import local_intersection
from .series import (
    INF,
    AtLeast,
    BiSeries,
    PrecisionError,
    XSeries,
    order_meets,
)
from .witness import WitnessProblem, WitnessVerdict, n8_certificate, solve_witness

__all__ = [
    "AtLeast",
    "BiSeries",
    "BranchJet",
    "Candidate",
    "ClusterResult",
    "CoveringSpec",
    "INF",
    "PrecisionError",
    "RatMatrix",
    "SeshadriBounds",
    "SurdValue",
    "WitnessProblem",
    "WitnessVerdict",
    "XSeries",
    "branch_from_implicit",
    "candidate_search",
    "cluster_multiplicities",
    "condition_count",
    "constants_table",
    "discard_search",
    "h0_plane",
    "local_intersection",
    "n8_certificate",
    "nagata_upper",
    "normalize_branch",
    "order_meets",
    "plane_constant",
    "pullback_mult",
    "solve_witness",
    "steffens_bounds",
    "surd_compare",
]

__version__ = "0.1.0"
