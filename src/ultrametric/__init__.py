"""Exact-arithmetic toolkit for finite ultrametric spaces.

Spaces carry rational distance matrices validated against the strong triangle
inequality; on top of that sit dendrogram conversion and isometry testing,
Hausdorff distances between subsets, amalgamation along common subspaces, the
Gromov-Hausdorff ultrametric with constructive certificates, and generators
for the standard counterexample families.
"""

from .amalgam import (
    ChainGlueResult,
    GlueSpec,
    chain_glue,
    disjoint_amalgam,
    glue,
)
from .dendrogram import (
    Leaf,
    Merge,
    Node,
    encoding,
    from_dendrogram,
    isometric,
    isometry_witness,
    to_dendrogram,
)
from .errors import UltrametricError
from .generators import (
    Membership,
    SpectrumConstraint,
    cauchy_sequence,
    crowd_family,
    in_uk,
    random_space,
    single_linkage,
    spectrum_constraint,
    two_point_space,
)
from .gromov import (
    Certificate,
    UghResult,
    certificate,
    spectrum_agreement,
    ugh_distance,
    verify_certificate,
)
from .hyperspace import epsilon_net, hausdorff_distance, restrict
from .oracle import ORACLE_MAX_POINTS, ugh_oracle
from .rationals import as_rational, format_rational, parse_rational
from .spaces import (
    QuotientSpace,
    UltrametricSpace,
    closed_quotient,
    merge_duplicate_points,
    spectrum,
    validate_ultrametric,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ChainGlueResult",
    "GlueSpec",
    "Leaf",
    "Membership",
    "Merge",
    "Node",
    "ORACLE_MAX_POINTS",
    "QuotientSpace",
    "SpectrumConstraint",
    "UghResult",
    "UltrametricError",
    "UltrametricSpace",
    "as_rational",
    "cauchy_sequence",
    "certificate",
    "chain_glue",
    "closed_quotient",
    "crowd_family",
    "disjoint_amalgam",
    "encoding",
    "epsilon_net",
    "format_rational",
    "from_dendrogram",
    "glue",
    "hausdorff_distance",
    "in_uk",
    "isometric",
    "isometry_witness",
    "merge_duplicate_points",
    "parse_rational",
    "random_space",
    "restrict",
    "single_linkage",
    "spectrum",
    "spectrum_agreement",
    "spectrum_constraint",
    "to_dendrogram",
    "two_point_space",
    "ugh_distance",
    "ugh_oracle",
    "validate_ultrametric",
    "verify_certificate",
]
