"""Exact-arithmetic toolkit for smooth Fano lattice polytopes.

Validation, facet analysis (levels, opposites, goodness partition),
hexagon-splitting decompositions, canonical normal forms, generators for the
standard extremal families, and a structural-claim verification harness.
"""

from .analysis import (
    EtaVector,
    GoodnessPartition,
    goodness_partition,
    levels_and_eta,
    opposites,
    phi_map,
)
from .equivalence import NormalForm, are_equivalent, normal_form
from .errors import (
    FanoError,
    FanoFileError,
    NotSmoothFanoError,
    NotSpecialFacetError,
    NotUnimodularError,
    SizeLimitError,
    TheoremViolationError,
)
from .fanofile import load_polytope, parse_fano, save_polytope, serialize_fano
from .generators import (
    bundle_b,
    example4d,
    generate,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from .linalg import IntMatrix, coordinates_in_basis, determinant, inverse_if_unimodular
from .polytope import (
    FacetFrame,
    LatticeVector,
    Mode,
    Polytope,
    Proof,
    SmoothFanoCertificate,
    enumerate_facets,
    frame_from_indices,
    is_smooth_fano,
    make_polytope,
    picard_number,
    pivot,
    special_facet,
    vertex_deficit,
    vertex_sum,
)
from .splitting import (
    Decomposition,
    Factor,
    clean_pairs,
    direct_sum,
    finest_split,
    guaranteed_hexagons,
    hexagon_split,
    split_threshold,
)
from .verify import BoundsReport, classify_level_minus_one, verify_bounds

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "Decomposition",
    "EtaVector",
    "FacetFrame",
    "Factor",
    "FanoError",
    "FanoFileError",
    "GoodnessPartition",
    "IntMatrix",
    "LatticeVector",
    "Mode",
    "NormalForm",
    "NotSmoothFanoError",
    "NotSpecialFacetError",
    "NotUnimodularError",
    "Polytope",
    "Proof",
    "SizeLimitError",
    "SmoothFanoCertificate",
    "TheoremViolationError",
    "are_equivalent",
    "bundle_b",
    "classify_level_minus_one",
    "clean_pairs",
    "coordinates_in_basis",
    "determinant",
    "direct_sum",
    "enumerate_facets",
    "example4d",
    "finest_split",
    "frame_from_indices",
    "generate",
    "goodness_partition",
    "guaranteed_hexagons",
    "hexagon",
    "hexagon_split",
    "inverse_if_unimodular",
    "is_smooth_fano",
    "levels_and_eta",
    "load_polytope",
    "make_polytope",
    "normal_form",
    "opposites",
    "parse_fano",
    "pentagon",
    "phi_map",
    "picard_number",
    "pivot",
    "random_image",
    "save_polytope",
    "serialize_fano",
    "simplex",
    "special_facet",
    "split_threshold",
    "verify_bounds",
    "vertex_deficit",
    "vertex_sum",
]
