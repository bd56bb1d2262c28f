"""Exact invariants of torus-quotient cohomology rings.

Three families of closed manifolds arise as quotients of products of
3-spheres (or circle bundles over such quotients) by free torus actions.
This package builds their degree-<=4 rational cohomology data exactly
and computes the number-theoretic invariants that separate infinitely
many isomorphism classes: an unordered pair of classes in Q(i)* modulo
cubes and rational scalars, and two classes in Q*/(Q*)^2.
"""

__version__ = "0.1.0"

from .arith import (
    CertificateError,
    CubeClass,
    Gaussian,
    SquareClass,
    cube_class_mod_q,
    factor,
    gaussian_factor,
    parse_cube_class,
    parse_gaussian,
    parse_square_class,
    square_class,
)
from .biquotient import (
    TorusActionMatrix,
    circle_bundle_degree4,
    is_free,
    klein_ring,
    quotient_ring,
    stabilizer_oracle,
    t1_action_matrix,
)
from .graded import GradedQuotient, QuadricSystem
from .invariants import (
    DegenerateFamilyMember,
    MonicQuadratic,
    RankOneClassification,
    RankOneOrbit,
    T1Invariant,
    parse_t1_invariant,
    rank_one_elements,
    rotate_alpha_beta,
    t1_invariant,
    t1_invariant_from_net,
    t1_invariant_pipeline,
    t1_parameters,
    t1_realize_class,
    t1_relation_net,
    t2_det_class,
    t2_quadratic_form,
    t3_discriminant_class,
    t3_kernel_system,
    t3_membership_quadratic,
)
from .nodal import (
    BinaryCubic,
    TernaryCubic,
    det_cubic,
    inflection_lines,
    singular_points,
    tangent_cone,
)
from .poly import HomPoly, parse_poly
from .report import ScanReport, scan

__all__ = [
    "BinaryCubic",
    "CertificateError",
    "CubeClass",
    "DegenerateFamilyMember",
    "Gaussian",
    "GradedQuotient",
    "HomPoly",
    "MonicQuadratic",
    "QuadricSystem",
    "RankOneClassification",
    "RankOneOrbit",
    "ScanReport",
    "SquareClass",
    "T1Invariant",
    "TernaryCubic",
    "TorusActionMatrix",
    "circle_bundle_degree4",
    "cube_class_mod_q",
    "det_cubic",
    "factor",
    "gaussian_factor",
    "inflection_lines",
    "is_free",
    "klein_ring",
    "parse_cube_class",
    "parse_gaussian",
    "parse_poly",
    "parse_square_class",
    "parse_t1_invariant",
    "quotient_ring",
    "rank_one_elements",
    "rotate_alpha_beta",
    "scan",
    "singular_points",
    "square_class",
    "stabilizer_oracle",
    "t1_action_matrix",
    "t1_invariant",
    "t1_invariant_from_net",
    "t1_invariant_pipeline",
    "t1_parameters",
    "t1_realize_class",
    "t1_relation_net",
    "t2_det_class",
    "t2_quadratic_form",
    "t3_discriminant_class",
    "t3_kernel_system",
    "t3_membership_quadratic",
    "tangent_cone",
]
