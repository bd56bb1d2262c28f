"""Exact invariants of torus-quotient cohomology rings.

Three families of closed manifolds arise as quotients of products of
3-spheres (or circle bundles over such quotients) by free torus actions.
This package builds their degree-<=4 rational cohomology data exactly
and computes the number-theoretic invariants that separate infinitely
many isomorphism classes: an unordered pair of classes in Q(i)* modulo
cubes and rational scalars, and two classes in Q*/(Q*)^2.

``import biquo`` loads no submodule: a public name imports its module on
first use, so a CLI call pays only for the modules its subcommand runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "arith": (
        "CertificateError",
        "CubeClass",
        "Gaussian",
        "SquareClass",
        "cube_class_mod_q",
        "factor",
        "gaussian_factor",
        "parse_cube_class",
        "parse_gaussian",
        "parse_square_class",
        "square_class",
    ),
    "biquotient": (
        "TorusActionMatrix",
        "circle_bundle_degree4",
        "is_free",
        "klein_ring",
        "quotient_ring",
        "t1_action_matrix",
    ),
    "graded": ("GradedQuotient", "QuadricSystem"),
    "invariants": (
        "DegenerateFamilyMember",
        "MonicQuadratic",
        "RankOneClassification",
        "RankOneOrbit",
        "T1Invariant",
        "parse_t1_invariant",
        "rank_one_elements",
        "rotate_alpha_beta",
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
    ),
    "nodal": (
        "BinaryCubic",
        "TernaryCubic",
        "det_cubic",
        "inflection_lines",
        "singular_points",
        "tangent_cone",
    ),
    "oracles": ("stabilizer_oracle",),
    "poly": ("HomPoly", "parse_poly"),
    "report": ("ScanReport", "scan"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Resolved on every lookup, never stored here: a name patched in its
    # module (by a test or a tracer) reads the same through the package.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
