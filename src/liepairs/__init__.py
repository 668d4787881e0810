"""Exact obstruction classes and homotopy bracket towers for Lie subalgebra
pairs, over the Gaussian rationals."""

from importlib import import_module

# Each public name loads its module on first access (PEP 562) instead of with
# the package, so that a job compiles only the layers it runs: validate never
# loads the cochain, obstruction or tower layers, and the tower never loads
# the obstruction layer ``atiyah`` or the pair constructions of ``zoo``.
_LAZY_NAMES = {
    "scalars": ("GaussScalar", "format_scalar", "parse_scalar"),
    "linalg": ("Matrix",),
    "multilinear": ("enumerate_shuffles", "koszul_sign", "wedge"),
    "lie_core": (
        "GAlgebra",
        "GModule",
        "LieAlgebra",
        "LiePair",
        "check_g_algebra",
        "check_module",
        "dual_module",
        "end_module",
        "exterior_power_module",
        "make_pair",
        "tensor_module",
        "trivial_module",
        "validate_lie_algebra",
    ),
    "ce": (
        "Cochain",
        "Connection",
        "atiyah_cocycle",
        "ce_diff",
        "curvature",
        "extend_by_zero",
        "is_cocycle",
    ),
    "atiyah": (
        "atiyah_class",
        "coboundary_primitive",
        "cohomology_dim",
        "cohomology_representatives",
        "compatibility_report",
        "nullspace_basis",
        "rank",
        "rref",
        "scalar_class",
        "solve",
        "todd_class",
    ),
    "zoo": ("MatchedPairData", "adapt_basis", "bialgebra_pair",
            "check_matched_pair", "matched_sum", "pair_to_matched"),
    "homotopy": (
        "BracketTower",
        "GradedElement",
        "build_tower",
        "check_proof_identities",
        "lambda_k",
        "mu_k",
        "partial_nabla",
        "splitting_tensors",
        "symmetry_report",
        "verify_leibniz",
        "verify_module",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY_NAMES.items()
              for name in names}


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(import_module("." + _MODULE_OF[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"
