"""Exact obstruction classes and homotopy bracket towers for Lie subalgebra
pairs, over the Gaussian rationals."""

from .scalars import GaussScalar, format_scalar, parse_scalar
from .linalg import Matrix, nullspace_basis, rank, rref, solve
from .multilinear import enumerate_shuffles, koszul_sign, wedge
from .lie_core import (
    GAlgebra,
    GModule,
    LieAlgebra,
    LiePair,
    MatchedPairData,
    adapt_basis,
    bialgebra_pair,
    check_g_algebra,
    check_matched_pair,
    check_module,
    dual_module,
    end_module,
    exterior_power_module,
    make_pair,
    matched_sum,
    pair_to_matched,
    tensor_module,
    trivial_module,
    validate_lie_algebra,
)
from .ce import (
    Cochain,
    ce_diff,
    coboundary_primitive,
    cohomology_dim,
    cohomology_representatives,
    is_cocycle,
)
from .atiyah import (
    Connection,
    atiyah_class,
    atiyah_cocycle,
    compatibility_report,
    curvature,
    extend_by_zero,
    scalar_class,
    todd_class,
)

# The tower and sweep layer is the largest module and the obstruction commands
# never run it, so its names load on first access (PEP 562) instead of with
# the package.
_HOMOTOPY_NAMES = (
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
)


def __getattr__(name):
    if name in _HOMOTOPY_NAMES:
        from . import homotopy

        return getattr(homotopy, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_HOMOTOPY_NAMES))


__version__ = "0.1.0"
