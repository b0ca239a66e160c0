import types

import bminimal

# The public surface: the paper's objects and what the ``bmin`` routes call.
# A name added to or removed from ``bminimal`` is a decision recorded here.
EXPORTS = [
    "AffineFamily", "BMinError", "BestApproxResult", "Certificate", "CompressedFamily",
    "EigenDecomposition", "EmptySpan", "ExtremalSpaces", "FWConfig", "FWResult",
    "InvalidPattern", "MinimalityReport", "NonConvergence", "NonUnitalBasis",
    "NormNotTwoSided", "NotOrthogonal", "NotSupportPair", "PerturbationOverlapsSupport",
    "PerturbationTooLarge", "SolverConfig", "SpanMismatch", "SubalgebraBasis",
    "SubdifferentialView", "Subspace", "Undecided", "ZeroMatrix", "abs_hermitian",
    "as_hermitian", "best_approximation", "build_block", "build_certificate",
    "build_diagonal", "build_pauli_diagonal", "change_of_basis", "check_minimal",
    "cluster_eigenvalues", "compress", "compress_family", "construct_minimal",
    "contains_identity", "decide", "directional_derivative", "eig_hermitian",
    "in_trace_orthocomplement", "intersects", "is_minimal_variational", "is_support_pair",
    "jnr_support", "moment_distance", "moment_of_density", "orthonormalize",
    "sample_extreme", "subdiff_lambda_max", "subdiff_lambda_min", "subdiff_norm",
    "support_function", "validate_certificate", "verify_closed",
]


def test_exports_are_pinned():
    public = sorted(
        name for name, value in vars(bminimal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == EXPORTS
