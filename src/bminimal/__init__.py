"""Spectral-norm minimality of Hermitian matrices relative to a C*-subalgebra.

Certifies whether ||A|| <= ||A + B|| for every B in a subalgebra given by
an orthonormal Hermitian basis, through moment sets of extremal
eigenspaces, minimality certificates A X = ||A|| |X|, eigenvalue
subdifferentials, and subgradient best approximation.
"""

from .algebra import (
    SubalgebraBasis,
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    change_of_basis,
    compress,
    contains_identity,
    in_trace_orthocomplement,
    orthonormalize,
    verify_closed,
)
from .errors import (
    BMinError,
    EmptySpan,
    InvalidPattern,
    NonConvergence,
    NonUnitalBasis,
    NormNotTwoSided,
    NotOrthogonal,
    NotSupportPair,
    PerturbationOverlapsSupport,
    PerturbationTooLarge,
    SpanMismatch,
    Undecided,
    ZeroMatrix,
)
from .hermitian import (
    EigenDecomposition,
    abs_hermitian,
    as_hermitian,
    cluster_eigenvalues,
    eig_hermitian,
)
from .minimality import (
    Certificate,
    ExtremalSpaces,
    MinimalityReport,
    build_certificate,
    check_minimal,
    construct_minimal,
    is_support_pair,
    validate_certificate,
)
from .moment import (
    CompressedFamily,
    FWConfig,
    FWResult,
    Subspace,
    compress_family,
    decide,
    intersects,
    jnr_support,
    moment_distance,
    moment_of_density,
    sample_extreme,
    support_function,
)
from .variational import (
    AffineFamily,
    BestApproxResult,
    SolverConfig,
    SubdifferentialView,
    best_approximation,
    directional_derivative,
    is_minimal_variational,
    subdiff_lambda_max,
    subdiff_lambda_min,
    subdiff_norm,
)

__version__ = "0.1.0"
