"""Every refusal of the public entries, in one inventory.

Each case calls one entry with one bad operand that the entry checks, and
expects the error type and the operand's name (or, for a check between two
operands, what it compares) in the one-line message.  The size, count,
finiteness and tolerance rules live in ``bminimal.hermitian``.
"""

import numpy as np
import pytest

from bminimal import io as bio
from bminimal import (
    AffineFamily,
    FWConfig,
    SolverConfig,
    SubalgebraBasis,
    Subspace,
    as_hermitian,
    best_approximation,
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    change_of_basis,
    check_minimal,
    compress,
    compress_family,
    construct_minimal,
    directional_derivative,
    eig_hermitian,
    in_trace_orthocomplement,
    intersects,
    is_support_pair,
    moment_distance,
    moment_of_density,
    orthonormalize,
    sample_extreme,
    support_function,
    validate_certificate,
)
from bminimal.errors import (
    EmptySpan,
    InvalidPattern,
    NonUnitalBasis,
    NotOrthogonal,
    NotSupportPair,
    PerturbationOverlapsSupport,
    PerturbationTooLarge,
    SpanMismatch,
)

M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
D3 = build_diagonal(3)
NON_UNITAL = SubalgebraBasis(elements=D3.elements[:2])
E = np.eye(3)
PAIR = Subspace.from_span(E[:, :2])           # a 2-dimensional subspace of C^3
FAM = compress_family(PAIR, D3)
PAULI_FAM = compress_family(Subspace.from_span(np.eye(2)), build_pauli_diagonal(1))
LINE = Subspace.from_span(E[:, :1])
V = Subspace.from_span((E[:, :1] + E[:, 1:2]) / np.sqrt(2))
W = Subspace.from_span((E[:, :1] - E[:, 1:2]) / np.sqrt(2))
V4 = Subspace.from_span(np.eye(4)[:, :1])
AFF = AffineFamily(M1, D3)
NAN_AT_1 = np.array([0.0, np.nan, 0.0])


def bad_entry(value, at=(1, 0)):
    out = M1.copy()
    out[at] = value
    return out


# (id, call, error type, text the message must contain)
CASES = [
    # hermitian
    ("as_hermitian-shape", lambda: as_hermitian(np.ones((2, 3))), ValueError, "square matrix"),
    ("as_hermitian-empty", lambda: as_hermitian(np.ones((0, 0))), ValueError, "square matrix"),
    ("as_hermitian-nan", lambda: as_hermitian(bad_entry(np.nan)), ValueError, "matrix entries"),
    ("as_hermitian-skew", lambda: as_hermitian(bad_entry(2.0)), ValueError, "matrix is not"),
    ("eig_hermitian-inf", lambda: eig_hermitian(bad_entry(np.inf)), ValueError, "matrix entries"),
    # algebra
    ("basis-stack", lambda: SubalgebraBasis(elements=np.eye(3)), ValueError, "stack"),
    ("basis-orthonormal", lambda: SubalgebraBasis(elements=2 * D3.elements), ValueError,
     "basis elements"),
    ("coords-shape", lambda: D3.coords(np.eye(4)), ValueError, "x of shape (4, 4)"),
    ("build_diagonal-0", lambda: build_diagonal(0), ValueError, "n must be an integer >= 1"),
    ("build_diagonal-float", lambda: build_diagonal(2.5), ValueError, "n must be an integer"),
    ("build_diagonal-bool", lambda: build_diagonal(True), ValueError, "n must be an integer"),
    ("build_pauli-0", lambda: build_pauli_diagonal(0), ValueError, "q must be an integer >= 1"),
    ("build_pauli-float", lambda: build_pauli_diagonal(2.0), ValueError, "q must be an integer"),
    ("build_pauli-bool", lambda: build_pauli_diagonal(True), ValueError, "q must be an integer"),
    ("build_block-empty", lambda: build_block([]), InvalidPattern, "pattern"),
    ("build_block-0", lambda: build_block([(0, "full")]), InvalidPattern, "block size"),
    ("build_block-bool", lambda: build_block([(True, "full")]), InvalidPattern, "block size"),
    ("build_block-float", lambda: build_block([(2.5, "diagonal")]), InvalidPattern,
     "block size"),
    ("build_block-kind", lambda: build_block([(2, "dense")]), InvalidPattern, "block kind"),
    ("build_block-n", lambda: build_block([(2, "full")], n=3), InvalidPattern, "n = 3"),
    ("orthonormalize-none", lambda: orthonormalize([]), EmptySpan, "matrices"),
    ("orthonormalize-zero", lambda: orthonormalize([np.zeros((2, 2))]), EmptySpan, "matrices"),
    ("compress-shape", lambda: compress(np.eye(4), D3), ValueError, "rho of shape (4, 4)"),
    ("compress-nan", lambda: compress(np.full((3, 3), np.nan), D3), ValueError,
     "rho must be finite: entry (0, 0) is"),
    ("compress-inf", lambda: compress(bad_entry(np.inf, (2, 2)), D3), ValueError,
     "rho must be finite: entry (2, 2) is"),
    ("compress-skew", lambda: compress(bad_entry(1j, (0, 0)), D3), ValueError,
     "rho is not Hermitian"),
    ("change_of_basis-n", lambda: change_of_basis(D3, build_diagonal(4)), SpanMismatch,
     "ambient dimensions"),
    ("change_of_basis-dim", lambda: change_of_basis(D3, NON_UNITAL), SpanMismatch,
     "basis dimensions"),
    ("orthocomplement-tol", lambda: in_trace_orthocomplement(M1, D3, 0.0), ValueError,
     "tol is 0.0"),
    ("orthocomplement-shape", lambda: in_trace_orthocomplement(np.eye(2), D3, 1e-9),
     ValueError, "x of shape (2, 2)"),
    ("orthocomplement-nan", lambda: in_trace_orthocomplement(np.full((3, 3), np.nan), D3, 1e-9),
     ValueError, "x must be finite: entry (0, 0) is"),
    ("orthocomplement-inf", lambda: in_trace_orthocomplement(bad_entry(np.inf, (1, 2)), D3, 1e-9),
     ValueError, "x must be finite: entry (1, 2) is"),
    # moment
    ("subspace-shape", lambda: Subspace(frame=np.eye(2, 3)), ValueError, "frame"),
    ("subspace-nan", lambda: Subspace(frame=np.array([[np.nan], [1.0]])), ValueError,
     "frame must be finite: entry (0, 0) is"),
    ("subspace-orthonormal", lambda: Subspace(frame=np.ones((2, 1))), ValueError,
     "frame columns"),
    ("from_span-none", lambda: Subspace.from_span(np.zeros((3, 0))), ValueError,
     "number of spanning columns"),
    ("from_span-wide", lambda: Subspace.from_span(np.eye(2, 3)), ValueError, "columns"),
    ("from_span-inf", lambda: Subspace.from_span(np.array([[1.0], [np.inf]])), ValueError,
     "spanning columns must be finite: entry (1, 0) is"),
    ("from_span-dependent", lambda: Subspace.from_span(np.ones((3, 2))), ValueError,
     "spanning columns"),
    ("fwconfig-gap_tol", lambda: FWConfig(gap_tol=np.nan), ValueError, "gap_tol"),
    ("fwconfig-dist_tol", lambda: FWConfig(dist_tol=-1.0), ValueError, "dist_tol"),
    ("fwconfig-max_iter-0", lambda: FWConfig(max_iter=0), ValueError, "max_iter"),
    ("fwconfig-max_iter-float", lambda: FWConfig(max_iter=2.0), ValueError, "max_iter"),
    ("compress_family-n", lambda: compress_family(V4, D3), ValueError,
     "frame of shape (4, 1) does not match basis n = 3"),
    ("moment_of_density-shape", lambda: moment_of_density(FAM, np.eye(3)), ValueError,
     "density matrix r of shape (3, 3)"),
    ("moment_of_density-inf", lambda: moment_of_density(FAM, np.diag([1.0, np.inf])),
     ValueError, "density matrix r must be finite: entry (1, 1) is"),
    ("moment_of_density-imaginary", lambda: moment_of_density(compress_family(LINE, D3), [[1j]]),
     ValueError, "density matrix r is not Hermitian"),
    ("moment_of_density-skew", lambda: moment_of_density(FAM, [[0.5, 1.0], [0.0, 0.5]]),
     ValueError, "density matrix r is not Hermitian"),
    ("sample_extreme-count-0", lambda: sample_extreme(FAM, 0, 0), ValueError, "count"),
    ("sample_extreme-count-float", lambda: sample_extreme(FAM, 2.0, 0), ValueError, "count"),
    ("sample_extreme-count-bool", lambda: sample_extreme(FAM, True, 0), ValueError, "count"),
    ("sample_extreme-seed", lambda: sample_extreme(FAM, 2, -1), ValueError,
     "seed must be an integer >= 0, got -1"),
    ("sample_extreme-seed-one-point", lambda: sample_extreme(compress_family(LINE, D3), 2, -1),
     ValueError, "seed"),
    ("sample_extreme-seed-float", lambda: sample_extreme(FAM, 2, 0.5), ValueError, "seed"),
    ("support_function-shape", lambda: support_function(FAM, np.ones(2)), ValueError,
     "direction w of shape (2,)"),
    ("support_function-nan", lambda: support_function(FAM, NAN_AT_1), ValueError,
     "direction w must be finite"),
    ("support_function-huge", lambda: support_function(PAULI_FAM, [1.5e308, 1.5e308]),
     ValueError, "direction w is too large"),
    ("moment_distance-n", lambda: moment_distance(LINE, V4, D3), ValueError,
     "frame of shape (4, 1)"),
    ("intersects-n", lambda: intersects(V4, LINE, D3), ValueError, "frame of shape (4, 1)"),
    # minimality
    ("check_minimal-unital", lambda: check_minimal(M1, NON_UNITAL), NonUnitalBasis,
     "identity"),
    ("check_minimal-shape", lambda: check_minimal(np.eye(4), D3), ValueError,
     "matrix of shape (4, 4) does not match basis n = 3"),
    ("check_minimal-nan", lambda: check_minimal(bad_entry(np.nan), D3), ValueError,
     "matrix entries"),
    ("validate-tol", lambda: validate_certificate(M1, M1, D3, np.inf), ValueError, "tol"),
    ("validate-matrix", lambda: validate_certificate(np.eye(4), M1, D3, 1e-9), ValueError,
     "matrix of shape (4, 4)"),
    ("validate-certificate", lambda: validate_certificate(M1, np.eye(2), D3, 1e-9), ValueError,
     "certificate of shape (2, 2) does not match basis"),
    ("validate-certificate-nan", lambda: validate_certificate(M1, np.full((3, 3), np.nan), D3, 1e-9),
     ValueError, "certificate must be finite: entry (0, 0) is"),
    ("validate-certificate-inf", lambda: validate_certificate(M1, bad_entry(np.inf, (2, 0)), D3, 1e-9),
     ValueError, "certificate must be finite: entry (2, 0) is"),
    ("support_pair-unital", lambda: is_support_pair(V, W, NON_UNITAL), NonUnitalBasis,
     "unital"),
    ("support_pair-sizes", lambda: is_support_pair(V4, W, build_diagonal(4)), ValueError,
     "V has 4 rows, W has 3"),
    ("support_pair-overlap", lambda: is_support_pair(V, LINE, D3), NotOrthogonal, "V* W"),
    ("construct-lam", lambda: construct_minimal(V, W, np.nan, None, D3), ValueError, "lam"),
    ("construct-sizes", lambda: construct_minimal(V4, W, 1.0, None, D3), ValueError,
     "V has 4 rows, W has 3"),
    ("construct-rest-shape", lambda: construct_minimal(V, W, 1.0, np.zeros((2, 2)), D3),
     ValueError, "R has shape (2, 2), but V and W have 3 rows"),
    ("construct-rest-large", lambda: construct_minimal(V, W, 1.0, np.diag([0, 0, 2.0]), D3),
     PerturbationTooLarge, "||R||"),
    ("construct-rest-overlap", lambda: construct_minimal(V, W, 1.0, np.diag([0.5, 0, 0]), D3),
     PerturbationOverlapsSupport, "||R (P_V + P_W)||_F"),
    ("construct-not-pair", lambda: construct_minimal(LINE, Subspace.from_span(E[:, 1:2]), 1.0,
                                                      None, D3),
     NotSupportPair, "V and W"),
    # io
    ("matrix_to_doc-shape", lambda: bio.matrix_to_doc(np.ones((2, 3))), ValueError,
     "square matrix"),
    ("frame_from_doc-keys", lambda: bio.frame_from_doc({"n": 2}), ValueError, "frame document"),
    ("algebra_from_doc-kind", lambda: bio.algebra_from_doc({}), ValueError, "algebra document"),
    ("points_to_csv-shape", lambda: bio.points_to_csv(np.ones(3)), ValueError, "points"),
    # variational
    ("affine-shape", lambda: AffineFamily(np.eye(4), D3), ValueError,
     "a0 of shape (4, 4) does not match basis n = 3"),
    ("affine-skew", lambda: AffineFamily(bad_entry(2.0), D3), ValueError, "matrix is not"),
    ("evaluate-shape", lambda: AFF.evaluate(np.ones(2)), ValueError, "x of shape (2,)"),
    ("evaluate-nan", lambda: AFF.evaluate(NAN_AT_1), ValueError,
     "x must be finite: entry 1 is nan"),
    ("evaluate-huge", lambda: AffineFamily(1e308 * np.eye(2), build_diagonal(2)).evaluate(
        [1e308, 0.0]), ValueError, "x is too large"),
    ("solver-max_iter", lambda: SolverConfig(max_iter=True), ValueError, "max_iter"),
    ("solver-fw-none", lambda: SolverConfig(fw=None), ValueError, "fw must be an FWConfig"),
    ("best_approx-shape", lambda: best_approximation(AFF, np.zeros(2)), ValueError,
     "x0 of shape (2,)"),
    ("best_approx-nan", lambda: best_approximation(AFF, NAN_AT_1), ValueError,
     "x must be finite"),
    ("dirderiv-w", lambda: directional_derivative(AFF, np.zeros(3), np.ones(4)), ValueError,
     "direction w of shape (4,)"),
]


@pytest.mark.parametrize("call, error, text", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refused(call, error, text):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    message = str(refused.value)
    assert text in message and "\n" not in message
