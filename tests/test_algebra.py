import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bminimal
from bminimal.algebra import (
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
from bminimal.errors import EmptySpan, InvalidPattern, SpanMismatch
from bminimal.hermitian import as_hermitian
from oracles import rand_hermitian
from suites import SCALES

IV = 1 / np.sqrt(2)


def rotated_basis_3():
    """The 45-degree rotated orthonormal basis of the diagonal 3x3 algebra."""
    return orthonormalize(
        [np.diag([1.0, 0, 0]), np.diag([0, IV, -IV]), np.diag([0, IV, IV])]
    )


class TestBuilders:
    def test_diagonal_elements(self):
        basis = build_diagonal(3)
        assert basis.dim == 3
        for i in range(3):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert np.array_equal(basis.elements[i].real, expected)

    def test_diagonal_n1(self):
        assert np.array_equal(build_diagonal(1).elements[0].real, [[1.0]])

    def test_block_example(self):
        basis = build_block([(2, "diagonal"), (2, "full")])
        assert basis.dim == 6
        for i in range(4):
            expected = np.zeros((4, 4))
            expected[i, i] = 1.0
            assert np.allclose(basis.elements[i].real, expected, atol=0)
        sym = np.zeros((4, 4), dtype=complex)
        sym[2, 3] = sym[3, 2] = IV
        anti = np.zeros((4, 4), dtype=complex)
        anti[2, 3] = -1j * IV
        anti[3, 2] = 1j * IV
        assert np.allclose(basis.elements[4], sym, atol=1e-15)
        assert np.allclose(basis.elements[5], anti, atol=1e-15)

    def test_block_all_diagonal_matches_diagonal(self):
        assert np.array_equal(
            build_block([(3, "diagonal")]).elements, build_diagonal(3).elements
        )

    def test_block_full_spans_everything(self):
        basis = build_block([(3, "full")])
        assert basis.dim == 9  # n + 2 * n(n-1)/2 = n^2

    def test_block_bad_pattern(self):
        with pytest.raises(InvalidPattern):
            build_block([(2, "diagonal")], n=3)
        with pytest.raises(InvalidPattern):
            build_block([(0, "full")])
        with pytest.raises(InvalidPattern):
            build_block([(2, "banded")])

    def test_pauli_q2_elements(self):
        basis = build_pauli_diagonal(2)
        diags = [np.real(np.diag(e)) for e in basis.elements]
        assert np.allclose(diags[0], [0.5, 0.5, 0.5, 0.5])
        assert np.allclose(diags[1], [0.5, 0.5, -0.5, -0.5])
        assert np.allclose(diags[2], [0.5, -0.5, 0.5, -0.5])
        assert np.allclose(diags[3], [0.5, -0.5, -0.5, 0.5])

    def test_pauli_q1(self):
        basis = build_pauli_diagonal(1)
        assert np.allclose(basis.elements[0].real, np.eye(2) / np.sqrt(2))
        assert np.allclose(basis.elements[1].real, np.diag([1.0, -1.0]) / np.sqrt(2))

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_pauli_matches_kronecker_definition(self, q):
        n = 2**q
        expected = np.zeros((n, n, n), dtype=complex)
        for k in range(n):
            diag = np.array([1.0])
            for j in range(q):
                factor = np.array([1.0, -1.0]) if (k >> j) & 1 else np.array([1.0, 1.0])
                diag = np.kron(diag, factor)
            expected[k] = np.diag(diag / np.sqrt(n))
        assert np.array_equal(build_pauli_diagonal(q).elements, expected)

    def test_pauli_spans_diagonal(self):
        # invertible change of basis exists, so the spans coincide
        c = change_of_basis(build_diagonal(4), build_pauli_diagonal(2))
        assert np.linalg.matrix_rank(c) == 4

    def test_builders_closed_and_orthonormal(self):
        for basis in (
            build_diagonal(4),
            build_block([(2, "diagonal"), (2, "full")]),
            build_block([(1, "diagonal"), (3, "full")]),
            build_pauli_diagonal(2),
            build_pauli_diagonal(3),
        ):
            assert verify_closed(basis)
            gram = np.real(np.einsum("aij,bji->ab", basis.elements, basis.elements))
            assert np.linalg.norm(gram - np.eye(basis.dim)) <= 1e-10


class TestOrthonormalize:
    def test_normalizes_orthogonal_pair(self):
        basis = orthonormalize([np.eye(2), np.diag([1.0, -1.0])])
        assert np.allclose(basis.elements[0].real, np.eye(2) / np.sqrt(2))
        assert np.allclose(basis.elements[1].real, np.diag([1.0, -1.0]) / np.sqrt(2))

    def test_gram_schmidt_by_hand(self):
        # diag(1,0) stays; diag(1,1) minus its diag(1,0)-component leaves diag(0,1)
        basis = orthonormalize([np.diag([1.0, 0.0]), np.diag([1.0, 1.0])])
        assert basis.dim == 2
        assert np.allclose(basis.elements[0].real, np.diag([1.0, 0.0]))
        assert np.allclose(basis.elements[1].real, np.diag([0.0, 1.0]))

    def test_drops_dependent(self):
        basis = orthonormalize([np.eye(2), 2.0 * np.eye(2)])
        assert basis.dim == 1
        assert np.allclose(basis.elements[0].real, np.eye(2) / np.sqrt(2))

    def test_empty_span(self):
        with pytest.raises(EmptySpan):
            orthonormalize([np.zeros((2, 2))])
        with pytest.raises(EmptySpan):
            orthonormalize([])

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_invariant(self, c):
        # only an exactly zero input is dropped for its size
        assert orthonormalize([c * np.eye(2)]).dim == 1
        basis = orthonormalize([c * np.eye(2), 2 * c * np.eye(2), c * np.diag([1.0, -1.0])])
        ref = orthonormalize([np.eye(2), np.diag([1.0, -1.0])])
        assert basis.dim == 2
        assert np.allclose(basis.elements, ref.elements, rtol=0, atol=1e-15)


class TestVerifyClosed:
    def test_diagonal_closed(self):
        assert verify_closed(build_diagonal(3))

    def test_generated_by_involution(self):
        # X^2 = I lands back in span{I, X}
        basis = orthonormalize([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
        assert verify_closed(basis)

    def test_single_projection(self):
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        assert verify_closed(orthonormalize([e1]))

    def test_detects_not_closed(self):
        # span{I, (e1 e2* + e2 e1*)/sqrt(2)} in M_3: the square of the swap
        # part is a rank-two projection outside the span
        sym = np.zeros((3, 3))
        sym[0, 1] = sym[1, 0] = 1.0
        basis = orthonormalize([np.eye(3), sym])
        assert not verify_closed(basis)


class TestCompress:
    def test_rank_one_projection(self):
        rho = np.zeros((3, 3))
        rho[0, 0] = 1.0
        assert np.allclose(compress(rho, build_diagonal(3)), [1.0, 0.0, 0.0], atol=0)

    def test_half_projection(self):
        p = 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0.0]])
        assert np.allclose(compress(p, build_diagonal(3)), [0.5, 0.5, 0.0], atol=0)

    def test_uniform_state_pauli(self):
        rho = np.full((4, 4), 0.25)
        assert np.allclose(
            compress(rho, build_pauli_diagonal(2)), [0.5, 0.0, 0.0, 0.0], atol=1e-15
        )

    def test_linearity(self):
        rng = np.random.default_rng(30)
        basis = build_pauli_diagonal(2)
        a, b = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        alpha, beta = rng.standard_normal(2)
        lhs = compress(alpha * a + beta * b, basis)
        rhs = alpha * compress(a, basis) + beta * compress(b, basis)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(31)
        basis = build_block([(2, "diagonal"), (2, "full")])
        for _ in range(10):
            rho = rand_hermitian(rng, 4)
            assert np.linalg.norm(compress(rho, basis)) <= np.linalg.norm(rho) + 1e-12

    def test_rejects_non_hermitian(self):
        # the antisymmetric basis element picks up an imaginary trace
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="imaginary"):
            compress(nilpotent, build_block([(2, "full")]))

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_covariant(self, c):
        # linear in rho, and the imaginary residue is judged against ||rho||_F
        rho = rand_hermitian(np.random.default_rng(33), 4)
        basis = build_block([(2, "diagonal"), (2, "full")])
        assert np.allclose(compress(c * rho, basis) / c, compress(rho, basis), rtol=1e-14, atol=0)
        with pytest.raises(ValueError, match="imaginary"):
            compress(c * np.array([[0.0, 1.0], [0.0, 0.0]]), build_block([(2, "full")]))


class TestChangeOfBasis:
    def test_rotation_45_degrees(self):
        c = change_of_basis(build_diagonal(3), rotated_basis_3())
        expected = np.array([[1, 0, 0], [0, IV, -IV], [0, IV, IV]])
        assert np.allclose(c, expected, atol=1e-12)

    def test_walsh_for_pauli(self):
        c = change_of_basis(build_diagonal(4), build_pauli_diagonal(2))
        walsh = 0.5 * np.array(
            [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
        )
        assert np.allclose(c, walsh, atol=1e-15)

    def test_identity_on_same_basis(self):
        basis = build_diagonal(3)
        assert np.allclose(change_of_basis(basis, basis), np.eye(3), atol=0)

    def test_orthogonal_and_inverse_pair(self):
        e = build_diagonal(4)
        b = build_pauli_diagonal(2)
        c_eb = change_of_basis(e, b)
        c_be = change_of_basis(b, e)
        assert np.linalg.norm(c_eb @ c_eb.T - np.eye(4)) <= 1e-10
        assert np.linalg.norm(c_eb @ c_be - np.eye(4)) <= 1e-10

    def test_transforms_coordinates(self):
        rng = np.random.default_rng(32)
        e = build_diagonal(4)
        b = build_pauli_diagonal(2)
        c = change_of_basis(e, b)
        for _ in range(5):
            rho = rand_hermitian(rng, 4)
            assert np.linalg.norm(compress(rho, b) - c @ compress(rho, e)) <= 1e-10

    def test_span_mismatch(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        with pytest.raises(SpanMismatch):
            change_of_basis(orthonormalize([e1]), orthonormalize([np.eye(2)]))
        with pytest.raises(SpanMismatch):
            change_of_basis(build_diagonal(2), build_pauli_diagonal(2))


class TestTraceOrthocomplement:
    def test_zero_diagonal(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert in_trace_orthocomplement(x, build_diagonal(2), 1e-10)

    def test_identity_fails_for_unital(self):
        assert not in_trace_orthocomplement(np.eye(2), build_pauli_diagonal(1), 1e-10)

    def test_swap_three(self):
        x = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
        assert in_trace_orthocomplement(x, build_diagonal(3), 1e-10)

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_invariant(self, c):
        # coordinates are judged against ||X||_F: a diagonal part of 1e-6 of
        # it fails tol 1e-8 at every scale
        swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]])
        basis = build_diagonal(3)
        assert in_trace_orthocomplement(c * swap, basis, 1e-8)
        assert not in_trace_orthocomplement(c * (swap + np.diag([1e-6, 0.0, 0.0])), basis, 1e-8)


class TestUnit:
    def test_unital_builders(self):
        for basis in (build_diagonal(3), build_pauli_diagonal(2),
                      build_block([(2, "diagonal"), (2, "full")])):
            assert contains_identity(basis)

    def test_non_unital(self):
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        assert not contains_identity(orthonormalize([e1]))

    def test_computed_once_per_basis(self):
        basis = build_diagonal(3)
        assert contains_identity(basis)
        # the second call reads the kept residual: a planted one shows through
        vars(basis)["_identity_residual"] = 1.0
        assert not contains_identity(basis)
        assert contains_identity(build_diagonal(3))  # a new basis computes its own


class TestValidation:
    def test_rejects_non_orthonormal_stack(self):
        bad = np.stack([np.eye(2), np.eye(2)]).astype(complex)
        with pytest.raises(ValueError, match="orthonormal"):
            SubalgebraBasis(elements=bad)

    @pytest.mark.parametrize("entry", [(0, 2, 1e-3), (2, 2, np.nan)],
                             ids=["non-hermitian", "nan"])
    def test_rejects_bad_last_element_like_as_hermitian(self, entry):
        bad = build_diagonal(3).elements.copy()
        i, j, value = entry
        bad[-1, i, j] = value
        with pytest.raises(ValueError) as single:
            as_hermitian(bad[-1])
        with pytest.raises(ValueError, match=re.escape(str(single.value))):
            SubalgebraBasis(elements=bad)


def reference_bases():
    """(kind, basis) pairs; a basis does not record which builder made it."""
    rng = np.random.default_rng(23)
    return [
        ("diag", build_diagonal(4)),
        ("block", build_block([(2, "diagonal"), (2, "full")])),
        ("pauli-diag", build_pauli_diagonal(2)),
        ("pauli-diag", build_pauli_diagonal(3)),
        ("custom", orthonormalize([rand_hermitian(rng, 4) for _ in range(3)])),
    ]


class TestBasisMaps:
    """coords, combine and compress_to against explicit per-element loops."""

    @pytest.mark.parametrize("basis", [pytest.param(b, id=f"{kind}-{b.n}")
                                       for kind, b in reference_bases()])
    def test_against_loops(self, basis):
        rng = np.random.default_rng(29)
        n, t = basis.n, basis.dim
        for r in (1, 2, n):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = rng.standard_normal(t)
            q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
            coords = [np.trace(b @ x) for b in basis.elements]
            combined = sum(wk * b for wk, b in zip(w, basis.elements))
            compressed = [q.conj().T @ b @ q for b in basis.elements]
            assert np.max(np.abs(basis.coords(x) - coords)) <= 1e-12
            assert np.max(np.abs(basis.combine(w) - combined)) <= 1e-12
            stack = basis.compress_to(q)
            assert stack.shape == (t, r, r)
            assert np.max(np.abs(stack - compressed)) <= 1e-12
            assert np.array_equal(stack, np.conj(np.transpose(stack, (0, 2, 1))))

    def test_only_algebra_and_io_read_the_stack(self):
        src = Path(bminimal.__file__).parent
        readers = sorted(
            path.name for path in src.glob("*.py")
            if re.search(r"\.elements\b", path.read_text())
        )
        assert readers == ["algebra.py", "io.py"]


class TestSupportStorage:
    """A builder holds its support and a (t, |S|) table, never a (t, n, n) stack."""

    @pytest.mark.parametrize("build, arg", [(build_pauli_diagonal, 7), (build_diagonal, 128)],
                             ids=["pauli-7", "diag-128"])
    def test_build_peak_memory(self, build, arg):
        # a dense (128, 128, 128) complex stack alone is 32 MiB
        tracemalloc.start()
        try:
            basis = build(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.n == 128
        assert peak < 4 * 2**20

    def test_pauli_peak_within_half_a_table(self):
        # the float signs are not held beside the complex table
        tracemalloc.start()
        try:
            basis = build_pauli_diagonal(9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * basis.table.nbytes

    @pytest.mark.parametrize("build, arg, size", [
        (build_diagonal, 5, 5),
        (build_pauli_diagonal, 3, 8),
        (build_block, [(2, "diagonal"), (3, "full")], 2 + 9),
    ], ids=["diag", "pauli", "block"])
    def test_support_size(self, build, arg, size):
        basis = build(arg)
        rows, cols = basis.support
        assert rows.size == cols.size == size
        assert basis.table.shape == (basis.dim, size)
        # row-major order
        assert np.all(np.diff(rows * basis.n + cols) > 0)


def dense_maps_bases():
    """(kind, basis) pairs, as ``reference_bases``."""
    rng = np.random.default_rng(41)
    return [
        *(("diag", build_diagonal(n)) for n in (1, 2, 5, 16, 64)),
        *(("pauli-diag", build_pauli_diagonal(q)) for q in range(1, 7)),
        *(("block", build_block(pattern)) for pattern in (
            [(2, "diagonal"), (2, "full")],
            [(3, "full"), (1, "diagonal"), (2, "full")],
            [(1, "full"), (4, "diagonal")],
            [(4, "full")],
        )),
        *(("custom", orthonormalize(raw)) for raw in (
            [rand_hermitian(rng, 4) for _ in range(5)],
            [np.eye(3), np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, 0.0])],
            [np.diag([1.0, 0.0, 0.0]), np.array([[0, 0, 0], [0, 0, 1j], [0, -1j, 0]])],
        )),
    ]


class TestAgainstDenseStack:
    """Every map of the support form against a dense einsum over ``elements``."""

    @pytest.mark.parametrize("basis", [pytest.param(b, id=f"{kind}-{b.n}-{b.dim}")
                                       for kind, b in dense_maps_bases()])
    def test_maps(self, basis):
        rng = np.random.default_rng(43)
        stack = basis.elements
        n, t = basis.n, basis.dim
        assert stack.shape == (t, n, n)
        assert np.array_equal(stack, np.conj(np.transpose(stack, (0, 2, 1))))
        rows, cols = basis.support
        off = np.ones((n, n), dtype=bool)
        off[rows, cols] = False
        assert not stack[:, off].any()
        gram = np.real(np.einsum("aij,bji->ab", stack, stack))
        assert np.max(np.abs(gram - np.eye(t))) <= 1e-12
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = rng.standard_normal(t)
        assert np.max(np.abs(basis.coords(x) - np.einsum("kij,ji->k", stack, x))) <= 1e-12
        assert np.max(np.abs(basis.combine(w) - np.einsum("k,kij->ij", w, stack))) <= 1e-12
        for r in sorted({1, min(n, 3), n}):
            q, _ = np.linalg.qr(rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)))
            dense = np.einsum("ia,kij,jb->kab", q.conj(), stack, q, optimize=True)
            assert np.max(np.abs(basis.compress_to(q) - dense)) <= 1e-12
        eye = np.eye(n)
        residual = np.linalg.norm(eye - np.einsum("k,kij->ij", np.einsum("kii->k", stack), stack))
        assert abs(basis._identity_residual - residual) <= 1e-12
        assert contains_identity(basis) == (residual <= 1e-10 * np.sqrt(n))

    def test_builder_compression_is_exact(self):
        # one nonzero per row: B_k Q is exact, so Q* (B_k Q) is the dense product
        rng = np.random.default_rng(47)
        for basis in (build_diagonal(6), build_pauli_diagonal(3),
                      build_block([(2, "diagonal"), (3, "full")])):
            q, _ = np.linalg.qr(rng.standard_normal((basis.n, 2))
                                + 1j * rng.standard_normal((basis.n, 2)))
            mats = q.conj().T @ (basis.elements @ q)
            assert np.array_equal(basis.compress_to(q), (mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2)

    def test_custom_keeps_its_support(self):
        basis = orthonormalize([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
        assert [a.tolist() for a in basis.support] == [[0, 1, 2], [0, 1, 2]]
        assert not contains_identity(orthonormalize([np.diag([1.0, 0.0, 0.0])]))

