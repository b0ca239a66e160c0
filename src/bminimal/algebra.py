"""Orthonormal Hermitian bases of C*-subalgebras of M_n(C).

A subalgebra is represented only by an orthonormal (trace inner product)
basis of its Hermitian part; closure under products is verified, not
enforced.  Builders cover the diagonal algebra, block-diagonal algebras,
and the diagonal Pauli-string basis on qubit registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptySpan, InvalidPattern, SpanMismatch
from .hermitian import _as_hermitian_stack, as_hermitian, frobenius

ORTHONORMALITY_TOL = 1e-10
UNIT_TOL = 1e-10
_CLOSURE_TOL = 1e-10
_GS_DROP_TOL = 1e-10
_IMAG_RESIDUE_TOL = 1e-12
_SPAN_TOL = 1e-8


@dataclass(frozen=True)
class SubalgebraBasis:
    """Orthonormal Hermitian basis {B_1, ..., B_t} of a subalgebra of M_n(C).

    ``elements`` is stacked with shape (t, n, n); orthonormality under
    <X, Y> = tr(XY) is checked on construction.  The stack is fixed from
    then on, so the distance of I_n from the span is computed at most once
    per instance and kept (``contains_identity`` reads it).
    """

    elements: np.ndarray
    label: str = "custom"
    n: int = field(init=False)

    def __post_init__(self):
        elems = np.asarray(self.elements, dtype=complex)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2] or elems.shape[0] == 0:
            raise ValueError(f"expected a nonempty (t, n, n) stack, got {elems.shape}")
        elems = _as_hermitian_stack(elems)
        # tr(B_a B_b) = sum_ij B_a[i, j] conj(B_b[i, j]) for Hermitian B_b.
        flat = elems.reshape(elems.shape[0], -1)
        gram = np.real(flat @ flat.conj().T)
        if np.max(np.abs(gram - np.eye(elems.shape[0]))) > ORTHONORMALITY_TOL:
            raise ValueError("basis elements are not orthonormal under the trace")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "n", elems.shape[1])

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    def coords(self, x) -> np.ndarray:
        """The traces (tr(B_k X))_k of an n x n matrix X; real up to rounding
        when X is Hermitian."""
        return np.einsum("kij,ji->k", self.elements, x)

    def combine(self, w) -> np.ndarray:
        """The combination sum_k w_k B_k of a length-t coefficient vector."""
        return np.einsum("k,kij->ij", w, self.elements)

    @cached_property
    def _identity_residual(self) -> float:
        """||I - sum_k tr(B_k) B_k||_F: the distance of I_n from the span."""
        eye = np.eye(self.n, dtype=complex)
        return frobenius(eye - self.combine(compress(eye, self)))

    def compress_to(self, frame) -> np.ndarray:
        """The Hermitian (t, r, r) stack Q* B_k Q for an n x r frame Q."""
        q = np.asarray(frame)
        mats = q.conj().T @ (self.elements @ q)
        return (mats + np.conj(np.transpose(mats, (0, 2, 1)))) / 2


def build_diagonal(n: int) -> SubalgebraBasis:
    """Rank-one diagonal projections e_i e_i*, the standard basis of D_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    elems = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    elems[idx, idx, idx] = 1.0
    return SubalgebraBasis(elements=elems, label="diag")


def build_block(pattern: list[tuple[int, str]], n: int | None = None) -> SubalgebraBasis:
    """Basis of a direct sum of diagonal and full matrix blocks.

    ``pattern`` lists (size, kind) with kind "diagonal" or "full".  Each
    block contributes its diagonal projections; full blocks additionally
    contribute, for i < j inside the block, the symmetric pair
    (e_i e_j* + e_j e_i*)/sqrt(2) followed by the antisymmetric pair
    (-i e_i e_j* + i e_j e_i*)/sqrt(2).
    """
    if not pattern:
        raise InvalidPattern("pattern must contain at least one block")
    sizes = []
    for size, kind in pattern:
        if size < 1:
            raise InvalidPattern(f"block sizes must be positive, got {size}")
        if kind not in ("diagonal", "full"):
            raise InvalidPattern(f"unknown block kind {kind!r}")
        sizes.append(size)
    total = sum(sizes)
    if n is not None and n != total:
        raise InvalidPattern(f"block sizes sum to {total}, expected n = {n}")
    n = total

    elems = []
    offset = 0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for size, kind in pattern:
        for i in range(offset, offset + size):
            e = np.zeros((n, n), dtype=complex)
            e[i, i] = 1.0
            elems.append(e)
        if kind == "full":
            for i in range(offset, offset + size):
                for j in range(i + 1, offset + size):
                    sym = np.zeros((n, n), dtype=complex)
                    sym[i, j] = inv_sqrt2
                    sym[j, i] = inv_sqrt2
                    elems.append(sym)
                    anti = np.zeros((n, n), dtype=complex)
                    anti[i, j] = -1j * inv_sqrt2
                    anti[j, i] = 1j * inv_sqrt2
                    elems.append(anti)
        offset += size
    return SubalgebraBasis(elements=np.stack(elems), label="block")


def build_pauli_diagonal(q: int) -> SubalgebraBasis:
    """Diagonal Pauli strings on q qubits, scaled to trace orthonormality.

    Element k is (1/sqrt(n)) times the Kronecker product over the q tensor
    factors, factor j being Z when bit j-1 of k is set and I otherwise, so
    each element is diagonal with entries +-1/sqrt(n).
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    n = 2**q
    # Row b of ``factors`` is the diagonal of I (b = 0) or Z (b = 1).
    factors = np.array([[1.0, 1.0], [1.0, -1.0]])
    signs = np.ones((1, 1))
    for j in range(1, q + 1):
        # Tensor factor j is picked by bit j-1 of k (the row block b) and
        # is the innermost Kronecker factor so far of every row.
        m = 2 ** (j - 1)
        signs = (factors[:, None, None, :] * signs[None, :, :, None]).reshape(2 * m, 2 * m)
    elems = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    elems[:, idx, idx] = signs / np.sqrt(n)
    return SubalgebraBasis(elements=elems, label="pauli-diag")


def orthonormalize(raw: list, label: str = "custom") -> SubalgebraBasis:
    """Gram-Schmidt a list of Hermitian matrices under <X, Y> = tr(XY).

    Inputs are normalized first; candidates whose residual after removing
    existing components falls below 1e-10 are dropped as dependent.
    """
    if not raw:
        raise EmptySpan("no matrices supplied")
    kept: list[np.ndarray] = []
    for cand in raw:
        mat = as_hermitian(cand)
        norm = frobenius(mat)
        if norm < _GS_DROP_TOL:
            continue
        mat = mat / norm
        for prev in kept:
            mat = mat - np.real(np.einsum("ij,ji->", prev, mat)) * prev
        residual = frobenius(mat)
        if residual < _GS_DROP_TOL:
            continue
        kept.append(mat / residual)
    if not kept:
        raise EmptySpan("all supplied matrices are dependent or zero")
    return SubalgebraBasis(elements=np.stack(kept), label=label)


def compress(rho, basis: SubalgebraBasis) -> np.ndarray:
    """Coordinates (tr(rho B_1), ..., tr(rho B_t)) of rho against the basis.

    For Hermitian rho the traces are real; imaginary residue above 1e-12
    (relative to the Frobenius norm) signals a broken input and raises.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (basis.n, basis.n):
        raise ValueError(f"shape {mat.shape} does not match basis ambient n = {basis.n}")
    coords = basis.coords(mat)
    imag = float(np.max(np.abs(coords.imag))) if coords.size else 0.0
    if imag > _IMAG_RESIDUE_TOL * max(1.0, frobenius(mat)):
        raise ValueError(f"coordinates have imaginary residue {imag:.3e}; input not Hermitian?")
    return coords.real.copy()


def contains_identity(basis: SubalgebraBasis) -> bool:
    """True when I_n lies in the real span of the basis, within UNIT_TOL * sqrt(n)."""
    return basis._identity_residual <= UNIT_TOL * np.sqrt(basis.n)


def verify_closed(basis: SubalgebraBasis) -> bool:
    """Check closure under products: every B_i B_j stays in the complex span (_CLOSURE_TOL)."""
    elems = basis.elements
    for i in range(basis.dim):
        for j in range(basis.dim):
            prod = elems[i] @ elems[j]
            residual = frobenius(prod - basis.combine(basis.coords(prod)))
            if residual > _CLOSURE_TOL:
                return False
    return True


def change_of_basis(from_basis: SubalgebraBasis, to_basis: SubalgebraBasis) -> np.ndarray:
    """Orthogonal t x t matrix C with C[k, i] = tr(to_k from_i).

    Maps coordinates taken in ``from_basis`` to coordinates in ``to_basis``.
    Raises SpanMismatch when the two bases do not span the same algebra.
    """
    if from_basis.n != to_basis.n:
        raise SpanMismatch("ambient dimensions differ")
    if from_basis.dim != to_basis.dim:
        raise SpanMismatch("basis dimensions differ")
    c = np.real(np.einsum("kij,lji->kl", to_basis.elements, from_basis.elements))
    for direction, a, b, m in (
        ("from", from_basis, to_basis, c),
        ("to", to_basis, from_basis, c.T),
    ):
        recon = np.einsum("kl,kij->lij", m, b.elements)
        residual = float(max(frobenius(a.elements[i] - recon[i]) for i in range(a.dim)))
        if residual > _SPAN_TOL:
            raise SpanMismatch(
                f"{direction}-basis element leaves the common span (residual {residual:.3e})"
            )
    return c


def in_trace_orthocomplement(x, basis: SubalgebraBasis, tol: float) -> bool:
    """True iff max_k |tr(X B_k)| <= tol * max(1, ||X||_F)."""
    mat = np.asarray(x, dtype=complex)
    return float(np.max(np.abs(basis.coords(mat)))) <= tol * max(1.0, frobenius(mat))
