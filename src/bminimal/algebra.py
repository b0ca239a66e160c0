"""Orthonormal Hermitian bases of C*-subalgebras of M_n(C).

A subalgebra is represented only by an orthonormal (trace inner product)
basis of its Hermitian part, held by the entries where some element is
nonzero; closure under products is verified, not enforced.  Builders
cover the diagonal algebra, block-diagonal algebras, and the diagonal
Pauli-string basis on qubit registers, and fill that form directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySpan, InvalidPattern, SpanMismatch
from .hermitian import (
    INPUT_TOL,
    STRUCTURE_TOL,
    _as_hermitian_stack,
    _fold,
    _require_count,
    _require_finite,
    _require_shape,
    _require_tol,
    as_hermitian,
    frobenius,
)


@dataclass(frozen=True, init=False)
class SubalgebraBasis:
    """Orthonormal Hermitian basis {B_1, ..., B_t} of a subalgebra of M_n(C).

    The basis is held by its support: ``support`` is the pair (rows, cols)
    of the entries where some element is nonzero, in row-major order, and
    ``table[k, s]`` is B_k at entry s, a (t, |S|) array.  The builders fill
    both directly; ``SubalgebraBasis(elements)`` takes a (t, n, n) stack,
    checks it is Hermitian and orthonormal under <X, Y> = tr(XY), and keeps
    only its support.  The basis is fixed from then on, so the distance of
    I_n from the span is computed at most once per instance and kept
    (``contains_identity`` reads it).  ``n``, ``support`` and ``table`` are
    all it holds: it does not record which builder made it.
    """

    n: int
    support: tuple[np.ndarray, np.ndarray]
    table: np.ndarray

    def __init__(self, elements):
        elems = np.asarray(elements, dtype=complex)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2] or elems.shape[0] == 0:
            raise ValueError(f"expected a nonempty (t, n, n) stack, got {elems.shape}")
        t, n = elems.shape[:2]
        flat = _as_hermitian_stack(elems).reshape(t, -1)
        nonzero = np.flatnonzero((flat != 0).any(axis=0))
        table = flat[:, nonzero]
        # tr(B_a B_b) = sum_ij B_a[i, j] conj(B_b[i, j]) for Hermitian B_b.
        gram = np.real(table @ table.conj().T)
        if np.max(np.abs(gram - np.eye(t))) > STRUCTURE_TOL:
            raise ValueError("basis elements are not orthonormal under the trace")
        self._fill(n, divmod(nonzero, n), table)

    @classmethod
    def _trusted(cls, n: int, support, table: np.ndarray) -> "SubalgebraBasis":
        """A basis a builder filled itself, orthonormal by construction: no checks."""
        obj = object.__new__(cls)
        obj._fill(n, support, table)
        return obj

    def _fill(self, n, support, table) -> None:
        for name, value in (("n", n), ("support", support), ("table", table)):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def elements(self) -> np.ndarray:
        """The dense (t, n, n) stack, built on each access and not kept."""
        rows, cols = self.support
        out = np.zeros((self.dim, self.n * self.n), dtype=complex)
        out[:, rows * self.n + cols] = self.table
        return out.reshape(self.dim, self.n, self.n)

    def coords(self, x) -> np.ndarray:
        """The traces (tr(B_k X))_k of an n x n matrix X; real up to rounding
        when X is Hermitian."""
        mat = np.asarray(x)
        _require_shape(mat, (self.n, self.n), "x", f"basis n = {self.n}")
        rows, cols = self.support
        return self.table @ mat[cols, rows]

    def combine(self, w) -> np.ndarray:
        """The combination sum_k w_k B_k of a length-t coefficient vector."""
        out = np.zeros((self.n, self.n), dtype=complex)
        out[self.support] = w @ self.table
        return out

    @cached_property
    def _identity_residual(self) -> float:
        """||I - sum_k tr(B_k) B_k||_F: the distance of I_n from the span."""
        rows, cols = self.support
        on_diag = rows == cols
        traces = self.table[:, on_diag].sum(axis=1).real
        residual = traces @ self.table - on_diag
        # diagonal entries of I outside the support are missed entirely
        missed = self.n - int(np.count_nonzero(on_diag))
        return float(np.sqrt(frobenius(residual) ** 2 + missed))

    def compress_to(self, frame) -> np.ndarray:
        """The Hermitian (t, r, r) stack Q* B_k Q for an n x r frame Q.

        Entry s = (i, j) of the support adds table[k, s] times the outer
        product conj(Q[i, :])ᵀ Q[j, :] to element k, t entries at a time, into
        the first chunk's product, which is then symmetrized in place."""
        q = np.asarray(frame)
        rows, cols = self.support
        t, r = self.dim, q.shape[1]
        def outer(part: slice) -> np.ndarray:  # one chunk, no larger than the result
            return (q[rows[part], :, None].conj() * q[cols[part], None, :]).reshape(-1, r * r)
        out = self.table[:, :t] @ outer(slice(0, t))
        out += 0.0  # a -0.0 of BLAS reads +0.0, as a sum into zeros would
        for start in range(t, rows.size, t):
            part = slice(start, start + t)
            out += self.table[:, part] @ outer(part)
        out *= 0.5
        return _fold(out.reshape(t, r, r))


def build_diagonal(n: int) -> SubalgebraBasis:
    """Rank-one diagonal projections e_i e_i*, the standard basis of D_n."""
    _require_count(n, "n")
    idx = np.arange(n)
    return SubalgebraBasis._trusted(n, (idx, idx), np.eye(n, dtype=complex))


def build_block(pattern: list[tuple[int, str]], n: int | None = None) -> SubalgebraBasis:
    """Basis of a direct sum of diagonal and full matrix blocks.

    ``pattern`` lists (size, kind) with kind "diagonal" or "full".  Each
    block contributes its diagonal projections; full blocks additionally
    contribute, for i < j inside the block, the symmetric pair
    (e_i e_j* + e_j e_i*)/sqrt(2) followed by the antisymmetric pair
    (-i e_i e_j* + i e_j e_i*)/sqrt(2).  The support is the diagonal of a
    diagonal block and every entry of a full one.
    """
    if not pattern:
        raise InvalidPattern("pattern must contain at least one block")
    for size, kind in pattern:
        try:
            _require_count(size, "block size")
        except ValueError as err:
            raise InvalidPattern(str(err)) from None
        if kind not in ("diagonal", "full"):
            raise InvalidPattern(f"unknown block kind {kind!r}")
    total = sum(size for size, _ in pattern)
    if n is not None and n != total:
        raise InvalidPattern(f"block sizes sum to {total}, expected n = {n}")
    # A block adds as many elements as support entries (size, or size^2 when
    # full), so the table is square and one offset indexes both of its axes.
    t = sum(size * size if kind == "full" else size for size, kind in pattern)
    table = np.zeros((t, t), dtype=complex)
    rows, cols = [], []
    offset = first = 0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for size, kind in pattern:
        idx = offset + np.arange(size)
        diag = np.arange(size)
        if kind == "full":
            rows.append(np.repeat(idx, size))
            cols.append(np.tile(idx, size))
            i, j = np.triu_indices(size, 1)
            sym = first + size + 2 * np.arange(i.size)
            upper, lower = first + i * size + j, first + j * size + i
            table[sym, upper] = inv_sqrt2
            table[sym, lower] = inv_sqrt2
            table[sym + 1, upper] = -1j * inv_sqrt2
            table[sym + 1, lower] = 1j * inv_sqrt2
            diag = diag * (size + 1)  # entry (a, a) of the block, row-major
        else:
            rows.append(idx)
            cols.append(idx)
        table[first + np.arange(size), first + diag] = 1.0
        first += rows[-1].size
        offset += size
    return SubalgebraBasis._trusted(total, (np.concatenate(rows), np.concatenate(cols)), table)


def build_pauli_diagonal(q: int) -> SubalgebraBasis:
    """Diagonal Pauli strings on q qubits, scaled to trace orthonormality.

    Element k is (1/sqrt(n)) times the Kronecker product over the q tensor
    factors, factor j being Z when bit j-1 of k is set and I otherwise, so
    each element is diagonal with entries +-1/sqrt(n).
    """
    _require_count(q, "q")
    n = 2**q
    # Entry i of element k is -1/sqrt(n) exactly when an odd number of the
    # factors j are Z (bit j-1 of k) at a -1 of their diagonal (bit q-j of i),
    # counted by one exact float32 product; imaginary parts stay +0.0.
    bits = ((np.arange(n)[:, None] >> np.arange(q)) & 1).astype(np.float32)
    odd = (bits @ bits[:, ::-1].T).astype(np.uint8) & 1 == 1
    table = np.full((n, n), 1.0 / np.sqrt(n), dtype=complex)
    table.real[odd] = -1.0 / np.sqrt(n)
    idx = np.arange(n)
    return SubalgebraBasis._trusted(n, (idx, idx), table)


def orthonormalize(raw: list) -> SubalgebraBasis:
    """Gram-Schmidt a list of Hermitian matrices under <X, Y> = tr(XY).

    Inputs are normalized first, so only an exactly zero one is dropped for
    its size; a residual after removing existing components of at most
    STRUCTURE_TOL is dropped as dependent.  The kept elements become a
    ``SubalgebraBasis`` through its checked constructor.
    """
    if not raw:
        raise EmptySpan("no matrices supplied")
    kept: list[np.ndarray] = []
    for cand in raw:
        mat = as_hermitian(cand)
        norm = frobenius(mat)
        if norm == 0.0:
            continue
        mat = mat / norm
        for prev in kept:
            mat = mat - np.real(np.einsum("ij,ji->", prev, mat)) * prev
        residual = frobenius(mat)
        if residual <= STRUCTURE_TOL:
            continue
        kept.append(mat / residual)
    if not kept:
        raise EmptySpan("all supplied matrices are dependent or zero")
    return SubalgebraBasis(elements=np.stack(kept))


def compress(rho, basis: SubalgebraBasis) -> np.ndarray:
    """Coordinates (tr(rho B_1), ..., tr(rho B_t)) of a finite n x n rho.

    For Hermitian rho the traces are real; imaginary residue above INPUT_TOL
    times the Frobenius norm of rho signals a broken input and raises.
    """
    mat = np.asarray(rho, dtype=complex)
    _require_shape(mat, (basis.n, basis.n), "rho", f"basis n = {basis.n}")
    _require_finite(mat, "rho")
    coords = basis.coords(mat)
    imag = float(np.max(np.abs(coords.imag))) if coords.size else 0.0
    if imag > INPUT_TOL * frobenius(mat):
        raise ValueError(f"rho is not Hermitian: its coordinates have imaginary residue {imag:.3e}")
    return coords.real.copy()


def contains_identity(basis: SubalgebraBasis) -> bool:
    """True when I_n lies in the real span of the basis, within STRUCTURE_TOL * sqrt(n)."""
    return basis._identity_residual <= STRUCTURE_TOL * np.sqrt(basis.n)


def verify_closed(basis: SubalgebraBasis) -> bool:
    """Check closure under products: every B_i B_j stays in the complex span (STRUCTURE_TOL)."""
    elems = basis.elements
    for i in range(basis.dim):
        for j in range(basis.dim):
            prod = elems[i] @ elems[j]
            residual = frobenius(prod - basis.combine(basis.coords(prod)))
            if residual > STRUCTURE_TOL:
                return False
    return True


def change_of_basis(from_basis: SubalgebraBasis, to_basis: SubalgebraBasis) -> np.ndarray:
    """Orthogonal t x t matrix C with C[k, i] = tr(to_k from_i).

    Maps coordinates taken in ``from_basis`` to coordinates in ``to_basis``,
    reading both through ``coords`` and ``combine``.  Raises SpanMismatch
    when the two bases do not span the same algebra (a residual above
    STRUCTURE_TOL).
    """
    if from_basis.n != to_basis.n:
        raise SpanMismatch("ambient dimensions differ")
    if from_basis.dim != to_basis.dim:
        raise SpanMismatch("basis dimensions differ")
    units = np.eye(from_basis.dim)
    c = np.column_stack([to_basis.coords(from_basis.combine(e)).real for e in units])
    pairs = (("from", from_basis, to_basis, c), ("to", to_basis, from_basis, c.T))
    for direction, a, b, m in pairs:
        residual = max(frobenius(a.combine(e) - b.combine(col)) for e, col in zip(units, m.T))
        if residual > STRUCTURE_TOL:
            raise SpanMismatch(
                f"{direction}-basis element leaves the common span (residual {residual:.3e})"
            )
    return c


def in_trace_orthocomplement(x, basis: SubalgebraBasis, tol: float) -> bool:
    """True iff max_k |tr(X B_k)| <= tol * ||X||_F, so X and cX agree; X
    must be finite, and tol positive and finite."""
    _require_tol(tol, "tol")
    mat = np.asarray(x, dtype=complex)
    _require_finite(mat, "x")
    return float(np.max(np.abs(basis.coords(mat)))) <= tol * frobenius(mat)
