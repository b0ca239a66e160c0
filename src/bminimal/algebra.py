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
from .hermitian import INPUT_TOL, STRUCTURE_TOL, _as_hermitian_stack, as_hermitian, frobenius


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
        if mat.shape != (self.n, self.n):
            raise ValueError(f"shape {mat.shape} does not match basis ambient n = {self.n}")
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

    @cached_property
    def _by_row(self) -> tuple[np.ndarray, np.ndarray]:
        """The support laid out by rows: the rank p of each entry among the
        entries of its row, and ``cols[p, i]``, the column of the p-th entry
        of row i (0 where row i has fewer)."""
        rows, cols = self.support
        rank = np.arange(rows.size) - np.searchsorted(rows, rows)
        by_row = np.zeros((int(rank.max()) + 1, self.n), dtype=np.intp)
        by_row[rank, rows] = cols
        return rank, by_row

    def _apply(self, q: np.ndarray) -> np.ndarray:
        """The (t, n, r) stack B_k Q, summed over the support laid out by rows.

        An element with at most one nonzero per row (every builder's) gets
        each entry as one product, exactly."""
        rank, cols = self._by_row
        coef = np.zeros((len(cols), self.dim, self.n, 1, 1), dtype=complex)
        coef[rank, :, self.support[0], 0, 0] = self.table.T
        # (t, n, 1, 1) @ (n, 1, r): one product per entry, without the
        # temporaries of a broadcast multiply
        bq = coef[0] @ q[cols[0], None]
        for j, c in zip(cols[1:], coef[1:]):
            bq += c @ q[j, None]
        return bq[:, :, 0]

    def compress_to(self, frame) -> np.ndarray:
        """The Hermitian (t, r, r) stack Q* B_k Q for an n x r frame Q,
        computed as Q* (B_k Q): for a builder's basis it matches the dense
        product bit for bit."""
        q = np.asarray(frame)
        mats = q.conj().T @ self._apply(q)
        mats += np.conj(np.transpose(mats, (0, 2, 1)))
        mats /= 2
        return mats


def build_diagonal(n: int) -> SubalgebraBasis:
    """Rank-one diagonal projections e_i e_i*, the standard basis of D_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
        if size < 1:
            raise InvalidPattern(f"block sizes must be positive, got {size}")
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
    if q < 1:
        raise ValueError("q must be >= 1")
    n = 2**q
    # Row b of ``factors`` is the diagonal of I (b = 0) or Z (b = 1).
    factors = np.array([[1.0, 1.0], [1.0, -1.0]])
    signs = np.ones((1, 1))
    table = np.empty((n, n), dtype=complex)
    for j in range(1, q + 1):
        # Tensor factor j is picked by bit j-1 of k (the row block b) and
        # is the innermost Kronecker factor so far of every row.  The last,
        # scaled, goes straight into the complex table: no float copy of it.
        m = 2 ** (j - 1)
        if j < q:
            signs = (factors[:, None, None, :] * signs[None, :, :, None]).reshape(2 * m, 2 * m)
        else:
            np.multiply(factors[:, None, None, :] / np.sqrt(n), signs[None, :, :, None],
                        out=table.reshape(2, m, m, 2))
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
    """Coordinates (tr(rho B_1), ..., tr(rho B_t)) of rho against the basis.

    For Hermitian rho the traces are real; imaginary residue above INPUT_TOL
    times the Frobenius norm of rho signals a broken input and raises.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (basis.n, basis.n):
        raise ValueError(f"shape {mat.shape} does not match basis ambient n = {basis.n}")
    coords = basis.coords(mat)
    imag = float(np.max(np.abs(coords.imag))) if coords.size else 0.0
    if imag > INPUT_TOL * frobenius(mat):
        raise ValueError(f"coordinates have imaginary residue {imag:.3e}; input not Hermitian?")
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

    Maps coordinates taken in ``from_basis`` to coordinates in ``to_basis``.
    Raises SpanMismatch when the two bases do not span the same algebra
    (a residual above STRUCTURE_TOL).
    """
    if from_basis.n != to_basis.n:
        raise SpanMismatch("ambient dimensions differ")
    if from_basis.dim != to_basis.dim:
        raise SpanMismatch("basis dimensions differ")
    to_elems, from_elems = to_basis.elements, from_basis.elements
    c = np.real(np.einsum("kij,lji->kl", to_elems, from_elems))
    for direction, a, b, m in (
        ("from", from_elems, to_elems, c),
        ("to", to_elems, from_elems, c.T),
    ):
        recon = np.einsum("kl,kij->lij", m, b)
        residual = float(max(frobenius(a[i] - recon[i]) for i in range(len(a))))
        if residual > STRUCTURE_TOL:
            raise SpanMismatch(
                f"{direction}-basis element leaves the common span (residual {residual:.3e})"
            )
    return c


def in_trace_orthocomplement(x, basis: SubalgebraBasis, tol: float) -> bool:
    """True iff max_k |tr(X B_k)| <= tol * ||X||_F, so X and cX agree."""
    mat = np.asarray(x, dtype=complex)
    return float(np.max(np.abs(basis.coords(mat)))) <= tol * frobenius(mat)
