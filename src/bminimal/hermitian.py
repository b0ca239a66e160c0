"""Dense complex Hermitian linear algebra.

Everything downstream (moments, certificates, subdifferentials) reduces to
eigendecompositions of small dense Hermitian matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

# The package's three tolerances.  Every check scales one of them by what it
# judges, with no floor at 1, so A and cA (c > 0) get the same answer.
INPUT_TOL = 1e-12      # input rounding, relative to the operand's own scale
STRUCTURE_TOL = 1e-10  # unit-scale structure: frames, bases and their residuals
CLUSTER_TOL = 1e-8     # eigenvalue clusters, relative to ||A||
_SMALLEST_TOL = float(np.finfo(float).smallest_subnormal)  # floor for A = 0

_OFF_DIAG_TOL = 1e-12  # relative to ||A||_F
_MAX_SWEEPS = 100


def as_hermitian(a) -> np.ndarray:
    """Validate and symmetrize a square complex array.

    Rejects NaN/Inf and asymmetry above INPUT_TOL times the largest entry,
    then returns the exactly Hermitian average (A + A*)/2.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("expected a nonempty matrix")
    return _as_hermitian_stack(arr[np.newaxis])[0]


def _as_hermitian_stack(arr: np.ndarray) -> np.ndarray:
    """The rule of ``as_hermitian`` for every matrix of a nonempty complex
    (t, n, n) stack, checked in one pass: NaN/Inf anywhere fails, then the
    first element whose asymmetry exceeds INPUT_TOL times its own scale."""
    # Every eigensolve passes through here with t = 1, so the pass keeps to
    # few numpy calls: array methods, and per-element maxima over flat rows.
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    adj = arr.conj().swapaxes(-1, -2)
    rows = (arr.shape[0], -1)
    scale = np.abs(arr).reshape(rows).max(axis=1)
    asym = np.abs(arr - adj).reshape(rows).max(axis=1)
    bad = asym > INPUT_TOL * scale
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym[k]:.3e} exceeds "
            f"{INPUT_TOL:.1e} * {scale[k]:.3e}"
        )
    return (arr + adj) / 2


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(w) Q* with w ascending."""

    eigenvalues: np.ndarray  # (n,) real, ascending
    vectors: np.ndarray      # (n, n) unitary, columns are eigenvectors
    matrix: np.ndarray       # (n, n) the validated Hermitian input A

    @property
    def norm(self) -> float:
        """Operator norm of A: the larger magnitude of the two extreme eigenvalues."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))


def _rotation_pair(app: float, aqq: float, apq: complex) -> np.ndarray:
    """2x2 unitary U with U* [[app, apq], [conj(apq), aqq]] U diagonal."""
    mag = abs(apq)
    phase = apq / mag
    tau = (aqq - app) / (2.0 * mag)
    if tau >= 0.0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # Absorb the phase so the remaining problem is real symmetric.
    return np.array(
        [[c, s], [-np.conj(phase) * s, np.conj(phase) * c]], dtype=complex
    )


def _fix_phases(q: np.ndarray) -> np.ndarray:
    """Make the first largest-modulus entry of each column real positive."""
    out = q.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0.0:
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix by cyclic complex Jacobi sweeps.

    Unitary Givens rotations (with phases chosen to zero each off-diagonal
    pair) are applied in fixed cyclic order until the off-diagonal Frobenius
    norm drops below 1e-12 * ||A||_F, capped at 100 sweeps.  Deterministic
    for a fixed input; eigenvalues returned ascending; eigenvector phases
    normalized so the first largest-modulus entry of each column is real
    positive.
    """
    a0 = as_hermitian(a)
    n = a0.shape[0]
    work = a0.copy()
    q = np.eye(n, dtype=complex)
    norm_f = frobenius(a0)
    off_tol = _OFF_DIAG_TOL * norm_f
    rotate_tol = off_tol / max(n, 1)

    def off_norm(m: np.ndarray) -> float:
        stripped = m.copy()
        np.fill_diagonal(stripped, 0.0)
        return frobenius(stripped)

    converged = off_norm(work) <= off_tol
    for _ in range(_MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if abs(work[p, r]) <= rotate_tol:
                    continue
                u = _rotation_pair(work[p, p].real, work[r, r].real, work[p, r])
                work[:, [p, r]] = work[:, [p, r]] @ u
                work[[p, r], :] = u.conj().T @ work[[p, r], :]
                work[p, r] = 0.0
                work[r, p] = 0.0
                q[:, [p, r]] = q[:, [p, r]] @ u
        converged = off_norm(work) <= off_tol
    if not converged:
        raise NonConvergence(
            f"off-diagonal norm {off_norm(work):.3e} above {off_tol:.3e} "
            f"after {_MAX_SWEEPS} sweeps"
        )

    values = np.real(np.diag(work))
    order = np.argsort(values, kind="stable")
    values = values[order]
    q = _fix_phases(q[:, order])
    return EigenDecomposition(eigenvalues=values, vectors=q, matrix=a0)


def default_cluster_tol(norm: float) -> float:
    """CLUSTER_TOL relative to the norm, floored at the smallest positive
    float so that A(x) = 0 has one cluster."""
    return max(CLUSTER_TOL * norm, _SMALLEST_TOL)


def cluster_eigenvalues(decomp: EigenDecomposition) -> list[np.ndarray]:
    """Eigenframes of the greedy ascending merge of eigenvalues whose
    consecutive gap is <= default_cluster_tol(||A||), in ascending order:
    the package's one cluster rule, which every verdict reads.

    Each frame is a copy of its columns of ``decomp.vectors``, as they are:
    for a decomposition from ``eig_hermitian`` these are columns of one
    phase-normalized unitary, so they are orthonormal already and keep their
    phases.  A cluster's eigenvalues are its slice of ``decomp.eigenvalues``
    and its multiplicity is its frame's width.
    """
    tau = default_cluster_tol(decomp.norm)
    values = decomp.eigenvalues
    starts = [0, *(np.flatnonzero(np.diff(values) > tau) + 1).tolist(), len(values)]
    return [decomp.vectors[:, lo:hi].copy() for lo, hi in zip(starts[:-1], starts[1:])]


def abs_hermitian(x) -> np.ndarray:
    """Matrix absolute value |X| = Q |diag| Q*; PSD and commuting with X."""
    dec = eig_hermitian(x)
    out = (dec.vectors * np.abs(dec.eigenvalues)[np.newaxis, :]) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2


def _bottom_eigpair(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector by LAPACK, for matrices the
    package built itself: no validation and no phase normalization."""
    w, v = np.linalg.eigh(g)
    return float(w[0]), v[:, 0]


# No package code calls this; it stays while perfbench/spans.py TRACED names it.
def min_eigpair(g) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector: the linear minimization
    oracle over density matrices (argmin tr(GR) is the bottom eigenprojection)."""
    return _bottom_eigpair(as_hermitian(g))
