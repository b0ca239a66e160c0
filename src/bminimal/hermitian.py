"""Dense complex Hermitian linear algebra.

Everything downstream (moments, certificates, subdifferentials) reduces to
eigendecompositions of small dense Hermitian matrices, plus Euclidean
projections onto the probability simplex and the density-matrix set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

# Largest admissible relative asymmetry on construction; below it the input
# is silently repaired by averaging with its adjoint.
ASYMMETRY_TOL = 1e-12

_OFF_DIAG_TOL = 1e-12  # relative to ||A||_F
_MAX_SWEEPS = 100


def as_hermitian(a, tol: float = ASYMMETRY_TOL) -> np.ndarray:
    """Validate and symmetrize a square complex array.

    Rejects NaN/Inf and asymmetry above ``tol`` (relative to the largest
    entry), then returns the exactly Hermitian average (A + A*)/2.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("expected a nonempty matrix")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(arr))))
    asym = float(np.max(np.abs(arr - arr.conj().T)))
    if asym > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{tol:.1e} * {scale:.3e}"
        )
    return (arr + arr.conj().T) / 2


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization A = Q diag(w) Q* with w ascending."""

    eigenvalues: np.ndarray  # (n,) real, ascending
    vectors: np.ndarray      # (n, n) unitary, columns are eigenvectors
    residual: float          # ||A Q - Q diag(w)||_F against the input

    @property
    def norm(self) -> float:
        """Operator norm of A: the larger magnitude of the two extreme eigenvalues."""
        return max(abs(float(self.eigenvalues[0])), abs(float(self.eigenvalues[-1])))


@dataclass(frozen=True)
class EigenCluster:
    """A group of numerically coincident eigenvalues and its eigenframe."""

    value: float
    frame: np.ndarray  # (n, multiplicity), orthonormal columns
    multiplicity: int


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
    residual = frobenius(a0 @ q - q * values[np.newaxis, :])
    return EigenDecomposition(eigenvalues=values, vectors=q, residual=residual)


def cluster_eigenvalues(decomp: EigenDecomposition, tau: float) -> list[EigenCluster]:
    """Greedy ascending merge of eigenvalues whose consecutive gap is <= tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    values = decomp.eigenvalues
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= tau:
            groups[-1].append(i)
        else:
            groups.append([i])
    clusters = []
    for idx in groups:
        frame = decomp.vectors[:, idx]
        # Columns of a unitary matrix are already orthonormal; the QR pass is
        # cheap insurance against accumulated rounding inside a cluster.
        frame, _ = np.linalg.qr(frame)
        frame = _fix_phases(frame)
        clusters.append(
            EigenCluster(
                value=float(np.mean(values[idx])),
                frame=frame,
                multiplicity=len(idx),
            )
        )
    return clusters


def spectral_norm(a) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    arr = as_hermitian(a)
    if frobenius(arr) == 0.0:
        return 0.0
    return eig_hermitian(arr).norm


def abs_hermitian(x) -> np.ndarray:
    """Matrix absolute value |X| = Q |diag| Q*; PSD and commuting with X."""
    arr = as_hermitian(x)
    dec = eig_hermitian(arr)
    out = (dec.vectors * np.abs(dec.eigenvalues)[np.newaxis, :]) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1} by sort-and-threshold."""
    vec = np.asarray(v, dtype=float)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("expected a nonempty vector")
    if not np.all(np.isfinite(vec)):
        raise ValueError("vector entries must be finite")
    u = np.sort(vec)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, vec.size + 1)
    rho = int(np.nonzero(u * j > css - 1.0)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1)
    return np.maximum(vec - theta, 0.0)


def project_density(m) -> np.ndarray:
    """Frobenius-nearest density matrix: eigenvalues projected onto the simplex."""
    arr = as_hermitian(m)
    dec = eig_hermitian(arr)
    lam = project_simplex(dec.eigenvalues)
    out = (dec.vectors * lam[np.newaxis, :]) @ dec.vectors.conj().T
    return (out + out.conj().T) / 2


def _bottom_eigpair(g: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector by LAPACK, for matrices the
    package built itself: no validation, no phase normalization, no residual."""
    w, v = np.linalg.eigh(g)
    return float(w[0]), v[:, 0]


def min_eigpair(g) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector: the linear minimization
    oracle over density matrices (argmin tr(GR) is the bottom eigenprojection)."""
    return _bottom_eigpair(as_hermitian(g))
