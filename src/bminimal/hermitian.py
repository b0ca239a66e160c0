"""Dense complex Hermitian linear algebra.

Everything downstream (moments, certificates, subdifferentials) reduces to
eigendecompositions of small dense Hermitian matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

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
# Below this Frobenius norm the sum of squares is subnormal or 0, and the
# plain norm has lost bits.
_NORM_FLOOR = 2.0**-511


# The operand rules: every public entry checks its operands through these, so
# each kind of bad operand is refused one way, by name, everywhere.
def _require_tol(tol: float, name: str) -> None:
    """Refuse a tolerance that is NaN, infinite, zero or negative, naming it."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerances must be positive and finite: {name} is {tol!r}")


def _require_count(value, name: str, least: int = 1) -> None:
    """Refuse a count that is not an integer >= ``least``, naming it; a bool
    or an integral float is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_finite(arr, name: str) -> None:
    """Refuse an array with a NaN or infinite entry, naming it and the entry."""
    bad = ~np.isfinite(arr)
    if bad.any():
        k = tuple(map(int, np.unravel_index(bad.argmax(), bad.shape)))
        where = k[0] if len(k) == 1 else k
        raise ValueError(f"{name} must be finite: entry {where} is {arr[k]}")


def _require_shape(value, shape: tuple, what: str, against: str) -> None:
    """Refuse an operand ``what`` whose shape is not ``shape``, before any
    product or eigensolve; ``against`` names what fixes the shape."""
    if np.shape(value) != shape:
        raise ValueError(f"{what} of shape {np.shape(value)} does not match {against}")


def symmetrize(x) -> np.ndarray:
    """The Hermitian part x/2 + x*/2 of a matrix, or of each matrix of a stack
    (over the last two axes): the package's one rule for it.

    Halving first cannot overflow, and it gives the bits of (x + x*)/2
    wherever the halves are normal floats, since halving is exact there.
    """
    return _fold(np.asarray(x) * 0.5)


def _fold(half: np.ndarray) -> np.ndarray:
    """``symmetrize``'s second half, in place: half + half* for the halved x."""
    half += half.conj().swapaxes(-1, -2)
    return half


def unit_scaled(a) -> tuple[np.ndarray, int]:
    """(2^-e a, e) for the e that puts the largest real or imaginary part of
    ``a`` in [0.5, 1), as a new C-ordered array (at least 1-d); e = 0 when
    ``a`` is zero or not finite.

    A power of two scales every normal float exactly, so work on 2^-e a
    keeps the bits of work on a, and no product or sum of squares leaves the
    normal range.  The real and imaginary parts are scaled as floats,
    because a complex division by a subnormal overflows.
    """
    arr = np.ascontiguousarray(a, dtype=complex if np.iscomplexobj(a) else float)
    parts = arr.view(float)  # real and imaginary parts side by side
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]  # 0 for 0, inf, NaN
    return np.ldexp(parts, -e).view(arr.dtype), e


def as_hermitian(a) -> np.ndarray:
    """Validate and symmetrize a square complex array.

    Rejects NaN/Inf and asymmetry above INPUT_TOL times the largest entry,
    then returns the exactly Hermitian average (A + A*)/2.
    """
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {arr.shape}")
    return _as_hermitian_stack(arr[np.newaxis])[0]


def _as_hermitian_stack(arr: np.ndarray, name: str = "matrix") -> np.ndarray:
    """The rule of ``as_hermitian`` for every matrix of a nonempty complex
    (t, n, n) stack, checked in one pass: NaN/Inf anywhere fails, then the
    first element whose asymmetry exceeds INPUT_TOL times its own scale.
    The messages call each matrix ``name``.  Each element is checked and
    symmetrized scaled by its own power of two, as ``unit_scaled`` scales,
    so subnormal entries halve exactly and an exactly Hermitian one keeps
    its bits."""
    # Every public eigensolve passes through here with t = 1, so the pass keeps
    # to few numpy calls: array methods, and per-element maxima over flat rows.
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    rows = (arr.shape[0], -1)
    parts = np.ascontiguousarray(arr).view(float)  # real and imaginary parts
    e = np.frexp(np.abs(parts).reshape(rows).max(axis=1))[1].reshape(-1, 1, 1)
    unit = np.ldexp(parts, -e).view(complex)
    herm = symmetrize(unit)
    scale = np.abs(unit).reshape(rows).max(axis=1)
    # A - H(A) = (A - A*)/2, which cannot overflow where A - A* can
    skew = np.abs(unit - herm).reshape(rows).max(axis=1)
    bad = skew > (INPUT_TOL / 2) * scale
    if bad.any():
        k = int(bad.argmax())
        with np.errstate(over="ignore"):  # a modulus may exceed the float range
            skew_k, scale_k = np.ldexp([2 * skew[k], scale[k]], e.flat[k])
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {skew_k:.3e} exceeds "
            f"{INPUT_TOL:.1e} * {scale_k:.3e}"
        )
    return np.ldexp(herm.view(float), e).view(complex)


def frobenius(a) -> float:
    """||a||_F at any scale: where the plain sum of squares leaves the normal
    range (a norm below 2^-511, or inf for a finite array), the norm is taken
    of ``unit_scaled(a)`` and scaled back exactly; inf only when the norm
    itself exceeds the float range."""
    arr = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
        if norm < _NORM_FLOOR or norm == math.inf:
            scaled, e = unit_scaled(arr)
            norm = float(np.ldexp(np.linalg.norm(scaled), e))
    return norm


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
    """Validate A (``as_hermitian``) and eigendecompose it with ``_eig``."""
    return _eig(as_hermitian(a))


def _eig(a0: np.ndarray) -> EigenDecomposition:
    """Eigendecompose an exactly Hermitian, finite complex matrix that the
    package built or validated, unchecked, by cyclic complex Jacobi sweeps.

    Unitary Givens rotations (with phases chosen to zero each off-diagonal
    pair) are applied in fixed cyclic order until the off-diagonal Frobenius
    norm drops below 1e-12 * ||A||_F, capped at 100 sweeps.  The sweeps run
    on ``unit_scaled(A)`` and the eigenvalues are scaled back exactly, so
    cA (c > 0) gets c times the eigenvalues and the same eigenvectors of A
    from 1e-300 to 1e300.  Deterministic for a fixed input; eigenvalues
    returned ascending; eigenvector phases normalized so the first
    largest-modulus entry of each column is real positive.
    """
    n = a0.shape[0]
    work, e = unit_scaled(a0)
    q = np.eye(n, dtype=complex)
    norm_f = float(np.linalg.norm(work))
    off_tol = _OFF_DIAG_TOL * norm_f
    rotate_tol = off_tol / max(n, 1)

    def off_norm(m: np.ndarray) -> float:
        stripped = m.copy()
        np.fill_diagonal(stripped, 0.0)
        return float(np.linalg.norm(stripped))

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
            f"off-diagonal norm {math.ldexp(off_norm(work), e):.3e} above "
            f"{math.ldexp(off_tol, e):.3e} after {_MAX_SWEEPS} sweeps"
        )

    values = np.real(np.diag(work))
    order = np.argsort(values, kind="stable")
    values = values[order]
    if e > 0 and max(-values[0], values[-1]) >= 2.0 ** (1024 - e):
        raise ValueError("an eigenvalue of the matrix exceeds the float range")
    values = np.ldexp(values, e)
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
    # halves, so that a gap beyond the float range still compares
    starts = [0, *(np.flatnonzero(np.diff(values / 2) > tau / 2) + 1).tolist(), len(values)]
    return [decomp.vectors[:, lo:hi].copy() for lo, hi in zip(starts[:-1], starts[1:])]


def abs_hermitian(x) -> np.ndarray:
    """Matrix absolute value |X| = Q |diag| Q*; PSD and commuting with X."""
    h = as_hermitian(x)
    return symmetrize(_abs_over_frame(np.eye(len(h)), h))


def _abs_over_frame(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q |H| Q* for an orthonormal n x r frame Q and the Hermitian part H of
    a finite r x r block the package built or validated, with |H| from
    LAPACK: the package's one |X|."""
    w, v = np.linalg.eigh(symmetrize(r))
    u = q @ v
    return (u * np.abs(w)) @ u.conj().T


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
