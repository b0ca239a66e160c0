"""Minimality certification for Hermitian matrices relative to a subalgebra.

A Hermitian A is minimal when ||A|| <= ||A + B|| for every B in the
subalgebra.  With a unital subalgebra this reduces to two checks: both
+-||A|| must be eigenvalues, and the moments of the two extremal
eigenspaces must intersect.  A witness of the intersection converts into a
certificate X with A X = ||A|| |X| and X trace-orthogonal to the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SubalgebraBasis, contains_identity, in_trace_orthocomplement
from .errors import (
    NonUnitalBasis,
    NormNotTwoSided,
    NotOrthogonal,
    NotSupportPair,
    PerturbationOverlapsSupport,
    PerturbationTooLarge,
    ZeroMatrix,
)
from .hermitian import (
    STRUCTURE_TOL,
    EigenDecomposition,
    abs_hermitian,
    cluster_eigenvalues,
    default_cluster_tol,
    eig_hermitian,
    frobenius,
)
from .moment import FWConfig, Subspace, decide, intersects, moment_distance

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"
UNDECIDED = "undecided"

REASON_NORM = "norm_not_two_sided"
REASON_DISJOINT = "moments_disjoint"
REASON_CERTIFICATE = "certificate_found"
REASON_GAP = "gap_undecided"


@dataclass(frozen=True)
class ExtremalSpaces:
    """The norm ||A|| and the eigenspaces of +||A|| and -||A||.  From
    ``spectral_split`` both frames are columns of one ``eig_hermitian``
    unitary, so they are orthonormal and mutually orthogonal."""

    norm: float
    plus: Subspace
    minus: Subspace


@dataclass(frozen=True)
class Certificate:
    """Witness X = Q+ R+ Q+* - Q- R- Q-* of minimality.

    The densities have unit trace, so the trace norm of X is 2.
    residual_eq measures ||A X - ||A|| |X| ||_F, with |X| = Q+ |R+| Q+* +
    Q- |R-| Q-* taken from the witness blocks over the orthogonal frames,
    and residual_perp the largest coordinate of X against the basis.
    """

    x: np.ndarray
    residual_eq: float
    residual_perp: float


@dataclass(frozen=True)
class MinimalityReport:
    verdict: str
    reason: str
    norm: float
    distance: float | None = None
    gap: float | None = None
    certificate: Certificate | None = None


def spectral_split(dec: EigenDecomposition) -> ExtremalSpaces:
    """The eigenspaces at +-||A|| of a decomposed nonzero A.

    With tau = default_cluster_tol(||A||), the norm is two-sided iff
    |lam_max + lam_min| <= tau; otherwise NormNotTwoSided is raised,
    carrying the norm and flagging deficits up to 2 tau as ``near``, where
    neither answer is trustworthy.  This is the package's one two-sidedness
    rule.  Only a two-sided spectrum is clustered.  Its two ends are at
    least 2 ||A|| - tau = (2e8 - 1) tau apart, so n - 1 gaps of at most tau
    join them into one cluster only when n > 2e8 (below the floor of
    ``default_cluster_tol``, at subnormal norms, this bound does not hold).
    """
    norm = dec.norm
    tau = default_cluster_tol(norm)
    deficit = abs(float(dec.eigenvalues[-1] + dec.eigenvalues[0]))
    if deficit > tau:
        raise NormNotTwoSided(
            f"spectrum misses one of +-||A||: |lam_max + lam_min| = {deficit:.3e} "
            f"exceeds tau = {tau:.1e}",
            norm=norm,
            near=deficit <= 2.0 * tau,
        )
    frames = cluster_eigenvalues(dec)
    # The cluster frames are columns of the decomposition's unitary, so the
    # subspaces take them as they are.
    return ExtremalSpaces(
        norm=norm,
        plus=Subspace._trusted(frames[-1]),
        minus=Subspace._trusted(frames[0]),
    )


def _decompose(a) -> EigenDecomposition:
    """Validate (inside eig_hermitian) and decompose A; A = 0 raises ZeroMatrix."""
    dec = eig_hermitian(a)
    if dec.norm == 0.0:
        raise ZeroMatrix("the zero matrix has no extremal eigenspaces")
    return dec


# No package code calls this; it stays while perfbench/spans.py TRACED names it.
def extremal_eigenspaces(a) -> ExtremalSpaces:
    """Validate, decompose and split A: its eigenspaces at +-||A||.

    Raises ZeroMatrix for A = 0 and NormNotTwoSided (see ``spectral_split``)
    when one of the signed extremes is missing.
    """
    return spectral_split(_decompose(a))


def build_certificate(
    dec: EigenDecomposition,
    spaces: ExtremalSpaces,
    r_plus,
    r_minus,
    basis: SubalgebraBasis,
) -> Certificate:
    """Assemble X = Q+ R+ Q+* - Q- R- Q-* and record its residuals against
    A = ``dec.matrix``, the input ``eig_hermitian`` validated.

    The frames must be orthogonal (NotOrthogonal otherwise).  Then X is
    factored over them, |X| = Q+ |R+| Q+* + Q- |R-| Q-* with the Hermitian
    parts of the r x r blocks, and residual_eq costs two small eigensolves
    instead of an n x n one.  No sign of the blocks is assumed.
    """
    qp = spaces.plus.frame
    qm = spaces.minus.frame
    _require_orthogonal(qp, qm)
    rp = np.asarray(r_plus, dtype=complex)
    rm = np.asarray(r_minus, dtype=complex)
    x = qp @ rp @ qp.conj().T - qm @ rm @ qm.conj().T
    x = (x + x.conj().T) / 2
    abs_x = _abs_over_frame(qp, rp) + _abs_over_frame(qm, rm)
    return Certificate(
        x=x,
        residual_eq=frobenius(dec.matrix @ x - spaces.norm * abs_x),
        residual_perp=float(np.max(np.abs(basis.coords(x)))),
    )


def _require_orthogonal(v: np.ndarray, w: np.ndarray) -> None:
    """Raise NotOrthogonal when ||V* W||_F of two frames exceeds STRUCTURE_TOL."""
    overlap = frobenius(v.conj().T @ w)
    if overlap > STRUCTURE_TOL:
        raise NotOrthogonal(f"subspaces overlap: ||V* W||_F = {overlap:.3e}")


def _abs_over_frame(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Q |H| Q* for an orthonormal n x r frame Q and the Hermitian part H of
    an r x r block, with |H| from LAPACK."""
    w, v = np.linalg.eigh((r + r.conj().T) / 2)
    u = q @ v
    return (u * np.abs(w)) @ u.conj().T


def _require_size(m, n: int, what: str) -> None:
    """Refuse an operand that is not n x n for a basis of size n, before it
    is decomposed or multiplied; ``what`` names the operand."""
    shape = np.shape(m)
    if shape != (n, n):
        raise ValueError(f"{what} of shape {shape} does not match basis n = {n}")


def _require_same_size(v: Subspace, w: Subspace) -> None:
    if v.n != w.n:
        raise ValueError(f"frames of different sizes: V has {v.n} rows, W has {w.n}")


def validate_certificate(a, x, basis: SubalgebraBasis, tol: float) -> bool:
    """Check a claimed certificate: nonzero, Hermitian and trace-orthogonal
    to the basis within tol * ||X||_F, and A X = ||A|| |X| within
    tol * ||A|| ||X||_F, so (cA, dX) gets the answer of (A, X).  A and X
    must both be n x n for the basis's n (ValueError otherwise)."""
    cand = np.asarray(x, dtype=complex)
    _require_size(a, basis.n, "matrix")
    _require_size(cand, basis.n, "certificate")
    dec = eig_hermitian(a)
    norm_x = frobenius(cand)
    if (norm_x == 0.0 or frobenius(cand - cand.conj().T) > tol * norm_x
            or not in_trace_orthocomplement(cand, basis, tol)):
        return False
    cand = (cand + cand.conj().T) / 2
    residual = frobenius(dec.matrix @ cand - dec.norm * abs_hermitian(cand))
    return residual <= tol * dec.norm * norm_x


def check_minimal(
    a,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
) -> MinimalityReport:
    """Certify minimality of A relative to the (unital) subalgebra.

    Pipeline: decompose A once and split off the eigenspaces at +-||A||
    (their absence settles the question for a unital algebra), then decide
    whether their moments intersect.  A positive answer is always
    accompanied by a certificate built from the feasibility witnesses; an
    inconclusive gap yields the verdict "undecided" rather than a guess.
    """
    if not contains_identity(basis):
        raise NonUnitalBasis("minimality tests require the identity in the span")
    _require_size(a, basis.n, "matrix")
    return _verdict(_decompose(a), basis, cfg)


_OUTCOMES = {
    True: (MINIMAL, REASON_CERTIFICATE),
    False: (NOT_MINIMAL, REASON_DISJOINT),
    None: (UNDECIDED, REASON_GAP),
}


def _verdict(dec: EigenDecomposition, basis: SubalgebraBasis, cfg: FWConfig) -> MinimalityReport:
    """The check_minimal verdict on A from its decomposition ``dec``."""
    try:
        spaces = spectral_split(dec)
    except NormNotTwoSided as err:
        verdict = UNDECIDED if err.near else NOT_MINIMAL
        return MinimalityReport(verdict=verdict, reason=REASON_NORM, norm=err.norm)
    res = moment_distance(spaces.plus, spaces.minus, basis, cfg, until_decided=True)
    answer = decide(res.distance, res.gap, cfg)
    cert = None
    if answer:
        cert = build_certificate(dec, spaces, res.witness_plus, res.witness_minus, basis)
    verdict, reason = _OUTCOMES[answer]
    return MinimalityReport(
        verdict=verdict,
        reason=reason,
        norm=spaces.norm,
        distance=res.distance,
        gap=res.gap,
        certificate=cert,
    )


def is_support_pair(
    v: Subspace,
    w: Subspace,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
) -> bool:
    """Do the moments of two orthogonal subspaces intersect?"""
    if not contains_identity(basis):
        raise NonUnitalBasis("support pairs are defined for unital subalgebras")
    _require_same_size(v, w)
    _require_orthogonal(v.frame, w.frame)
    return intersects(v, w, basis, cfg)


def construct_minimal(
    v: Subspace,
    w: Subspace,
    lam: float,
    r,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
) -> np.ndarray:
    """Build the minimal matrix lam (P_V - P_W) + R from a support pair.

    V and W must have the same number of rows n, and R, unless None for no
    perturbation, must be n x n: sizes are compared before any product.  R
    must be Hermitian with ||R|| <= lam + default_cluster_tol(lam) and
    vanish on V + W, ||R (P_V + P_W)||_F <= STRUCTURE_TOL * lam: both
    relative to lam.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("lam must be positive and finite")
    _require_same_size(v, w)
    if r is not None and np.shape(r) != (v.n, v.n):
        raise ValueError(f"R has shape {np.shape(r)}, but V and W have {v.n} rows")
    pv = v.frame @ v.frame.conj().T
    pw = w.frame @ w.frame.conj().T
    if r is None:
        rest = np.zeros((v.n, v.n), dtype=complex)
    else:
        dec = eig_hermitian(r)
        rest, r_norm = dec.matrix, dec.norm
        if r_norm > lam + default_cluster_tol(lam):
            raise PerturbationTooLarge(f"||R|| = {r_norm:.6g} exceeds lam = {lam:.6g}")
        overlap = frobenius(rest @ (pv + pw))
        if overlap > STRUCTURE_TOL * lam:
            raise PerturbationOverlapsSupport(
                f"||R (P_V + P_W)||_F = {overlap:.3e} is not negligible"
            )
    if not is_support_pair(v, w, basis, cfg):
        raise NotSupportPair("the moments of V and W do not intersect")
    m = lam * (pv - pw) + rest
    return (m + m.conj().T) / 2
