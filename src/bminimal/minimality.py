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

from .algebra import SubalgebraBasis, contains_identity
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
    EigenDecomposition,
    abs_hermitian,
    as_hermitian,
    cluster_eigenvalues,
    eig_hermitian,
    frobenius,
)
from .moment import FWConfig, Subspace, decide, intersects, moment_distance

ORTHOGONALITY_TOL = 1e-8

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"
UNDECIDED = "undecided"

REASON_NORM = "norm_not_two_sided"
REASON_DISJOINT = "moments_disjoint"
REASON_CERTIFICATE = "certificate_found"
REASON_GAP = "gap_undecided"


def default_cluster_tol(norm: float) -> float:
    return 1e-8 * max(1.0, norm)


@dataclass(frozen=True)
class ExtremalSpaces:
    """Eigenspaces of +||A|| and -||A||, plus the orthogonal rest."""

    norm: float
    plus: Subspace
    minus: Subspace
    rest: Subspace | None


@dataclass(frozen=True)
class Certificate:
    """Witness X = Q+ R+ Q+* - Q- R- Q-* of minimality.

    The densities have unit trace, so the trace norm of X is 2.
    residual_eq measures ||A X - ||A|| |X| ||_F and residual_perp the
    largest coordinate of X against the basis.
    """

    x: np.ndarray
    rho_plus: np.ndarray
    rho_minus: np.ndarray
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


def spectral_split(dec: EigenDecomposition, tau: float | None = None) -> ExtremalSpaces:
    """The eigenspaces at +-||A|| of a decomposed nonzero A.

    The norm is two-sided iff |lam_max + lam_min| <= tau (default
    ``default_cluster_tol(||A||)``); otherwise NormNotTwoSided is raised,
    carrying the norm and flagging deficits up to 2 tau as ``near``, where
    neither answer is trustworthy.  This is the package's one two-sidedness
    rule.
    """
    norm = dec.norm
    if tau is None:
        tau = default_cluster_tol(norm)
    deficit = abs(float(dec.eigenvalues[-1] + dec.eigenvalues[0]))
    if deficit > tau:
        raise NormNotTwoSided(
            f"spectrum misses one of +-||A||: |lam_max + lam_min| = {deficit:.3e} "
            f"exceeds tau = {tau:.1e}",
            norm=norm,
            near=deficit <= 2.0 * tau,
        )
    clusters = cluster_eigenvalues(dec, tau)
    rest_frames = [c.frame for c in clusters[1:-1]]
    rest = Subspace(np.hstack(rest_frames)) if rest_frames else None
    return ExtremalSpaces(
        norm=norm,
        plus=Subspace(clusters[-1].frame),
        minus=Subspace(clusters[0].frame),
        rest=rest,
    )


def _decompose(a) -> EigenDecomposition:
    mat = as_hermitian(a)
    if frobenius(mat) == 0.0:
        raise ZeroMatrix("the zero matrix has no extremal eigenspaces")
    return eig_hermitian(mat)


def extremal_eigenspaces(a, tau: float | None = None) -> ExtremalSpaces:
    """Validate, decompose and split A: its eigenspaces at +-||A||.

    Raises ZeroMatrix for A = 0 and NormNotTwoSided (see ``spectral_split``)
    when one of the signed extremes is missing.
    """
    return spectral_split(_decompose(a), tau)


def build_certificate(
    a,
    spaces: ExtremalSpaces,
    r_plus,
    r_minus,
    basis: SubalgebraBasis | None = None,
) -> Certificate:
    """Assemble X = Q+ R+ Q+* - Q- R- Q-* and record its residuals."""
    mat = as_hermitian(a)
    qp = spaces.plus.frame
    qm = spaces.minus.frame
    rp = np.asarray(r_plus, dtype=complex)
    rm = np.asarray(r_minus, dtype=complex)
    x = qp @ rp @ qp.conj().T - qm @ rm @ qm.conj().T
    x = (x + x.conj().T) / 2
    residual_eq = frobenius(mat @ x - spaces.norm * abs_hermitian(x))
    residual_perp = 0.0
    if basis is not None:
        coords = np.einsum("kij,ji->k", basis.elements, x)
        residual_perp = float(np.max(np.abs(coords)))
    return Certificate(
        x=x,
        rho_plus=rp,
        rho_minus=rm,
        residual_eq=residual_eq,
        residual_perp=residual_perp,
    )


def validate_certificate(a, x, basis: SubalgebraBasis, tol: float) -> bool:
    """Check a claimed certificate: Hermitian, nonzero, trace-orthogonal to
    the basis, and A X = ||A|| |X| within tol."""
    mat = as_hermitian(a)
    cand = np.asarray(x, dtype=complex)
    norm_x = frobenius(cand)
    if frobenius(cand - cand.conj().T) > tol * max(1.0, norm_x):
        return False
    if norm_x <= tol:
        return False
    coords = np.einsum("kij,ji->k", basis.elements, cand)
    if float(np.max(np.abs(coords))) > tol * max(1.0, norm_x):
        return False
    cand = (cand + cand.conj().T) / 2
    norm_a = eig_hermitian(mat).norm
    residual = frobenius(mat @ cand - norm_a * abs_hermitian(cand))
    return residual <= tol * max(1.0, norm_a * norm_x)


def check_minimal(
    a,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
    tau: float | None = None,
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
    return _verdict(a, _decompose(a), basis, cfg, tau)


_OUTCOMES = {
    True: (MINIMAL, REASON_CERTIFICATE),
    False: (NOT_MINIMAL, REASON_DISJOINT),
    None: (UNDECIDED, REASON_GAP),
}


def _verdict(
    a, dec: EigenDecomposition, basis: SubalgebraBasis, cfg: FWConfig, tau: float | None = None
) -> MinimalityReport:
    """The check_minimal verdict on A from its decomposition ``dec``."""
    try:
        spaces = spectral_split(dec, tau)
    except NormNotTwoSided as err:
        verdict = UNDECIDED if err.near else NOT_MINIMAL
        return MinimalityReport(verdict=verdict, reason=REASON_NORM, norm=err.norm)
    res = moment_distance(spaces.plus, spaces.minus, basis, cfg, until_decided=True)
    answer = decide(res, cfg)
    cert = None
    if answer:
        cert = build_certificate(a, spaces, res.witness_plus, res.witness_minus, basis=basis)
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
    overlap = frobenius(v.frame.conj().T @ w.frame)
    if overlap > ORTHOGONALITY_TOL:
        raise NotOrthogonal(f"subspaces overlap: ||V* W||_F = {overlap:.3e}")
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

    R may be None for no perturbation; otherwise it must be Hermitian with
    ||R|| <= lam and vanish on V + W.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    pv = v.frame @ v.frame.conj().T
    pw = w.frame @ w.frame.conj().T
    if r is None:
        rest = np.zeros((v.n, v.n), dtype=complex)
    else:
        rest = as_hermitian(r)
        r_norm = eig_hermitian(rest).norm
        if r_norm > lam + 1e-10:
            raise PerturbationTooLarge(f"||R|| = {r_norm:.6g} exceeds lam = {lam:.6g}")
        overlap = frobenius(rest @ (pv + pw))
        if overlap > 1e-10:
            raise PerturbationOverlapsSupport(
                f"||R (P_V + P_W)||_F = {overlap:.3e} is not negligible"
            )
    if not is_support_pair(v, w, basis, cfg):
        raise NotSupportPair("the moments of V and W do not intersect")
    m = lam * (pv - pw) + rest
    return (m + m.conj().T) / 2
