"""The affine family A(x) = A0 + sum_k x_k B_k and its nonsmooth calculus.

The top eigenvalue of A(x) is convex in x and its subdifferential equals
the moment of the top eigenspace; the bottom eigenvalue mirrors it with a
sign.  Minimality of A(x) is the condition 0 in d(lambda_max) +
d(lambda_min), decided by the same moment-intersection machinery used by
the certification route, and a subgradient method drives the best
approximation dist(A0, B) = min_x ||A(x)||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraBasis, compress, contains_identity
from .errors import NonUnitalBasis, ZeroMatrix
from .hermitian import as_hermitian, cluster_eigenvalues, eig_hermitian, frobenius
from .minimality import (
    MINIMAL,
    NOT_MINIMAL,
    REASON_CERTIFICATE,
    REASON_DISJOINT,
    REASON_GAP,
    REASON_NORM,
    UNDECIDED,
    MinimalityReport,
    build_certificate,
    default_cluster_tol,
    ExtremalSpaces,
)
from .moment import (
    CompressedFamily,
    FWConfig,
    Subspace,
    compress_family,
    decide,
    moment_distance,
    support_function,
)

KIND_LAMBDA_MAX = "lambda_max"
KIND_LAMBDA_MIN = "lambda_min"
KIND_NORM_MAX = "norm_max_side"
KIND_NORM_MIN = "norm_min_side"
KIND_NORM_BOTH = "norm_both"


@dataclass(frozen=True)
class AffineFamily:
    """A0 + sum_k x_k B_k over the real coordinates x of the basis."""

    a0: np.ndarray
    basis: SubalgebraBasis

    def __post_init__(self):
        mat = as_hermitian(self.a0)
        if mat.shape[0] != self.basis.n:
            raise ValueError("base point and basis ambient dimensions differ")
        object.__setattr__(self, "a0", mat)

    @property
    def t(self) -> int:
        return self.basis.dim

    def evaluate(self, x) -> np.ndarray:
        vec = np.asarray(x, dtype=float)
        if vec.shape != (self.t,):
            raise ValueError(f"expected x of length {self.t}, got shape {vec.shape}")
        out = self.a0 + np.einsum("k,kij->ij", vec, self.basis.elements)
        return (out + out.conj().T) / 2


@dataclass(frozen=True)
class SubdifferentialView:
    """A subdifferential exposed as moment handles of extremal eigenspaces.

    For the bottom eigenvalue the stored handle is the moment of its
    eigenspace; the view itself is the negative of that set (sign_min), and
    the sign matters only when sets from both sides are combined.
    ``support(w)`` returns the one-sided directional derivative of the
    underlying function (top eigenvalue, bottom eigenvalue, or norm).
    """

    kind: str
    moment_max: CompressedFamily | None = None
    moment_min: CompressedFamily | None = None
    sign_min: int = -1

    def support(self, w) -> float:
        vec = np.asarray(w, dtype=float)
        if self.kind == KIND_LAMBDA_MAX or self.kind == KIND_NORM_MAX:
            return support_function(self.moment_max, vec)
        if self.kind == KIND_LAMBDA_MIN:
            return -support_function(self.moment_min, -vec)
        if self.kind == KIND_NORM_MIN:
            return support_function(self.moment_min, -vec)
        return max(
            support_function(self.moment_max, vec),
            support_function(self.moment_min, -vec),
        )


@dataclass(frozen=True)
class SolverConfig:
    """Budget and step rule for the subgradient best-approximation loop."""

    step_rule: str = "diminishing"
    c: float | None = None  # step scale; defaults to ||A(x0)||
    max_iter: int = 2000
    dist_tol: float = 1e-6
    seed: int = 0
    fw: FWConfig = field(default_factory=FWConfig)

    def __post_init__(self):
        if self.step_rule != "diminishing":
            raise ValueError(f"unknown step rule {self.step_rule!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.dist_tol <= 0:
            raise ValueError("dist_tol must be positive")


@dataclass(frozen=True)
class BestApproxResult:
    """``trace`` holds one (iteration, norm) row per step, starting at 0."""

    x_star: np.ndarray
    dist: float
    trace: np.ndarray  # (iterations + 1, 2) float
    converged: bool


def _extreme_cluster(fam: AffineFamily, x, top: bool, tau: float | None):
    a = fam.evaluate(x)
    dec = eig_hermitian(a)
    norm = max(abs(float(dec.eigenvalues[0])), abs(float(dec.eigenvalues[-1])))
    if tau is None:
        tau = default_cluster_tol(norm)
    clusters = cluster_eigenvalues(dec, tau)
    cluster = clusters[-1] if top else clusters[0]
    return Subspace(cluster.frame), dec, tau


def subdiff_lambda_max(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Subdifferential of the top eigenvalue: the moment of its eigenspace."""
    space, _, _ = _extreme_cluster(fam, x, top=True, tau=tau)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MAX, moment_max=compress_family(space, fam.basis)
    )


def subdiff_lambda_min(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Bottom-eigenvalue counterpart; the handle stores the moment of the
    bottom eigenspace and the view is its negative."""
    space, _, _ = _extreme_cluster(fam, x, top=False, tau=tau)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MIN, moment_min=compress_family(space, fam.basis)
    )


def directional_derivative(fam: AffineFamily, x, w) -> float:
    """One-sided derivative of the top eigenvalue along w: the top eigenvalue
    of the direction matrix compressed to the current top eigenspace."""
    vec = np.asarray(w, dtype=float)
    if vec.shape != (fam.t,):
        raise ValueError(f"expected w of length {fam.t}, got shape {vec.shape}")
    space, _, _ = _extreme_cluster(fam, x, top=True, tau=None)
    q = space.frame
    direction = np.einsum("k,kij->ij", vec, fam.basis.elements)
    compressed = q.conj().T @ direction @ q
    compressed = (compressed + compressed.conj().T) / 2
    if frobenius(compressed) == 0.0:
        return 0.0
    return float(eig_hermitian(compressed).eigenvalues[-1])


def subdiff_norm(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Subdifferential of ||A(x)||: the active extreme side, or the hull of
    both when the top and bottom eigenvalues tie in magnitude."""
    a = fam.evaluate(x)
    if frobenius(a) == 0.0:
        raise ZeroMatrix("the norm is not differentiable at the zero matrix")
    dec = eig_hermitian(a)
    lam_min = float(dec.eigenvalues[0])
    lam_max = float(dec.eigenvalues[-1])
    norm = max(abs(lam_min), abs(lam_max))
    if tau is None:
        tau = default_cluster_tol(norm)
    clusters = cluster_eigenvalues(dec, tau)
    if abs(lam_max + lam_min) <= 2.0 * tau:
        return SubdifferentialView(
            kind=KIND_NORM_BOTH,
            moment_max=compress_family(Subspace(clusters[-1].frame), fam.basis),
            moment_min=compress_family(Subspace(clusters[0].frame), fam.basis),
        )
    if lam_max > -lam_min:
        return SubdifferentialView(
            kind=KIND_NORM_MAX,
            moment_max=compress_family(Subspace(clusters[-1].frame), fam.basis),
        )
    return SubdifferentialView(
        kind=KIND_NORM_MIN,
        moment_min=compress_family(Subspace(clusters[0].frame), fam.basis),
    )


def is_minimal_variational(
    fam: AffineFamily,
    x,
    cfg: FWConfig = FWConfig(),
    tau: float | None = None,
) -> MinimalityReport:
    """Minimality of A(x) via 0 in d(lambda_max) + d(lambda_min).

    The hypothesis lambda_max = -lambda_min is checked first (it fails
    exactly when the norm is one-sided); then the moments of the two
    extremal eigenspaces are intersected, mirroring the certification
    route so the two verdicts agree.
    """
    if not contains_identity(fam.basis):
        raise NonUnitalBasis("minimality tests require the identity in the span")
    a = fam.evaluate(x)
    if frobenius(a) == 0.0:
        raise ZeroMatrix("A(x) must be nonzero")
    dec = eig_hermitian(a)
    lam_min = float(dec.eigenvalues[0])
    lam_max = float(dec.eigenvalues[-1])
    norm = max(abs(lam_min), abs(lam_max))
    if tau is None:
        tau = default_cluster_tol(norm)
    deficit = abs(lam_max + lam_min)
    if deficit > tau:
        verdict = UNDECIDED if deficit <= 2.0 * tau else NOT_MINIMAL
        return MinimalityReport(verdict=verdict, reason=REASON_NORM, norm=norm)
    clusters = cluster_eigenvalues(dec, tau)
    s_max = Subspace(clusters[-1].frame)
    s_min = Subspace(clusters[0].frame)
    res = moment_distance(s_max, s_min, fam.basis, cfg, until_decided=True)
    answer = decide(res, cfg)
    if answer:
        spaces = ExtremalSpaces(norm=norm, plus=s_max, minus=s_min, rest=None)
        cert = build_certificate(
            a, spaces, res.witness_plus, res.witness_minus, basis=fam.basis
        )
        return MinimalityReport(
            verdict=MINIMAL,
            reason=REASON_CERTIFICATE,
            norm=norm,
            distance=res.distance,
            gap=res.gap,
            certificate=cert,
        )
    if answer is False:
        return MinimalityReport(
            verdict=NOT_MINIMAL,
            reason=REASON_DISJOINT,
            norm=norm,
            distance=res.distance,
            gap=res.gap,
        )
    return MinimalityReport(
        verdict=UNDECIDED,
        reason=REASON_GAP,
        norm=norm,
        distance=res.distance,
        gap=res.gap,
    )


def _norm_and_subgradient(fam: AffineFamily, x) -> tuple[float, np.ndarray]:
    """||A(x)|| and one subgradient of it.

    The subgradient is the moment coordinate vector of the extreme
    eigenvector on the active side (negated on the bottom side); ties go to
    the top side.
    """
    a = fam.evaluate(x)
    dec = eig_hermitian(a)
    lam_min = float(dec.eigenvalues[0])
    lam_max = float(dec.eigenvalues[-1])
    if lam_max >= -lam_min:
        v = dec.vectors[:, -1]
        g = np.real(np.einsum("i,kij,j->k", v.conj(), fam.basis.elements, v))
        return lam_max, g
    v = dec.vectors[:, 0]
    g = -np.real(np.einsum("i,kij,j->k", v.conj(), fam.basis.elements, v))
    return -lam_min, g


def _certified_optimal(fam: AffineFamily, x, norm: float, cfg: SolverConfig) -> bool:
    """0 in d||A(x)|| certified through the moment intersection test."""
    if norm <= cfg.dist_tol:
        return True
    a = fam.evaluate(x)
    dec = eig_hermitian(a)
    lam_min = float(dec.eigenvalues[0])
    lam_max = float(dec.eigenvalues[-1])
    tau = default_cluster_tol(norm)
    if abs(lam_max + lam_min) > 2.0 * tau:
        return False
    clusters = cluster_eigenvalues(dec, tau)
    res = moment_distance(
        Subspace(clusters[-1].frame), Subspace(clusters[0].frame), fam.basis, cfg.fw,
        until_decided=True,
    )
    return decide(res, cfg.fw) is True


def best_approximation(
    fam: AffineFamily,
    x0,
    cfg: SolverConfig = SolverConfig(),
) -> BestApproxResult:
    """Minimize ||A(x)|| by subgradient descent with diminishing steps.

    The Frobenius projection of A0 onto the span (x = -coordinates of A0)
    is evaluated as a deterministic warm-start candidate alongside x0, and
    iteration starts from the better of the two.  The best iterate is
    tracked throughout; convergence is declared when the optimality
    condition 0 in d||A(x)|| is certified at a two-sided iterate (or the
    norm itself falls below dist_tol), otherwise the cap is reported.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (fam.t,):
        raise ValueError(f"expected x0 of length {fam.t}, got shape {x.shape}")

    # seed the search with the start point, the unperturbed point, and the
    # Frobenius projection of A0 onto the span; iterate from the best one
    candidates = [x, np.zeros(fam.t), -compress(fam.a0, fam.basis)]
    values = [_norm_and_subgradient(fam, cand)[0] for cand in candidates]
    x = candidates[int(np.argmin(values))]

    best_x = x.copy()
    best_f, g = _norm_and_subgradient(fam, x)
    norms = [best_f]
    converged = _certified_optimal(fam, best_x, best_f, cfg)
    if not converged:
        c = cfg.c if cfg.c is not None else max(best_f, 1.0)
        for k in range(1, cfg.max_iter + 1):
            gnorm = float(np.linalg.norm(g))
            if gnorm == 0.0:
                break
            x = x - (c / np.sqrt(k)) * g
            f, g = _norm_and_subgradient(fam, x)
            norms.append(f)
            if f < best_f:
                best_f = f
                best_x = x.copy()
                if _certified_optimal(fam, best_x, best_f, cfg):
                    converged = True
                    break
    trace = np.column_stack((np.arange(len(norms), dtype=float), norms))
    return BestApproxResult(
        x_star=best_x, dist=best_f, trace=trace, converged=converged
    )
