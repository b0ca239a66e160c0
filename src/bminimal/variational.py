"""The affine family A(x) = A0 + sum_k x_k B_k and its nonsmooth calculus.

The top eigenvalue of A(x) is convex in x and its subdifferential equals
the moment of the top eigenspace; the bottom eigenvalue mirrors it with a
sign.  Minimality of A(x) is the condition 0 in d(lambda_max) +
d(lambda_min); since each subdifferential is the moment of its extremal
eigenspace, that condition is exactly the certification test, and
``is_minimal_variational`` is ``check_minimal`` on A(x).  A subgradient
method drives the best approximation dist(A0, B) = min_x ||A(x)||,
decomposing each point it evaluates once and reusing that decomposition
for the same verdict pipeline as its optimality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraBasis, compress
from .errors import NormNotTwoSided, ZeroMatrix
from .hermitian import (
    EigenDecomposition,
    as_hermitian,
    cluster_eigenvalues,
    eig_hermitian,
    frobenius,
)
from .minimality import (
    MINIMAL,
    MinimalityReport,
    _verdict,
    check_minimal,
    default_cluster_tol,
    spectral_split,
)
from .moment import (
    CompressedFamily,
    FWConfig,
    Subspace,
    compress_family,
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
    eigenspace; the view itself is the negative of that set, and the sign
    matters only when sets from both sides are combined.
    ``support(w)`` returns the one-sided directional derivative of the
    underlying function (top eigenvalue, bottom eigenvalue, or norm).
    """

    kind: str
    moment_max: CompressedFamily | None = None
    moment_min: CompressedFamily | None = None

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


def _extreme_space(dec: EigenDecomposition, top: bool, tau: float | None) -> Subspace:
    """The top (or bottom) eigenvalue cluster of a decomposition."""
    if tau is None:
        tau = default_cluster_tol(dec.norm)
    clusters = cluster_eigenvalues(dec, tau)
    return Subspace((clusters[-1] if top else clusters[0]).frame)


def subdiff_lambda_max(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Subdifferential of the top eigenvalue: the moment of its eigenspace."""
    space = _extreme_space(eig_hermitian(fam.evaluate(x)), top=True, tau=tau)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MAX, moment_max=compress_family(space, fam.basis)
    )


def subdiff_lambda_min(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Bottom-eigenvalue counterpart; the handle stores the moment of the
    bottom eigenspace and the view is its negative."""
    space = _extreme_space(eig_hermitian(fam.evaluate(x)), top=False, tau=tau)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MIN, moment_min=compress_family(space, fam.basis)
    )


def directional_derivative(fam: AffineFamily, x, w) -> float:
    """One-sided derivative of the top eigenvalue along w: the top eigenvalue
    of the direction matrix compressed to the current top eigenspace."""
    vec = np.asarray(w, dtype=float)
    if vec.shape != (fam.t,):
        raise ValueError(f"expected w of length {fam.t}, got shape {vec.shape}")
    q = _extreme_space(eig_hermitian(fam.evaluate(x)), top=True, tau=None).frame
    direction = np.einsum("k,kij->ij", vec, fam.basis.elements)
    compressed = q.conj().T @ direction @ q
    compressed = (compressed + compressed.conj().T) / 2
    if frobenius(compressed) == 0.0:
        return 0.0
    return float(eig_hermitian(compressed).eigenvalues[-1])


def subdiff_norm(fam: AffineFamily, x, tau: float | None = None) -> SubdifferentialView:
    """Subdifferential of ||A(x)||: the hull of both extreme sides when the
    norm is two-sided by ``spectral_split``'s rule, else the active side."""
    a = fam.evaluate(x)
    if frobenius(a) == 0.0:
        raise ZeroMatrix("the norm is not differentiable at the zero matrix")
    dec = eig_hermitian(a)
    try:
        spaces = spectral_split(dec, tau)
    except NormNotTwoSided:
        top = dec.eigenvalues[-1] > -dec.eigenvalues[0]
        moment = compress_family(_extreme_space(dec, top, tau), fam.basis)
        if top:
            return SubdifferentialView(kind=KIND_NORM_MAX, moment_max=moment)
        return SubdifferentialView(kind=KIND_NORM_MIN, moment_min=moment)
    return SubdifferentialView(
        kind=KIND_NORM_BOTH,
        moment_max=compress_family(spaces.plus, fam.basis),
        moment_min=compress_family(spaces.minus, fam.basis),
    )


def is_minimal_variational(
    fam: AffineFamily,
    x,
    cfg: FWConfig = FWConfig(),
    tau: float | None = None,
) -> MinimalityReport:
    """Minimality of A(x) via 0 in d(lambda_max) + d(lambda_min).

    Each subdifferential is the moment of its extremal eigenspace, so the
    condition is the certification test itself: this is ``check_minimal``
    on A(x).
    """
    return check_minimal(fam.evaluate(x), fam.basis, cfg, tau)


def _norm_and_subgradient(fam: AffineFamily, x) -> tuple[float, np.ndarray, EigenDecomposition]:
    """||A(x)||, one subgradient of it, and the decomposition of A(x).

    The subgradient is the moment coordinate vector of the extreme
    eigenvector on the active side (negated on the bottom side); ties go to
    the top side.
    """
    dec = eig_hermitian(fam.evaluate(x))
    top = dec.eigenvalues[-1] >= -dec.eigenvalues[0]
    v = dec.vectors[:, -1 if top else 0]
    g = np.real(np.einsum("i,kij,j->k", v.conj(), fam.basis.elements, v))
    return dec.norm, (g if top else -g), dec


def _certified_optimal(
    fam: AffineFamily, x, dec: EigenDecomposition, cfg: SolverConfig
) -> bool:
    """0 in d||A(x)||, given the decomposition of A(x): the norm is below
    dist_tol, or the check_minimal pipeline says minimal."""
    if dec.norm <= cfg.dist_tol:
        return True
    return _verdict(fam.evaluate(x), dec, fam.basis, cfg.fw).verdict == MINIMAL


def best_approximation(
    fam: AffineFamily,
    x0,
    cfg: SolverConfig = SolverConfig(),
) -> BestApproxResult:
    """Minimize ||A(x)|| by subgradient descent with diminishing steps.

    The Frobenius projection of A0 onto the span (x = -coordinates of A0)
    is evaluated as a deterministic warm-start candidate alongside x0, and
    iteration starts from the better of the two.  The best iterate is
    tracked throughout; convergence is declared when the check_minimal
    pipeline certifies the optimality condition 0 in d||A(x)|| at an
    improved iterate (or the norm itself falls below dist_tol), otherwise
    the cap is reported.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (fam.t,):
        raise ValueError(f"expected x0 of length {fam.t}, got shape {x.shape}")

    # seed the search with the start point, the unperturbed point, and the
    # Frobenius projection of A0 onto the span; iterate from the best one
    candidates = [x, np.zeros(fam.t), -compress(fam.a0, fam.basis)]
    evaluated = [_norm_and_subgradient(fam, cand) for cand in candidates]
    pick = int(np.argmin([f for f, _, _ in evaluated]))
    x = candidates[pick]
    best_f, g, dec = evaluated[pick]

    best_x = x.copy()
    norms = [best_f]
    converged = _certified_optimal(fam, best_x, dec, cfg)
    if not converged:
        c = cfg.c if cfg.c is not None else max(best_f, 1.0)
        for k in range(1, cfg.max_iter + 1):
            gnorm = float(np.linalg.norm(g))
            if gnorm == 0.0:
                break
            x = x - (c / np.sqrt(k)) * g
            f, g, dec = _norm_and_subgradient(fam, x)
            norms.append(f)
            if f < best_f:
                best_f = f
                best_x = x.copy()
                if _certified_optimal(fam, best_x, dec, cfg):
                    converged = True
                    break
    trace = np.column_stack((np.arange(len(norms), dtype=float), norms))
    return BestApproxResult(
        x_star=best_x, dist=best_f, trace=trace, converged=converged
    )
