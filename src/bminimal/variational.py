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
from .errors import NormNotTwoSided
from .hermitian import (
    EigenDecomposition,
    as_hermitian,
    cluster_eigenvalues,
    default_cluster_tol,
    eig_hermitian,
)
from .minimality import MINIMAL, MinimalityReport, _decompose, _verdict, check_minimal, spectral_split
from .moment import (
    CompressedFamily,
    FWConfig,
    Subspace,
    _require_finite,
    _require_max_iter,
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
        """A(x); x must be a finite real vector of length t."""
        vec = np.asarray(x, dtype=float)
        if vec.shape != (self.t,):
            raise ValueError(f"expected x of length {self.t}, got shape {vec.shape}")
        _require_finite(vec, "x")
        out = self.a0 + self.basis.combine(vec)
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
        if self.kind == KIND_LAMBDA_MIN:
            return -support_function(self.moment_min, -vec)
        sides = ((self.moment_max, vec), (self.moment_min, -vec))
        return max(support_function(fam, d) for fam, d in sides if fam is not None)


@dataclass(frozen=True)
class SolverConfig:
    """Budget for the subgradient best-approximation loop and the Frank-Wolfe
    settings of its optimality test.  ``fw.dist_tol`` is in moment space."""

    max_iter: int = 2000
    fw: FWConfig = field(default_factory=FWConfig)

    def __post_init__(self):
        _require_max_iter(self.max_iter)


@dataclass(frozen=True)
class BestApproxResult:
    """``trace[k]`` is ||A(x_k)|| at step k = 0, ..., iterations, so the
    run took ``len(trace) - 1`` steps."""

    x_star: np.ndarray
    dist: float
    trace: np.ndarray  # (iterations + 1,) float
    converged: bool


def _extreme_space(dec: EigenDecomposition, top: bool) -> Subspace:
    """The top (or bottom) eigenvalue cluster of a decomposition."""
    frames = cluster_eigenvalues(dec)
    return Subspace._trusted(frames[-1 if top else 0])


def subdiff_lambda_max(fam: AffineFamily, x) -> SubdifferentialView:
    """Subdifferential of the top eigenvalue: the moment of its eigenspace."""
    space = _extreme_space(eig_hermitian(fam.evaluate(x)), top=True)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MAX, moment_max=compress_family(space, fam.basis)
    )


def subdiff_lambda_min(fam: AffineFamily, x) -> SubdifferentialView:
    """Bottom-eigenvalue counterpart; the handle stores the moment of the
    bottom eigenspace and the view is its negative."""
    space = _extreme_space(eig_hermitian(fam.evaluate(x)), top=False)
    return SubdifferentialView(
        kind=KIND_LAMBDA_MIN, moment_min=compress_family(space, fam.basis)
    )


def directional_derivative(fam: AffineFamily, x, w) -> float:
    """One-sided derivative of the top eigenvalue along w: the support of its
    subdifferential, the top eigenvalue of sum_k w_k Q* B_k Q on the current
    top eigenspace Q."""
    return subdiff_lambda_max(fam, x).support(w)


def subdiff_norm(fam: AffineFamily, x) -> SubdifferentialView:
    """Subdifferential of ||A(x)||: the hull of both extreme sides when the
    norm is two-sided by ``spectral_split``'s rule, else the active side.
    Raises ZeroMatrix at A(x) = 0, where the norm is not differentiable."""
    dec = _decompose(fam.evaluate(x))
    try:
        spaces = spectral_split(dec)
    except NormNotTwoSided:
        top = dec.eigenvalues[-1] > -dec.eigenvalues[0]
        moment = compress_family(_extreme_space(dec, top), fam.basis)
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
) -> MinimalityReport:
    """Minimality of A(x) via 0 in d(lambda_max) + d(lambda_min).

    Each subdifferential is the moment of its extremal eigenspace, so the
    condition is the certification test itself: this is ``check_minimal``
    on A(x).
    """
    return check_minimal(fam.evaluate(x), fam.basis, cfg)


def _norm_and_subgradient(fam: AffineFamily, x) -> tuple[float, np.ndarray, EigenDecomposition]:
    """||A(x)||, one subgradient of it, and the decomposition of A(x).

    The subgradient is the mean moment of the extreme cluster's eigenvectors
    on the active side (negated on the bottom side; ties go to the top): the
    moment of its projector over its rank, whichever basis rounding picks.
    """
    dec = eig_hermitian(fam.evaluate(x))
    top = dec.eigenvalues[-1] >= -dec.eigenvalues[0]
    frame = _extreme_space(dec, top).frame
    g = np.mean([fam.basis.coords(np.outer(v, v.conj())).real for v in frame.T], axis=0)
    return dec.norm, (g if top else -g), dec


def _certified_optimal(fam: AffineFamily, dec: EigenDecomposition, a0_norm: float,
                       cfg: SolverConfig) -> bool:
    """0 in d||A(x)||, given the decomposition of A(x): its norm is at most
    default_cluster_tol(||A0||), or the check_minimal pipeline says minimal."""
    if dec.norm <= default_cluster_tol(a0_norm):
        return True
    return _verdict(dec, fam.basis, cfg.fw).verdict == MINIMAL


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
    improved iterate (or its norm falls to default_cluster_tol(||A0||)),
    otherwise the cap is reported.  Steps scale with the start norm.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (fam.t,):
        raise ValueError(f"expected x0 of length {fam.t}, got shape {x.shape}")

    # seed the search with the start point, the unperturbed point, and the
    # Frobenius projection of A0 onto the span, skipping a candidate equal to
    # an earlier one (x0 = 0 is the unperturbed point); iterate from the best
    candidates: list[np.ndarray] = []
    for cand in (x, np.zeros(fam.t), -compress(fam.a0, fam.basis)):
        if not any(np.array_equal(cand, prev) for prev in candidates):
            candidates.append(cand)
    evaluated = [_norm_and_subgradient(fam, cand) for cand in candidates]
    a0_norm = next(f for cand, (f, _, _) in zip(candidates, evaluated) if not cand.any())
    pick = int(np.argmin([f for f, _, _ in evaluated]))
    x = candidates[pick]
    best_f, g, dec = evaluated[pick]

    best_x = x.copy()
    norms = [best_f]
    converged = _certified_optimal(fam, dec, a0_norm, cfg)
    if not converged:
        c = best_f  # step scale ||A(x_start)||
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
                if _certified_optimal(fam, dec, a0_norm, cfg):
                    converged = True
                    break
    return BestApproxResult(
        x_star=best_x, dist=best_f, trace=np.array(norms), converged=converged
    )
