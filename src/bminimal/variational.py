"""The affine family A(x) = A0 + sum_k x_k B_k and its nonsmooth calculus.

The top eigenvalue of A(x) is convex in x and its subdifferential equals
the moment of the top eigenspace; the bottom eigenvalue mirrors it with a
sign.  Minimality of A(x) is the condition 0 in d(lambda_max) +
d(lambda_min); since each subdifferential is the moment of its extremal
eigenspace, that condition is exactly the certification test, and
``is_minimal_variational`` is ``check_minimal`` on A(x).  Accelerated
gradient on a smoothing of the extreme eigenvalues, with steps sized by the
curvature seen between successive points, drives the best approximation
dist(A0, B) = min_x ||A(x)||, decomposing each point it evaluates once and
reusing that decomposition for its gradient and for the same verdict
pipeline as its optimality test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraBasis
from .errors import NormNotTwoSided
from .hermitian import (
    EigenDecomposition,
    _eig,
    _require_count,
    _require_finite,
    _require_shape,
    as_hermitian,
    cluster_eigenvalues,
    default_cluster_tol,
    symmetrize,
)
from .minimality import MINIMAL, MinimalityReport, _verdict, check_minimal, spectral_split
from .moment import CompressedFamily, FWConfig, Subspace, compress_family, support_function

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
        n = self.basis.n
        _require_shape(self.a0, (n, n), "a0", f"basis n = {n}")
        object.__setattr__(self, "a0", as_hermitian(self.a0))

    @property
    def t(self) -> int:
        return self.basis.dim

    def evaluate(self, x) -> np.ndarray:
        """A(x); x must be a finite real vector of length t, and small enough
        that A(x) is finite (ValueError naming x otherwise)."""
        vec = np.asarray(x, dtype=float)
        _require_shape(vec, (self.t,), "x", f"basis t = {self.t}")
        _require_finite(vec, "x")
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.a0 + self.basis.combine(vec)
        if not np.isfinite(out).all():
            raise ValueError("x is too large: an entry of A(x) overflows")
        return symmetrize(out)


@dataclass(frozen=True)
class SubdifferentialView:
    """A subdifferential exposed as moment handles of extremal eigenspaces.

    For the bottom eigenvalue the handle is the moment of its eigenspace, the
    supergradients of the concave bottom eigenvalue; only the norm negates
    it.  ``support(w)`` is the one-sided directional derivative of the
    function: the greatest <w, .> over the view, the least for lambda_min.
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
    """Step budget of the best-approximation loop and the Frank-Wolfe
    settings of its optimality test.  ``fw.dist_tol`` is in moment space."""

    max_iter: int = 2000
    fw: FWConfig = field(default_factory=FWConfig)

    def __post_init__(self):
        _require_count(self.max_iter, "max_iter")
        if not isinstance(self.fw, FWConfig):
            raise ValueError(f"fw must be an FWConfig, got {self.fw!r}")


@dataclass(frozen=True)
class BestApproxResult:
    """``trace[k]`` is ||A(x_k)|| at step k = 0, ..., iterations, so the
    run took ``len(trace) - 1`` steps."""

    x_star: np.ndarray
    dist: float
    trace: np.ndarray  # (iterations + 1,) float
    converged: bool


def _side(fam: AffineFamily, dec: EigenDecomposition, top: bool) -> CompressedFamily:
    """``fam``'s basis compressed to the top (or bottom) eigenvalue cluster of dec."""
    frames = cluster_eigenvalues(dec)
    return compress_family(Subspace._trusted(frames[-1 if top else 0]), fam.basis)


def subdiff_lambda_max(fam: AffineFamily, x) -> SubdifferentialView:
    """Subdifferential of the top eigenvalue: the moment of its eigenspace."""
    side = _side(fam, _eig(fam.evaluate(x)), top=True)
    return SubdifferentialView(kind=KIND_LAMBDA_MAX, moment_max=side)


def subdiff_lambda_min(fam: AffineFamily, x) -> SubdifferentialView:
    """Bottom-eigenvalue counterpart: the moment of the bottom eigenspace,
    whose least <w, .> is ``support(w)``, the derivative along w."""
    side = _side(fam, _eig(fam.evaluate(x)), top=False)
    return SubdifferentialView(kind=KIND_LAMBDA_MIN, moment_min=side)


def directional_derivative(fam: AffineFamily, x, w) -> float:
    """One-sided derivative of the top eigenvalue along w: the support of its
    subdifferential, the top eigenvalue of sum_k w_k Q* B_k Q on the current
    top eigenspace Q."""
    return subdiff_lambda_max(fam, x).support(w)


def subdiff_norm(fam: AffineFamily, x) -> SubdifferentialView:
    """Subdifferential of ||A(x)||: the hull of both extreme sides when the
    norm is two-sided by ``spectral_split``'s rule, else the active side.
    Raises ZeroMatrix at A(x) = 0, where the norm is not differentiable."""
    dec = _eig(fam.evaluate(x))
    try:
        spaces = spectral_split(dec)
    except NormNotTwoSided:
        if dec.eigenvalues[-1] > -dec.eigenvalues[0]:
            return SubdifferentialView(kind=KIND_NORM_MAX, moment_max=_side(fam, dec, True))
        return SubdifferentialView(kind=KIND_NORM_MIN, moment_min=_side(fam, dec, False))
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


def _certified_optimal(fam: AffineFamily, dec: EigenDecomposition, a0_norm: float,
                       cfg: SolverConfig) -> bool:
    """0 in d||A(x)||, given the decomposition of A(x): its norm is at most
    default_cluster_tol(||A0||), or the check_minimal pipeline says minimal."""
    if dec.norm <= default_cluster_tol(a0_norm):
        return True
    return _verdict(dec, fam.basis, cfg.fw).verdict == MINIMAL


# Smoothing schedule of best_approximation: mu starts at _MU_START * ||A0||
# and halves each time a stage of _STAGE accelerated steps restarts from the
# best point, so c A0 follows the path of A0 scaled by c.
_MU_START = 0.05
_MU_SHRINK = 0.5
_STAGE = 150
# The secant step (Malitsky and Mishchenko): at least mu, at most _STEP_GROWTH
# times the step before, else _SECANT ||y_k - y_{k-1}|| / ||g_k - g_{k-1}||.
_STEP_GROWTH = 2.0
_SECANT = 0.5


def _smoothed_gradient(fam: AffineFamily, dec: EigenDecomposition, rel_mu: float,
                       a0_norm: float) -> np.ndarray:
    """Gradient in x of f_mu = mu log sum_i (e^{lam_i/mu} + e^{-lam_i/mu}),
    mu = rel_mu ||A0||, at the point dec decomposes: coords(Q diag(p) Q*), p
    the first half of softmax((lam, -lam)/mu) minus its second.  Exponents
    are shifted by ||A(x)|| and built from ratios of norms, so none overflows
    and an underflowed mu divides nothing."""
    lam = dec.eigenvalues
    e = np.exp((np.concatenate([lam, -lam]) / dec.norm - 1.0) * (dec.norm / a0_norm / rel_mu))
    p = (e[:lam.size] - e[lam.size:]) / e.sum()
    q = dec.vectors
    return fam.basis.coords((q * p) @ q.conj().T).real


def best_approximation(
    fam: AffineFamily,
    x0,
    cfg: SolverConfig = SolverConfig(),
) -> BestApproxResult:
    """Minimize ||A(x)|| by accelerated gradient on its smoothing f_mu.

    Iteration starts from the best of x0, the unperturbed point x = 0 and
    the Frobenius projection of A0 onto the span (x = -coordinates of A0),
    the earliest of equals.  FISTA steps restart at the best point with mu
    halved every _STAGE steps.  The first step of a stage has length mu (the
    gradient of f_mu is 1/mu-Lipschitz in an orthonormal basis, its worst
    case over all directions); each later one is the secant step
    ||y_k - y_{k-1}|| / (2 ||g_k - g_{k-1}||) of the last two points and
    their gradients, at least mu and at most twice the step before, and
    unchanged when the two gradients are equal.  Convergence is declared
    when the check_minimal pipeline certifies 0 in d||A(x)|| at an improved
    point (or its norm falls to default_cluster_tol(||A0||)), otherwise the
    cap is reported.
    """
    x = np.asarray(x0, dtype=float).copy()
    _require_shape(x, (fam.t,), "x0", f"basis t = {fam.t}")

    # a zero candidate reuses the unperturbed point's decomposition
    at_zero = _eig(fam.evaluate(np.zeros(fam.t)))
    candidates = (x, np.zeros(fam.t), -fam.basis.coords(fam.a0).real)
    evaluated = [_eig(fam.evaluate(cand)) if cand.any() else at_zero
                 for cand in candidates]
    a0_norm = at_zero.norm
    pick = int(np.argmin([dec.norm for dec in evaluated]))
    best_x, best_dec = candidates[pick], evaluated[pick]

    norms = [best_dec.norm]
    converged = _certified_optimal(fam, best_dec, a0_norm, cfg)
    rel_mu = _MU_START
    while not converged and len(norms) <= cfg.max_iter:
        y = x_prev = best_x
        dec, t = best_dec, 1.0
        mu = rel_mu * a0_norm
        step, y_old, g_old = 1.0, None, None  # the step in units of mu
        for _ in range(min(_STAGE, cfg.max_iter + 1 - len(norms))):
            g = _smoothed_gradient(fam, dec, rel_mu, a0_norm)
            if g_old is not None and (g != g_old).any():
                # the norm of (y_k - y_{k-1}) / mu: that of y_k - y_{k-1}
                # underflows or overflows at the ends of the float range
                secant = _SECANT * np.linalg.norm((y - y_old) / mu) / np.linalg.norm(g - g_old)
                step = max(1.0, min(_STEP_GROWTH * step, secant))
            y_old, g_old = y, g
            x = y - (step * mu) * g
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            x_prev, t = x, t_next
            dec = _eig(fam.evaluate(y))
            norms.append(dec.norm)
            if dec.norm < best_dec.norm:
                best_x, best_dec = y, dec
                if _certified_optimal(fam, dec, a0_norm, cfg):
                    converged = True
                    break
        rel_mu *= _MU_SHRINK
    return BestApproxResult(
        x_star=best_x, dist=best_dec.norm, trace=np.array(norms), converged=converged
    )
