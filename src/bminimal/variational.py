"""The affine family A(x) = A0 + sum_k x_k B_k and its nonsmooth calculus.

The top eigenvalue of A(x) is convex in x and its subdifferential equals
the moment of the top eigenspace; the bottom eigenvalue mirrors it with a
sign.  Minimality of A(x) is the condition 0 in d(lambda_max) +
d(lambda_min); since each subdifferential is the moment of its extremal
eigenspace, that condition is exactly the certification test, and
``is_minimal_variational`` is ``check_minimal`` on A(x).  The best
approximation dist(A0, B) = min_x ||A(x)|| is the semidefinite program
min tau s.t. -tau I <= A(x) <= tau I, which log-barrier Newton steps solve
from one decomposition per point, with dual points that bound it below.
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
from .minimality import MinimalityReport, check_minimal, spectral_split
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
    """Step budget of the best-approximation loop, and in ``fw.dist_tol`` the
    width, relative to ||A0||, at which its interval [lower, dist] counts as
    converged; the other Frank-Wolfe settings are not read."""

    max_iter: int = 2000
    fw: FWConfig = field(default_factory=FWConfig)

    def __post_init__(self):
        _require_count(self.max_iter, "max_iter")
        if not isinstance(self.fw, FWConfig):
            raise ValueError(f"fw must be an FWConfig, got {self.fw!r}")


@dataclass(frozen=True, slots=True)  # no per-result __dict__: callers may keep many
class BestApproxResult:
    """``trace[k]`` is ||A(x_k)|| at step k = 0, ..., iterations, so the
    run took ``len(trace) - 1`` steps.  dist(A0, B) lies in [lower, dist]:
    lower is 0 without a ``dual``, else at most L(X') = tr(A0 X') / ||X'||_1
    for the dual point X' = ``dual``, trace-orthogonal to B up to rounding
    (any X' projected off B bounds the distance so)."""

    x_star: np.ndarray
    dist: float
    trace: np.ndarray  # (iterations + 1,) float
    converged: bool
    lower: float = 0.0
    dual: np.ndarray | None = None  # (n, n) complex, Hermitian up to rounding


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


# The barrier path of best_approximation, in units of ||A0||: it starts at
# tau = ||A(x)|| + _TAU_MARGIN with eta = 2n / tau and damps a step by 1 / (1 +
# decrement) while that is _FULL_STEP or more.  Below _RECENTER, eta rises to
# 2n / (_SIGMA (tau - lower)): the central gap 2n / eta is _SIGMA times the certified one.
# A step that rounding takes out of the domain is halved, at most _HALVINGS times.
_TAU_MARGIN = 0.5
_SIGMA = 0.03
_RECENTER = 1.0
_FULL_STEP = 0.25
_HALVINGS = 4


def _newton(fam: AffineFamily, dec: EigenDecomposition, tau: float, etas: np.ndarray, scale: float):
    """At a point (x, tau) of eta tau - sum log(tau -+ lam), tau > ||A(x)||, with
    A(x) = Q diag(lam) Q* by dec, all in units of scale = ||A0||: the lower bound
    on dist(A0, B) of the Newton step d at etas[0], its dual point X', the damped step
    with its eta (etas[1] near the centre), or None if the Hessian's SVD fails.
    With P+- = (tau I -+ A(x))^-1 = Q diag(d+-) Q*, row l of the Hessian in x is
    coords(P+ B_l P+ + P- B_l P-), its tau column coords(P-^2 - P+^2) and sum d+^2 +
    d-^2, and the gradient coords(P+ - P-) and -sum d+ + d-.  The dual point
    X = P+ C P+ + P- C P- + P+ - P- + dtau (P-^2 - P+^2) with C = combine(dx),
    P+ - P- moved along d, has zero coordinates; X' = X - combine(coords(X)) (for
    rounding) gives the bound L(X') = tr(A0 X') / ||X'||_1."""
    lam, q, basis = dec.eigenvalues / scale, dec.vectors, fam.basis
    dp, dm = 1.0 / (tau - lam), 1.0 / (tau + lam)
    p_plus, p_minus, sq_diff = ((q * d) @ q.conj().T for d in (dp, dm, dm * dm - dp * dp))
    def sandwich(b):  # P+ B P+ + P- B P-
        return p_plus @ b @ p_plus + p_minus @ b @ p_minus
    hess = np.empty((fam.t + 1, fam.t + 1))
    for row, unit in zip(hess, np.eye(fam.t)):
        row[:-1] = basis.coords(sandwich(basis.combine(unit))).real
    hess[-1] = hess[:, -1] = np.append(basis.coords(sq_diff).real, np.sum(dp * dp + dm * dm))
    grad = np.append(basis.coords(p_plus - p_minus).real, -np.sum(dp + dm))
    try:  # by SVD: near an optimum the Hessian can be singular to rounding
        solved = np.linalg.lstsq(hess, -np.column_stack([grad, np.eye(fam.t + 1)[-1]]), rcond=0)[0]
    except np.linalg.LinAlgError:
        return None
    steps = solved[:, :1] + etas * solved[:, 1:]  # the steps at either eta
    decrements = np.sqrt(np.maximum(-(grad @ steps + etas * steps[-1]), 0.0))
    x_dual = sandwich(basis.combine(steps[:-1, 0])) + p_plus - p_minus + steps[-1, 0] * sq_diff
    x_perp = x_dual - basis.combine(basis.coords(x_dual).real)
    trace_norm = np.abs(np.linalg.eigvalsh(x_perp)).sum()
    lower = np.vdot(x_perp, fam.a0 / scale).real / trace_norm if trace_norm > 0.0 else 0.0
    grow = int(decrements[0] < _RECENTER)
    damping = 1.0 + decrements[grow] if decrements[grow] >= _FULL_STEP else 1.0
    return float(lower), x_perp, steps[:, grow] / damping, etas[grow]


def best_approximation(
    fam: AffineFamily,
    x0,
    cfg: SolverConfig = SolverConfig(),
) -> BestApproxResult:
    """Minimize ||A(x)||, the semidefinite program min tau s.t. -tau I <=
    A(x) <= tau I, by log-barrier Newton steps (``_newton``) from the
    decomposition each point already gets, their dual points bounding it
    below.  Iteration starts from the best of x0, the unperturbed point
    x = 0 and the Frobenius projection of A0 onto the span (x = -coordinates
    of A0), the earliest of equals.  A step is halved until the new point
    keeps tau > ||A(x)||, one decomposition a try.  Convergence is declared
    when [lower, dist] is at most fw.dist_tol ||A0|| wide or ||A(x)|| is at
    most default_cluster_tol(||A0||); else the cap is reported, or an earlier
    stop where a step still leaves the domain after _HALVINGS halvings (or
    the Hessian's SVD fails); a singular Hessian does not stop the path."""
    x = np.asarray(x0, dtype=float).copy()
    _require_shape(x, (fam.t,), "x0", f"basis t = {fam.t}")

    # a zero candidate reuses the unperturbed point's decomposition
    at_zero = _eig(fam.evaluate(np.zeros(fam.t)))
    candidates = (x, np.zeros(fam.t), -fam.basis.coords(fam.a0).real)
    evaluated = [_eig(fam.evaluate(cand)) if cand.any() else at_zero
                 for cand in candidates]
    scale = at_zero.norm or 1.0  # any unit serves A0 = 0, which the zero rule settles
    pick = int(np.argmin([dec.norm for dec in evaluated]))
    best_x, best_dec = candidates[pick], evaluated[pick]

    norms, lower, dual = [best_dec.norm], 0.0, None  # lower in units of ||A0||
    x, dec, tau = best_x, best_dec, best_dec.norm / scale + _TAU_MARGIN
    eta = 2 * fam.basis.n / tau
    while True:
        zero = best_dec.norm <= default_cluster_tol(scale)  # no bound needed, nor sound
        gap = tau - lower  # rounding can close it; eta then stays
        etas = np.array([eta, max(eta, 2 * fam.basis.n / (_SIGMA * gap)) if gap > 0.0 else eta])
        at = None if zero else _newton(fam, dec, tau, etas, scale)
        if at is not None and at[0] > lower:
            lower, dual = at[:2]
        converged = zero or best_dec.norm / scale - lower <= cfg.fw.dist_tol
        if converged or at is None or len(norms) > cfg.max_iter:
            break
        step, eta = at[2:]
        for shrink in 0.5 ** np.arange(_HALVINGS + 1):  # one _eig a try
            x_try, tau_try = x + shrink * scale * step[:-1], tau + shrink * step[-1]
            dec = _eig(fam.evaluate(x_try))
            if tau_try > dec.norm / scale:
                break
        else:
            break  # still outside: rounding has ended the path
        x, tau = x_try, tau_try
        norms.append(dec.norm)
        if dec.norm < best_dec.norm:
            best_x, best_dec = x, dec
    lower = min(lower * scale, best_dec.norm)  # the two agree to rounding at an optimum
    return BestApproxResult(x_star=best_x, dist=best_dec.norm, trace=np.array(norms),
                            converged=converged, lower=lower, dual=dual)
