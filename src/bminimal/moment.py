"""Moment sets of subspaces relative to a subalgebra basis.

The moment of a subspace S is the convex compact image of the density
matrices supported on S under the coordinate map of the basis.  The set is
never materialized; it is exposed through three computable views: sampled
extreme points, the exact support function (a top eigenvalue of the
compressed family), and the Euclidean distance between two moments, decided
by Frank-Wolfe over the product of density-matrix spectrahedra.  The
Frank-Wolfe oracle is LAPACK's Hermitian eigensolver on the small partial
gradients; callers that only need the verdict (``decide``) stop the solve as
soon as it is definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .algebra import SubalgebraBasis
from .errors import Undecided
from .hermitian import STRUCTURE_TOL, _bottom_eigpair, eig_hermitian, frobenius

# Why a Frank-Wolfe solve stopped (FWResult.stop_reason).
STOP_GAP_MET = "gap_met"      # the gap fell to cfg.gap_tol
STOP_DECIDED = "decided"      # until_decided, and decide() was definite
STOP_BUDGET = "budget"        # cfg.max_iter iterations ran
STOP_ZERO_STEP = "zero_step"  # the step direction vanished


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n held as an n x r frame with orthonormal columns."""

    frame: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.frame, dtype=complex)
        if q.ndim != 2 or q.shape[1] < 1 or q.shape[1] > q.shape[0]:
            raise ValueError(f"expected an n x r frame with 1 <= r <= n, got {q.shape}")
        if not np.all(np.isfinite(q.real)) or not np.all(np.isfinite(q.imag)):
            raise ValueError("frame entries must be finite")
        gram = q.conj().T @ q
        if frobenius(gram - np.eye(q.shape[1])) > STRUCTURE_TOL:
            raise ValueError("frame columns are not orthonormal")
        object.__setattr__(self, "frame", q.copy())

    @classmethod
    def _trusted(cls, frame: np.ndarray) -> "Subspace":
        """A Subspace over a complex frame the package built from columns of a
        unitary, which it owns: no checks and no copy."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "frame", frame)
        return obj

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def r(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_span(cls, vectors) -> "Subspace":
        """Orthonormalize spanning columns; rejects them as rank-deficient when
        an R diagonal entry is at most STRUCTURE_TOL times the largest entry."""
        v = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if v.shape[0] < v.shape[1]:
            raise ValueError("more columns than ambient dimension")
        q, r = np.linalg.qr(v)
        small = np.abs(np.diag(r)) <= STRUCTURE_TOL * float(np.max(np.abs(v)))
        if np.any(small):
            raise ValueError("spanning columns are linearly dependent")
        return cls(frame=q)


@dataclass(frozen=True)
class CompressedFamily:
    """The basis elements compressed to a subspace frame: mats[k] = Q* B_k Q."""

    subspace: Subspace
    mats: np.ndarray  # (t, r, r) Hermitian stack


def _require_finite(vec: np.ndarray, name: str) -> None:
    """Refuse a vector with a NaN or infinite entry, naming it and the entry."""
    bad = ~np.isfinite(vec)
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"{name} must be finite: entry {k} is {vec[k]}")


def _require_max_iter(max_iter) -> None:
    """Refuse an iteration budget that is not an integer >= 1; a bool or an
    integral float is not an integer here."""
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
        raise ValueError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class FWConfig:
    """Budget for the Frank-Wolfe feasibility solve."""

    gap_tol: float = 1e-9
    dist_tol: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        if not all(np.isfinite(t) and t > 0 for t in (self.gap_tol, self.dist_tol)):
            raise ValueError("tolerances must be positive and finite")
        _require_max_iter(self.max_iter)


@dataclass(frozen=True)
class FWResult:
    """Outcome of the moment-distance solve.

    ``distance`` is the Euclidean distance between the two witness images;
    it is within sqrt(2 * gap) of the true set distance.  The witnesses are
    density matrices in the coordinates of each subspace frame.
    ``stop_reason`` is one of the STOP_* values above.
    """

    distance: float
    witness_plus: np.ndarray
    witness_minus: np.ndarray
    gap: float
    iterations: int
    stop_reason: str


def compress_family(s: Subspace, basis: SubalgebraBasis) -> CompressedFamily:
    """Compress each basis element to the frame: mats[k] = Q* B_k Q."""
    if s.n != basis.n:
        raise ValueError(f"subspace ambient {s.n} does not match basis ambient {basis.n}")
    return CompressedFamily(subspace=s, mats=basis.compress_to(s.frame))


def moment_of_density(fam: CompressedFamily, r) -> np.ndarray:
    """Moment coordinates of the density matrix R given in frame coordinates."""
    rho = np.asarray(r, dtype=complex)
    dim = fam.subspace.r
    if rho.shape != (dim, dim):
        raise ValueError(f"expected an {dim} x {dim} density matrix, got {rho.shape}")
    return np.real(np.einsum("kij,ji->k", fam.mats, rho))


def sample_extreme(fam: CompressedFamily, count: int, seed: int) -> np.ndarray:
    """Moment coordinates of ``count`` seeded Haar-like unit vectors of S.

    Sample i uses its own generator seeded with seed + i, so the set of
    points is independent of evaluation order.  Returns a (count, t) array.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    dim = fam.subspace.r
    points = np.empty((count, fam.mats.shape[0]))
    if dim == 1:
        # the moment is a single point; phases wash out of the quadratic form
        points[:] = np.real(np.einsum("kij->k", fam.mats))
        return points
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u = u / np.linalg.norm(u)
        points[i] = np.real(np.einsum("i,kij,j->k", u.conj(), fam.mats, u))
    return points


def support_function(fam: CompressedFamily, w) -> float:
    """Support of the moment set: max over the set of <w, .>.

    Equals the top eigenvalue of sum_k w_k mats[k], so the value is exact up
    to eigensolver accuracy; no sampling is involved.  The direction w must
    be finite.
    """
    vec = np.asarray(w, dtype=float)
    if vec.shape != (fam.mats.shape[0],):
        raise ValueError(f"direction length {vec.shape} does not match t = {fam.mats.shape[0]}")
    _require_finite(vec, "direction w")
    combined = np.einsum("k,kij->ij", vec, fam.mats)
    if frobenius(combined) == 0.0:
        return 0.0
    return float(eig_hermitian(combined).eigenvalues[-1])


def jnr_support(fam: CompressedFamily, w) -> float:
    """Support of the joint numerical range of the compressed family.

    The range is the union of eps * (moment set) over eps in [0, 1], so its
    support is the positive part of the moment's support.
    """
    return max(0.0, support_function(fam, w))


def decide(distance: float, gap: float, cfg: FWConfig) -> bool | None:
    """The three-valued verdict on a moment-distance solve at ``distance``
    with Frank-Wolfe gap ``gap``.

    True (the moments intersect) needs distance <= dist_tol with the gap
    certificate met; False (disjoint) needs the gap-corrected lower bound
    distance - sqrt(2 * gap) to clear dist_tol; anything in between is
    None.
    """
    if distance <= cfg.dist_tol and gap <= cfg.gap_tol:
        return True
    if distance - np.sqrt(2.0 * max(gap, 0.0)) > cfg.dist_tol:
        return False
    return None


def moment_distance(
    s1: Subspace,
    s2: Subspace,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
    *,
    until_decided: bool = False,
) -> FWResult:
    """Euclidean distance between the moments of two subspaces.

    Minimizes 0.5 * ||phi1(R1) - phi2(R2)||^2 by Frank-Wolfe over the
    product of the two density-matrix sets: the linear minimization oracle
    on each factor is the bottom eigenpair of the partial gradient (a
    rank-one vertex vv*, whose moment is Re(v* M_k v)), and the step is an
    exact line search (the objective is quadratic in the step).  phi is
    linear, so the moments follow the witnesses by the same step.  Stops
    when the Frank-Wolfe gap falls below cfg.gap_tol or the iteration budget
    runs out; with ``until_decided``, also as soon as ``decide`` is
    definite.  The result is returned either way, carrying the final gap
    and the reason it stopped; its distance is recomputed from the
    witnesses.
    """
    if s1.n != s2.n:
        raise ValueError("subspaces live in different ambient dimensions")
    fam1 = compress_family(s1, basis)
    fam2 = compress_family(s2, basis)
    flat1 = fam1.mats.reshape(basis.dim, -1)
    flat2 = fam2.mats.reshape(basis.dim, -1)
    r1 = np.eye(s1.r, dtype=complex) / s1.r
    r2 = np.eye(s2.r, dtype=complex) / s2.r

    # d = phi1(R1) - phi2(R2), the difference of the running moments
    d = moment_of_density(fam1, r1) - moment_of_density(fam2, r2)
    gap = np.inf
    it = 0
    stop = STOP_BUDGET
    for it in range(cfg.max_iter + 1):
        lam1, v1 = _bottom_eigpair((d @ flat1).reshape(s1.r, s1.r))
        lam2, v2 = _bottom_eigpair((-d @ flat2).reshape(s2.r, s2.r))
        dd = float(d @ d)
        gap = dd - lam1 - lam2
        if gap <= cfg.gap_tol:
            stop = STOP_GAP_MET
            break
        if until_decided and decide(np.sqrt(dd), gap, cfg) is not None:
            stop = STOP_DECIDED
            break
        if it == cfg.max_iter:
            break
        vert1 = v1[:, None] * v1.conj()
        vert2 = v2[:, None] * v2.conj()
        # u = (a1 - phi1(R1)) - (a2 - phi2(R2)) with a = Re(v* M_k v), the
        # moment of the vertex vv*: Re(M_k . conj(vec(vv*)))
        u = (flat1 @ vert1.conj().ravel()).real - (flat2 @ vert2.conj().ravel()).real - d
        denom = float(u @ u)
        if denom <= 0.0:
            stop = STOP_ZERO_STEP
            break
        step = min(max(gap / denom, 0.0), 1.0)
        r1 += step * (vert1 - r1)
        r2 += step * (vert2 - r2)
        d += step * u
    r1 = (r1 + r1.conj().T) / 2
    r2 = (r2 + r2.conj().T) / 2
    d = moment_of_density(fam1, r1) - moment_of_density(fam2, r2)
    return FWResult(
        distance=float(np.linalg.norm(d)),
        witness_plus=r1,
        witness_minus=r2,
        gap=gap,
        iterations=it,
        stop_reason=stop,
    )


def intersects(
    s1: Subspace,
    s2: Subspace,
    basis: SubalgebraBasis,
    cfg: FWConfig = FWConfig(),
) -> bool:
    """Decide whether the moments of two subspaces intersect.

    The verdict is ``decide`` on a solve that stops once it is definite; an
    indefinite one raises Undecided rather than guessing.
    """
    res = moment_distance(s1, s2, basis, cfg, until_decided=True)
    answer = decide(res.distance, res.gap, cfg)
    if answer is None:
        raise Undecided(
            f"distance {res.distance:.3e} with gap {res.gap:.3e} cannot be separated "
            f"from tolerance {cfg.dist_tol:.1e}; the solve stopped at {res.stop_reason} "
            f"after {res.iterations} iterations",
            distance=res.distance,
            gap=res.gap,
        )
    return answer
