"""Moment sets of subspaces relative to a subalgebra basis.

The moment of a subspace S is the convex compact image of the density
matrices supported on S under the coordinate map of the basis.  The set is
never materialized; it is exposed through three computable views: sampled
extreme points, the exact support function (a top eigenvalue of the
compressed family), and the Euclidean distance between two moments, decided
by Frank-Wolfe over the product of density-matrix spectrahedra.  The
Frank-Wolfe oracle is LAPACK's Hermitian eigensolver on the small partial
gradients, and a face polish of the witnesses (Newton steps on the faces of
the two spectrahedra) settles the pairs whose nearest points Frank-Wolfe
alone approaches sublinearly; callers that only need the verdict
(``decide``) stop the solve as soon as it is definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SubalgebraBasis
from .errors import Undecided
from .hermitian import (
    STRUCTURE_TOL,
    _as_hermitian_stack,
    _bottom_eigpair,
    _eig,
    _require_count,
    _require_finite,
    _require_shape,
    _require_tol,
    frobenius,
    symmetrize,
)

# Why a Frank-Wolfe solve stopped (FWResult.stop_reason).
STOP_GAP_MET = "gap_met"      # the gap fell to cfg.gap_tol
STOP_DECIDED = "decided"      # until_decided, and decide() was definite
STOP_BUDGET = "budget"        # cfg.max_iter iterations ran
STOP_ZERO_STEP = "zero_step"  # the step direction vanished

# The face polish (_polish) runs on iterations 8, 16, 32, ... of every
# solve.  Its steps grow like the sixth power of the rank, and a face sheds
# at most one rank per step: one polish takes about 5 ms at rank 5 and
# about 1 s at rank 64 (pauli:8).
_POLISH_FIRST = 8
_POLISH_STEPS = 8   # Newton steps per polish, at most
# A squared Newton step this small ends a polish: the steps converge
# quadratically, so the point it reaches is off by about its square.
_POLISH_STEP_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n held as an n x r frame with orthonormal columns."""

    frame: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.frame, dtype=complex)
        if q.ndim != 2 or q.shape[1] < 1 or q.shape[1] > q.shape[0]:
            raise ValueError(f"expected an n x r frame with 1 <= r <= n, got {q.shape}")
        _require_finite(q, "frame")
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
        """Orthonormalize one or more finite spanning columns; rejects them as
        rank-deficient when an R diagonal entry is at most STRUCTURE_TOL times
        the largest entry."""
        v = np.atleast_2d(np.asarray(vectors, dtype=complex))
        _require_count(v.shape[1], "the number of spanning columns")
        _require_finite(v, "spanning columns")
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


@dataclass(frozen=True)
class FWConfig:
    """Budget for the Frank-Wolfe feasibility solve."""

    gap_tol: float = 1e-9
    dist_tol: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        _require_tol(self.gap_tol, "gap_tol")
        _require_tol(self.dist_tol, "dist_tol")
        _require_count(self.max_iter, "max_iter")


@dataclass(frozen=True, slots=True)  # no per-result __dict__: callers may keep many
class FWResult:
    """Outcome of the moment-distance solve.

    ``distance`` is the Euclidean distance between the two witness images;
    the true set distance lies between distance - gap / distance and
    distance.  The witnesses are density matrices in the coordinates of each
    subspace frame.
    ``stop_reason`` is one of the STOP_* values above.
    """

    distance: float
    witness_plus: np.ndarray
    witness_minus: np.ndarray
    gap: float
    iterations: int
    stop_reason: str


def compress_family(s: Subspace, basis: SubalgebraBasis) -> CompressedFamily:
    """Compress each basis element to an n-row frame: mats[k] = Q* B_k Q."""
    _require_shape(s.frame, (basis.n, s.r), "frame", f"basis n = {basis.n}")
    return CompressedFamily(subspace=s, mats=basis.compress_to(s.frame))


def moment_of_density(fam: CompressedFamily, r) -> np.ndarray:
    """Moment coordinates of the Hermitian part of a finite r x r density
    matrix R in frame coordinates; R is judged by ``as_hermitian``'s rule
    (the largest entry of R - R* against INPUT_TOL times R's largest)."""
    rho = np.asarray(r, dtype=complex)
    dim = fam.subspace.r
    _require_shape(rho, (dim, dim), "density matrix r", f"frame r = {dim}")
    _require_finite(rho, "density matrix r")
    return _moment(fam.mats, _as_hermitian_stack(rho[np.newaxis], "density matrix r")[0])


def _moment(mats: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re tr(M_k R) for a (t, r, r) stack and an r x r matrix the package built."""
    return np.real(np.einsum("kij,ji->k", mats, rho))


def sample_extreme(fam: CompressedFamily, count: int, seed: int) -> np.ndarray:
    """Moment coordinates of ``count`` seeded Haar-like unit vectors of S.

    Sample i uses its own generator seeded with seed + i, so the set of
    points is independent of evaluation order.  Returns a (count, t) array.
    ``count`` must be an integer >= 1 and ``seed`` an integer >= 0.
    """
    _require_count(count, "count")
    _require_count(seed, "seed", least=0)
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
    be finite, and small enough that the combination is finite.
    """
    vec = np.asarray(w, dtype=float)
    _require_shape(vec, (fam.mats.shape[0],), "direction w", f"basis t = {fam.mats.shape[0]}")
    _require_finite(vec, "direction w")
    with np.errstate(over="ignore", invalid="ignore"):
        combined = np.einsum("k,kij->ij", vec, fam.mats)
    if not np.isfinite(combined).all():
        raise ValueError("direction w is too large: an entry of sum_k w_k M_k overflows")
    return float(_eig(symmetrize(combined)).eigenvalues[-1])


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
    certificate met; False (disjoint) needs the separating-hyperplane bound
    distance - gap / distance to clear dist_tol; anything in between is
    None.  The bound holds because the gap certifies <d, a> >= ||d||^2 - gap
    for every point a of the difference set, d the current difference.
    """
    if distance <= cfg.dist_tol and gap <= cfg.gap_tol:
        return True
    if distance * distance - max(gap, 0.0) > cfg.dist_tol * distance:
        return False
    return None


def _face(mats: np.ndarray, rho: np.ndarray):
    """The face of a density matrix: its eigenbasis B by decreasing
    eigenvalue, the eigenvalues above STRUCTURE_TOL times the largest,
    renormalized to unit trace (the rest are clipped), the family in that
    basis (B* M_k B, one stacked product on the (t, r, r) stack) and the
    moment of the faced matrix."""
    w, u = np.linalg.eigh(rho)
    w, b = w[::-1], u[:, ::-1]
    s0 = w[: np.count_nonzero(w > STRUCTURE_TOL * w[0])]
    s0 = s0 / np.sum(s0)
    mt = b.conj().T @ mats @ b
    return b, s0, mt, mt.diagonal(axis1=1, axis2=2)[:, : s0.size].real @ s0


def _polish(mats1: np.ndarray, mats2: np.ndarray, r1, r2, dd: float):
    """Witnesses no worse than (R1, R2), whose objective is dd = ||d||^2, or
    None: Newton steps on the faces of the witnesses.

    Near a face U (r x p, the kept eigenvectors, with U_perp the rest and S0
    their eigenvalues) the densities of rank p are G (S0 + D) G* / tr with
    G = U + U_perp Z, for traceless Hermitian D and (r-p) x p complex Z.  The
    moments are affine in D, so on full-rank faces (no Z) one step solves
    the least-squares problem for unit-trace Hermitian witnesses; Z rotates
    a rank-deficient face.  A step minimizes the Gauss-Newton model of
    ||phi1 - phi2||^2 / 2 plus the curvature of the Z chart, weighted by the
    Frank-Wolfe oracle matrix, so pairs that lie apart converge as fast as
    pairs that meet.  It is cut where S0 + D would leave the PSD cone; the
    face that meets the cone loses that eigenvalue when the result is faced
    again, so the faces shrink from the witnesses' full rank to the rank of
    the nearest points.  The steps stop when one does not lower the
    objective or is below _POLISH_STEP_TOL; the best faced witnesses are
    returned if their objective is at most dd.
    """
    faces = [_face(mats1, r1), _face(mats2, r2)]
    best, best_dd, last = None, np.inf, False
    for step in range(_POLISH_STEPS + 1):
        f = faces[0][3] - faces[1][3]
        ff = float(f @ f)
        if ff >= best_dd:
            break
        best, best_dd = faces, ff
        if last or step == _POLISH_STEPS:
            break
        # complex coordinates, side after side: the p x p entries of D, then
        # Z.  Each row of the least-squares system is Re(row . coordinates):
        # the moments' Jacobian, then the curvature of each Z chart as rows
        # whose squares sum to it (its negative part is dropped)
        m = sum(b.shape[0] * s0.size for b, s0, _, _ in faces)
        cols, curv, at = [], [], 0
        for sign, (b, s0, mt, _) in zip((1.0, -1.0), faces):
            t, r, p = mt.shape[0], b.shape[0], s0.size
            a = mt[:, :p, :p].reshape(t, p * p).copy()
            a[:, :: p + 1] -= (a[:, :: p + 1].real.sum(axis=1) / p)[:, None]
            cols += [sign * a, (2.0 * sign) * (mt[:, p:, :p] * s0).reshape(t, -1)]
            lo, at = at + p * p, at + r * p
            if p < r:
                # the side's oracle matrix in its eigenbasis: its U_perp
                # block, less its mean on the face, weighs the curvature of Z
                c = ((sign * f) @ mt.reshape(t, r * r)).reshape(r, r)
                lam, v = np.linalg.eigh(c[p:, p:] - (c.diagonal()[:p].real @ s0) * np.eye(r - p))
                root = np.sqrt(2.0 * np.maximum(lam, 0.0))[:, None] * v.conj().T
                k = at - lo
                block = np.zeros((k, m), dtype=complex)
                block[:, lo:at] = (root[:, None, :, None] * np.diag(np.sqrt(s0))[:, None, :]).reshape(k, k)
                curv += [block, -1j * block]
        rows = np.concatenate([np.concatenate(cols, axis=1).conj(), *curv])
        rhs = np.zeros(rows.shape[0])
        rhs[: f.size] = -f
        theta = np.linalg.lstsq(np.concatenate([rows.real, -rows.imag], axis=1), rhs, rcond=None)[0]
        last = float(theta @ theta) <= _POLISH_STEP_TOL
        delta = theta[:m] + 1j * theta[m:]
        # cut the step where the first S0 + D meets the PSD cone
        moves, at, cut = [], 0, 1.0
        for b, s0, _, _ in faces:
            r, p = b.shape[0], s0.size
            dm = symmetrize(delta[at:at + p * p].reshape(p, p))
            moves.append((dm, b[:, p:] @ delta[at + p * p:at + r * p].reshape(r - p, p)))
            at += r * p
            if p > 1:
                low = np.linalg.eigvalsh(dm / np.sqrt(np.outer(s0, s0)))[0]
                cut = min(cut, -1.0 / low) if low < -1.0 else cut
        moved = []
        for mats, (b, s0, _, _), (dm, turn) in zip((mats1, mats2), faces, moves):
            g = b[:, : s0.size] + cut * turn
            rho = g @ (np.diag(s0) + cut * dm) @ g.conj().T
            moved.append(_face(mats, rho))
        faces = moved
    if best_dd > dd:
        return None
    return [(b[:, : s0.size] * s0) @ b[:, : s0.size].conj().T for b, s0, _, _ in best]


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
    linear, so the moments follow the witnesses by the same step.  On
    iterations 8, 16, 32, ... a face polish (``_polish``) may replace the
    witnesses by better ones of the same kind, at every frame rank, where
    the moments are then recomputed.  Stops when the Frank-Wolfe gap falls
    below cfg.gap_tol or the iteration budget runs out; with
    ``until_decided``, also as soon as ``decide`` is definite.  The result
    is returned either way, carrying the final gap and the reason it
    stopped; its distance is recomputed from the witnesses.
    """
    fam1 = compress_family(s1, basis)
    fam2 = compress_family(s2, basis)
    flat1 = fam1.mats.reshape(basis.dim, -1)
    flat2 = fam2.mats.reshape(basis.dim, -1)
    r1 = np.eye(s1.r, dtype=complex) / s1.r
    r2 = np.eye(s2.r, dtype=complex) / s2.r

    # d = phi1(R1) - phi2(R2), the difference of the running moments
    d = _moment(fam1.mats, r1) - _moment(fam2.mats, r2)
    gap = np.inf
    it = 0
    stop = STOP_BUDGET
    for it in range(cfg.max_iter + 1):
        if it >= _POLISH_FIRST and it & (it - 1) == 0:
            polished = _polish(fam1.mats, fam2.mats, r1, r2, float(d @ d))
            if polished is not None:
                r1, r2 = polished
                d = (flat1 @ r1.conj().ravel()).real - (flat2 @ r2.conj().ravel()).real
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
    r1 = symmetrize(r1)
    r2 = symmetrize(r2)
    d = _moment(fam1.mats, r1) - _moment(fam2.mats, r2)
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
