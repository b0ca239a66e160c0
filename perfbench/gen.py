"""Seeded benchmark inputs whose right answers are known by construction.

Everything here is plain numpy: no function of the package is called, so the
ground truth cannot share a defect with the code under test.  Each generator
confirms its claim with ``np.linalg.eigvalsh`` (or an explicit separating
direction) before handing the instance out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MINIMAL = "minimal"
NOT_MINIMAL = "not_minimal"

_SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


@dataclass(frozen=True)
class Algebra:
    """A subalgebra as the harness sees it.

    ``spec`` is the CLI ``--algebra`` value.  Every algebra used here is the
    set of matrices supported on ``mask``, so X is trace-orthogonal to it
    exactly when X vanishes on the mask, and ||X * mask||_F equals the norm
    of X's coordinates in any orthonormal basis of the algebra.
    """

    spec: str
    n: int
    mask: np.ndarray

    def perp_residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(x[self.mask]))

    def stack(self) -> np.ndarray:
        """Orthonormal basis in the element order the package documents.

        Only the diagonal and block algebras need it: their best-approximation
        coordinates are recombined into A0 + sum x_k B_k.
        """
        n = self.n
        elems = [_unit(n, i, i, 1.0) for i in range(n)]
        if self.spec.startswith("block:"):
            s = 1.0 / np.sqrt(2.0)
            offset = 0
            for size, kind in _block_pattern(self.spec):
                if kind == "f":
                    for i in range(offset, offset + size):
                        for j in range(i + 1, offset + size):
                            elems.append(_unit(n, i, j, s) + _unit(n, j, i, s))
                            elems.append(_unit(n, i, j, -1j * s) + _unit(n, j, i, 1j * s))
                offset += size
        elif not self.spec.startswith("diag"):
            raise ValueError(f"no recombination stack for {self.spec!r}")
        return np.stack(elems)


def _unit(n: int, i: int, j: int, value: complex) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = value
    return e


def _block_pattern(spec: str) -> list[tuple[int, str]]:
    return [(int(item[:-1]), item[-1]) for item in spec.split(":", 1)[1].split(",")]


def algebra(spec: str, n: int | None = None) -> Algebra:
    """Harness view of ``diag`` (needs n), ``pauli:q`` and ``block:SPEC``."""
    if spec == "diag":
        return Algebra(spec, n, np.eye(n, dtype=bool))
    if spec.startswith("pauli:"):
        # diagonal Pauli strings on q qubits span the whole diagonal algebra
        size = 2 ** int(spec.split(":", 1)[1])
        return Algebra(spec, size, np.eye(size, dtype=bool))
    if spec.startswith("block:"):
        pattern = _block_pattern(spec)
        size = sum(s for s, _ in pattern)
        mask = np.eye(size, dtype=bool)
        offset = 0
        for s, kind in pattern:
            if kind == "f":
                mask[offset:offset + s, offset:offset + s] = True
            offset += s
        return Algebra(spec, size, mask)
    raise ValueError(f"unknown algebra spec {spec!r}")


def spectral_norm(a: np.ndarray) -> float:
    w = np.linalg.eigvalsh(a)
    return float(max(abs(w[0]), abs(w[-1])))


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def one_sided(rng: np.random.Generator, n: int) -> np.ndarray:
    """Norm-one Hermitian that is not minimal for any unital algebra: a random
    spectrum re-centred, then shifted by m times its half-width (m drawn from
    +-[0.25, 0.5]), so |lmax + lmin| >= 0.4 ||A|| and only one of +-||A|| is
    an eigenvalue.  (Large random matrices have nearly symmetric spectra, so
    rejection sampling for a margin would almost never succeed.)"""
    a = rand_hermitian(rng, n)
    w = np.linalg.eigvalsh(a)
    half = (w[-1] - w[0]) / 2
    shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.5) * half - (w[-1] + w[0]) / 2
    a = a + shift * np.eye(n)
    a = a / spectral_norm(a)
    _confirm_two_sided(a, False)
    return a


def _one_sided_3x3(seed: int, margin: float = 0.2) -> np.ndarray:
    """The grid suite's rejection sampler: |lmax + lmin| >= margin ||A||."""
    rng = np.random.default_rng(seed)
    while True:
        a = rand_hermitian(rng, 3)
        w = np.linalg.eigvalsh(a)
        norm = max(abs(w[0]), abs(w[-1]))
        if abs(w[0] + w[-1]) >= margin * norm:
            return a / norm


def twin_minimal_3x3(seed: int) -> np.ndarray:
    """Diagonal-algebra-minimal 3x3: u u* - w w* + s z z* with w a rephased,
    orthogonal twin of u (equal coordinate masses, so the moments of the two
    extremal eigenspaces share a point)."""
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = g / np.linalg.norm(g)
        m = np.abs(u) ** 2
        if np.max(m) <= 0.5 - 1e-3:
            break
    cos2 = (m[2] ** 2 - m[0] ** 2 - m[1] ** 2) / (2 * m[0] * m[1])
    theta2 = np.arccos(np.clip(cos2, -1.0, 1.0))
    theta3 = np.angle(-(m[0] + m[1] * np.exp(1j * theta2)))
    w = u * np.exp(1j * np.array([0.0, theta2, theta3]))
    q, _ = np.linalg.qr(np.column_stack([u, w, rng.standard_normal(3) + 1j * rng.standard_normal(3)]))
    z = q[:, 2]
    s = rng.uniform(-0.8, 0.8)
    mat = np.outer(u, u.conj()) - np.outer(w, w.conj()) + s * np.outer(z, z.conj())
    return (mat + mat.conj().T) / 2


def grid_suite() -> list[tuple[np.ndarray, str]]:
    """The 25 fixed 3x3 instances of the repository's grid-agreement suite
    (15 one-sided, 10 minimal), regenerated from the same seeds."""
    cases = [(_one_sided_3x3(1000 + i), NOT_MINIMAL) for i in range(15)]
    cases += [(twin_minimal_3x3(2000 + i), MINIMAL) for i in range(10)]
    for a, truth in cases:
        _confirm_two_sided(a, truth == MINIMAL)
    return cases


def _confirm_two_sided(a: np.ndarray, two_sided: bool) -> None:
    w = np.linalg.eigvalsh(a)
    deficit = abs(w[0] + w[-1]) / max(abs(w[0]), abs(w[-1]))
    if (deficit <= 1e-10) != two_sided:
        raise RuntimeError(f"instance spectrum contradicts its construction (deficit {deficit:.2e})")


def swap(n: int) -> np.ndarray:
    """Block swap [[0, I], [I, 0]]: eigenspaces (e_i +- e_{i+n/2})/sqrt(2),
    whose moments under the diagonal algebra are both the uniform point."""
    h = n // 2
    a = np.zeros((n, n), dtype=complex)
    a[:h, h:] = np.eye(h)
    a[h:, :h] = np.eye(h)
    _confirm_two_sided(a, True)
    return a


def _twin(u: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
    """w with |w_i| = |u_i| and <u, w> = 0, or None if the random phases of
    the small entries leave no closing triangle for the two largest."""
    order = np.argsort(-np.abs(u))
    m = np.abs(u[order]) ** 2
    theta = rng.uniform(0.0, 2.0 * np.pi, u.size)
    tail = np.sum(m[2:] * np.exp(1j * theta[2:]))
    a, b, c = m[0], m[1], abs(tail)
    if not (abs(a - b) <= c <= a + b):
        return None
    spread = np.arccos(np.clip((c * c - a * a - b * b) / (2 * a * b), -1.0, 1.0))
    head = a + b * np.exp(1j * spread)
    turn = np.angle(-tail / head)
    theta[0], theta[1] = turn, turn + spread
    w = np.empty_like(u)
    w[order] = u[order] * np.exp(1j * theta)
    return w


def intersecting_pair(rng: np.random.Generator, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal rank-2 frames V, W whose diagonal moments intersect:
    V contains u and W its twin w, so diag(uu*) = diag(ww*) is shared."""
    while True:
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = g / np.linalg.norm(g)
        if np.max(np.abs(u) ** 2) >= 0.45:
            continue
        w = _twin(u, rng)
        if w is not None:
            break
    extra = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = np.linalg.qr(np.column_stack([u, w, extra]))
    v_frame, w_frame = q[:, [0, 2]], q[:, [1, 3]]
    if np.max(np.abs(np.abs(q[:, 0]) - np.abs(q[:, 1]))) > 1e-12:
        raise RuntimeError("twin construction lost equal coordinate masses")
    return v_frame, w_frame


def random_pair(rng: np.random.Generator, n: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal rank-2 frames from one Haar-like draw.  Two 3-dimensional
    moment sets in the 7-dimensional trace-one slice of the diagonal algebra
    miss each other with probability one; ``pair_distance`` confirms it."""
    g = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    q, _ = np.linalg.qr(g)
    return q[:, :2], q[:, 2:]


def support_minimal(v_frame: np.ndarray, w_frame: np.ndarray) -> np.ndarray:
    """P_V - P_W + P_rest / 2 for an intersecting pair: minimal by the
    support-pair construction (eigenvalues +-1 on V and W, 1/2 elsewhere)."""
    n = v_frame.shape[0]
    pv = v_frame @ v_frame.conj().T
    pw = w_frame @ w_frame.conj().T
    a = pv - pw + 0.5 * (np.eye(n) - pv - pw)
    a = (a + a.conj().T) / 2
    w = np.linalg.eigvalsh(a)
    r = v_frame.shape[1]
    if not (np.allclose(w[:r], -1.0, atol=1e-12) and np.allclose(w[-r:], 1.0, atol=1e-12)):
        raise RuntimeError("support-pair matrix lost its extremal multiplicities")
    return a


def diag_moment_affine(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """diag(Q R Q*) = c + A r for the 2x2 density R with Bloch vector r."""
    c = np.sum(np.abs(frame) ** 2, axis=1) / 2
    a = np.real(np.einsum("ia,jab,ib->ij", frame, _SIGMA, frame.conj())) / 2
    return c, a


@dataclass(frozen=True)
class PairDistance:
    """Distance between the diagonal moments of two rank-2 frames."""

    upper: float        # attained by the Bloch vectors below
    lower: float        # from the separating direction, checked by eigvalsh
    interior: bool      # a nearest point lies strictly inside its Bloch ball


def pair_distance(v_frame: np.ndarray, w_frame: np.ndarray, iters: int = 3000) -> PairDistance:
    """Solve min ||(c1 + A1 r1) - (c2 + A2 r2)|| over two unit balls by
    accelerated projected gradient, then certify a lower bound with the
    separating direction d: min <d, M(V)> - max <d, M(W)> over ||d||.

    ``interior`` marks the pairs whose nearest point is a mixed state.  There
    the Frank-Wolfe linear oracle keeps returning pure states and zig-zags,
    so these are the pairs that run to the iteration cap.
    """
    c1, a1 = diag_moment_affine(v_frame)
    c2, a2 = diag_moment_affine(w_frame)
    mat = np.hstack([a1, -a2])
    off = c1 - c2
    step = 1.0 / np.linalg.norm(mat, 2) ** 2
    z = np.zeros(6)
    y = z.copy()
    t = 1.0
    for _ in range(iters):
        cand = y - step * (mat.T @ (off + mat @ y))
        for part in (cand[:3], cand[3:]):
            size = np.linalg.norm(part)
            if size > 1.0:
                part /= size
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = cand + ((t - 1.0) / t_next) * (cand - z)
        z, t = cand, t_next
    d = off + mat @ z
    upper = float(np.linalg.norm(d))
    low_v = np.linalg.eigvalsh(v_frame.conj().T @ (d[:, None] * v_frame))[0]
    high_w = np.linalg.eigvalsh(w_frame.conj().T @ (d[:, None] * w_frame))[-1]
    return PairDistance(
        upper=upper,
        lower=float((low_v - high_w) / upper) if upper > 0 else 0.0,
        interior=bool(min(np.linalg.norm(z[:3]), np.linalg.norm(z[3:])) < 1.0 - 1e-4),
    )


def _smoothed_norm(a: np.ndarray, mu: float) -> np.ndarray:
    """Gradient (as a matrix) of mu * log tr(exp(A/mu) + exp(-A/mu))."""
    w, v = np.linalg.eigh(a)
    s = np.concatenate([w, -w]) / mu
    e = np.exp(s - s.max())
    coef = (e[: w.size] - e[w.size:]) / e.sum()
    return (v * coef) @ v.conj().T


def best_approx_reference(a0: np.ndarray, stack: np.ndarray, stages: int = 8, iters: int = 150) -> float:
    """min_x ||A0 + sum x_k B_k|| by Nesterov smoothing of the extreme
    eigenvalues with accelerated gradient, the smoothing parameter shrinking
    by 0.3 per stage.  Returns the best spectral norm seen (by eigvalsh), an
    upper bound on the true distance that sits within ~1e-6 of it on the
    benchmark's sizes."""
    scale = spectral_norm(a0)
    best, best_x = scale, np.zeros(stack.shape[0])
    mu = 0.1 * scale
    for _ in range(stages):
        x_prev = best_x.copy()
        y = best_x.copy()
        t = 1.0
        for _ in range(iters):
            grad = _smoothed_norm(a0 + np.einsum("k,kij->ij", y, stack), mu)
            x = y - mu * np.real(np.einsum("kij,ji->k", stack, grad))
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            x_prev, t = x, t_next
            value = spectral_norm(a0 + np.einsum("k,kij->ij", x, stack))
            if value < best:
                best, best_x = value, x
        mu *= 0.3
    return best
