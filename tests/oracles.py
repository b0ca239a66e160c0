"""Independent oracles used by the tests.

Nothing here calls the package's own eigensolver or Frank-Wolfe loop: the
3x3 spectral norms come from the closed-form (trigonometric) solution of
the characteristic cubic, generic eigenvalues from numpy's LAPACK wrapper,
and moment-set minima from dense parameter grids.  Nothing here imports
the package: the witness checks below take plain arrays.
"""

from __future__ import annotations

import numpy as np


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def norm3_hermitian_vec(alpha, beta, gamma, p, q, r) -> np.ndarray:
    """Spectral norms of 3x3 Hermitian matrices with broadcast real diagonals
    (alpha, beta, gamma) and fixed complex off-diagonals p = M01, q = M02,
    r = M12, via the trigonometric solution of the characteristic cubic."""
    p1 = abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2
    mean = (alpha + beta + gamma) / 3.0
    a0 = alpha - mean
    b0 = beta - mean
    c0 = gamma - mean
    p2 = a0**2 + b0**2 + c0**2 + 2.0 * p1
    piv = np.sqrt(p2 / 6.0)
    cross = 2.0 * np.real(p * r * np.conj(q))
    det = (
        a0 * b0 * c0
        - a0 * abs(r) ** 2
        - b0 * abs(q) ** 2
        - c0 * abs(p) ** 2
        + cross
    )
    safe = np.where(piv > 0.0, piv, 1.0)
    rr = np.clip(det / (2.0 * safe**3), -1.0, 1.0)
    phi = np.arccos(rr) / 3.0
    lmax = mean + 2.0 * piv * np.cos(phi)
    lmin = mean + 2.0 * piv * np.cos(phi + 2.0 * np.pi / 3.0)
    return np.maximum(np.abs(lmax), np.abs(lmin))


def grid_min_diag_norm(a: np.ndarray, step: float = 0.02) -> float:
    """min over the grid d in [-||A||, ||A||]^3 (given step) of ||A + diag(d)||
    for Hermitian 3x3 A.  The norm bound uses LAPACK, the sweep the cubic."""
    w = np.linalg.eigvalsh(a)
    bound = float(max(abs(w[0]), abs(w[-1])))
    axis = np.arange(-bound, bound + step / 2.0, step)
    d1 = axis[:, None, None]
    d2 = axis[None, :, None]
    d3 = axis[None, None, :]
    norms = norm3_hermitian_vec(
        np.real(a[0, 0]) + d1,
        np.real(a[1, 1]) + d2,
        np.real(a[2, 2]) + d3,
        complex(a[0, 1]),
        complex(a[0, 2]),
        complex(a[1, 2]),
    )
    return float(norms.min())


def bloch_density(x: np.ndarray) -> np.ndarray:
    """2x2 density matrix with Bloch vector x (||x|| <= 1)."""
    return 0.5 * np.array(
        [
            [1.0 + x[2], x[0] - 1j * x[1]],
            [x[0] + 1j * x[1], 1.0 - x[2]],
        ],
        dtype=complex,
    )


def bloch_grid(n_points: int, shells=(0.25, 0.5, 0.75, 0.9, 1.0)) -> np.ndarray:
    """Roughly n_points Bloch vectors: spherical Fibonacci shells plus center."""
    per_shell = max(n_points // len(shells), 1)
    pts = [np.zeros(3)]
    golden = np.pi * (3.0 - np.sqrt(5.0))
    for radius in shells:
        k = np.arange(per_shell)
        z = 1.0 - 2.0 * (k + 0.5) / per_shell
        rho = np.sqrt(np.maximum(1.0 - z**2, 0.0))
        theta = golden * k
        shell = radius * np.stack(
            [rho * np.cos(theta), rho * np.sin(theta), z], axis=1
        )
        pts.append(shell)
    return np.vstack(pts)


def moment_cloud(mats: np.ndarray, bloch: np.ndarray) -> np.ndarray:
    """Moment coordinates of the Bloch-grid densities for an r = 2 family."""
    rhos = np.stack([bloch_density(x) for x in bloch])
    return np.real(np.einsum("kij,sji->sk", mats, rhos))


def diagonal_stack(n: int) -> np.ndarray:
    """An orthonormal Hermitian basis of the diagonal algebra of C^n: the
    units E_ii, as a dense (n, n, n) stack.  pauli:q spans the same algebra
    for n = 2^q, so its moment distances and orthocomplement are the same."""
    return np.eye(n, dtype=complex)[:, :, None] * np.eye(n)[:, None, :]


def coordinates(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    """tr(B_k X) for each element B_k of an orthonormal Hermitian stack."""
    return np.real(np.einsum("kij,ji->k", stack, x))


def certificate_problems(a, x, stack: np.ndarray, dist_tol: float) -> str | None:
    """Why X is not a minimality witness for A relative to the algebra of the
    orthonormal Hermitian stack (t, n, n), or None.

    X must be Hermitian, trace-orthogonal to the algebra (its coordinates
    have norm at most dist_tol), of trace norm 2, and satisfy
    A X = ||A|| |X| with |X| from np.linalg.eigh, within 1e-8 ||A||.  A is
    scaled by a power of two before the product, so any finite scale of A
    gets the answer of A."""
    a = np.asarray(a, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if x.shape != a.shape or not np.allclose(x, x.conj().T, rtol=0.0, atol=1e-12):
        return "X is not a Hermitian matrix of A's shape"
    perp = float(np.linalg.norm(coordinates(stack, x)))
    if perp > dist_tol:
        return f"X is not trace-orthogonal to the algebra: coordinates of norm {perp:.3e}"
    w, v = np.linalg.eigh((x + x.conj().T) / 2)
    if abs(float(np.sum(np.abs(w))) - 2.0) > 1e-8:
        return f"trace norm of X is {np.sum(np.abs(w))!r}, not 2"
    e = np.frexp(np.max(np.abs(np.concatenate([a.real.ravel(), a.imag.ravel()]))))[1]
    unit = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(unit))))
    residual = float(np.linalg.norm(unit @ x - norm * (v * np.abs(w)) @ v.conj().T))
    if residual > 1e-8 * norm:
        return f"A X != ||A|| |X|: residual {residual:.3e} at ||A|| = {norm:.3e}"
    return None


def interval_problems(a0, stack: np.ndarray, result, upper: float | None = None) -> str | None:
    """Why the best-approximation result's interval [lower, dist] does not
    hold dist(A0, B) for the algebra of the orthonormal Hermitian stack
    (t, n, n), or None.  Everything is computed in units of ||A0||.

    dist must be ||A0 + sum_k x_star_k B_k|| by eigvalsh, within 1e-12
    relative.  lower must be 0 when the result has no dual witness;
    otherwise the witness ``barrier`` = (x, tau, dx, dtau) rebuilds, from
    A(x) = V diag(w) V* by eigh, d+- = 1 / (tau -+ w) and S = V* (sum_k dx_k
    B_k) V, the dual point X = V Y V* with Y = (d+ d+^T + d- d-^T) * S +
    diag(d+ - d- - dtau (d+^2 - d-^2)), which is (tau I - A)^-1 - (tau I +
    A)^-1 plus its derivative along (dx, dtau); X' = X - sum_k tr(B_k X) B_k
    gives tr(A0 X') / ||X'||_1 by eigvalsh, which must match lower within
    1e-8 + 16 eps / gap, the precision to which the witness fixes X at the
    gap tau - ||A(x)||.  lower must be at most dist, and at most ``upper``
    (an independent upper bound on the distance) when given, within 1e-12."""
    a0 = np.asarray(a0, dtype=complex)
    scale = float(np.max(np.abs(np.linalg.eigvalsh(a0))))
    unit = a0 / scale
    def family(x):
        return unit + np.einsum("k,kij->ij", np.asarray(x, dtype=float) / scale, stack)
    dist = float(np.max(np.abs(np.linalg.eigvalsh(family(result.x_star)))))
    if abs(result.dist / scale - dist) > 1e-12 * max(dist, 1.0):
        return f"dist {result.dist!r} != ||A(x_star)|| = {dist * scale!r}"
    lower = result.lower / scale
    if result.barrier is None:
        if lower != 0.0:
            return f"lower {result.lower!r} without a dual witness"
    else:
        t = stack.shape[0]
        x, tau, dx, dtau = np.split(np.asarray(result.barrier), [t, t + 1, 2 * t + 1])
        a, tau, dtau = family(x), float(tau[0]) / scale, float(dtau[0]) / scale
        w, v = np.linalg.eigh(a)
        dp, dm = 1.0 / (tau - w), 1.0 / (tau + w)
        s = v.conj().T @ (family(dx) - unit) @ v
        y = (np.outer(dp, dp) + np.outer(dm, dm)) * s + np.diag(dp - dm - dtau * (dp**2 - dm**2))
        x_dual = v @ y @ v.conj().T
        x_dual = (x_dual + x_dual.conj().T) / 2
        x_perp = x_dual - np.einsum("k,kij->ij", coordinates(stack, x_dual), stack)
        bound = np.real(np.trace(unit @ x_perp)) / np.sum(np.abs(np.linalg.eigvalsh(x_perp)))
        gap = tau - float(np.max(np.abs(w)))
        if abs(bound - lower) > 1e-8 + 16 * np.finfo(float).eps / gap:
            return f"lower {result.lower!r} != {bound * scale!r} from the dual witness"
    if lower > dist + 1e-12:
        return f"lower {result.lower!r} exceeds dist {result.dist!r}"
    if upper is not None and lower > upper / scale + 1e-12:
        return f"lower {result.lower!r} exceeds the upper bound {upper!r}"
    return None


def support_problems(v, w, r_plus, r_minus, stack: np.ndarray, dist_tol: float) -> str | None:
    """Why the witnesses do not show that the moments of the frames V and W
    meet, or None: each must be a density matrix (Hermitian, eigenvalues at
    least -1e-10, trace 1 within 1e-10), and the moments of V R+ V* and
    W R- W* against the orthonormal stack must agree within dist_tol."""
    for name, rho in (("R+", r_plus), ("R-", r_minus)):
        rho = np.asarray(rho, dtype=complex)
        if not np.allclose(rho, rho.conj().T, rtol=0.0, atol=1e-12):
            return f"{name} is not Hermitian"
        if np.linalg.eigvalsh(rho)[0] < -1e-10 or abs(np.trace(rho).real - 1.0) > 1e-10:
            return f"{name} is not a density matrix"
    gap = coordinates(stack, v @ r_plus @ v.conj().T) - coordinates(stack, w @ r_minus @ w.conj().T)
    if np.linalg.norm(gap) > dist_tol:
        return f"the moments differ by {np.linalg.norm(gap):.3e}"
    return None


def separation_bound(v, w, d: np.ndarray, stack: np.ndarray) -> float:
    """A lower bound on the distance between the moments of the frames V and
    W from any direction d in moment coordinates: (min over V of <d, .> -
    max over W of <d, .>) / ||d||, each extreme an eigenvalue of the frame's
    compression of sum_k d_k B_k."""
    g = np.einsum("k,kij->ij", d, stack)
    low = np.linalg.eigvalsh(v.conj().T @ g @ v)[0]
    high = np.linalg.eigvalsh(w.conj().T @ g @ w)[-1]
    return float((low - high) / np.linalg.norm(d))
