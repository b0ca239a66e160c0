"""Seeded instance generators shared by the module and acceptance tests."""

from __future__ import annotations

import numpy as np

from oracles import rand_hermitian


def random_one_sided_3x3(seed: int, margin: float = 0.2) -> np.ndarray:
    """Seeded 3x3 Hermitian with spectral norm one and |lmax + lmin| >= margin.

    The margin keeps the instance clearly outside the resolution slack of
    the 0.02-step diagonal grid oracle, so the grid verdict is decisive.
    """
    rng = np.random.default_rng(seed)
    while True:
        a = rand_hermitian(rng, 3)
        w = np.linalg.eigvalsh(a)
        norm = max(abs(w[0]), abs(w[-1]))
        a = a / norm
        w = w / norm
        if abs(w[0] + w[-1]) >= margin:
            return a


def constructed_minimal_3x3(seed: int) -> np.ndarray:
    """Seeded diagonal-algebra-minimal 3x3 Hermitian with spectral norm one.

    Draws a unit vector u with no coordinate mass above 1/2, rephases it
    into an orthogonal twin w with the same coordinate masses (the three
    masses close into a triangle in the complex plane), and returns
    u u* - w w* + s z z* on the leftover direction z with |s| < 1.  The
    extremal eigenspaces are span{u} and span{w}; their moments coincide.
    """
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
    seed_col = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    q, _ = np.linalg.qr(np.column_stack([u, w, seed_col]))
    z = q[:, 2]
    s = rng.uniform(-0.8, 0.8)
    mat = np.outer(u, u.conj()) - np.outer(w, w.conj()) + s * np.outer(z, z.conj())
    return (mat + mat.conj().T) / 2


def twin_pair(seed: int, n: int = 8, r: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Seeded orthonormal n x r frames V, W (2r <= n), orthogonal to each
    other, whose moments under the diagonal algebra (and so under pauli:q,
    n = 2^q) meet.

    V holds a unit u and W its twin w: |w_i| = |u_i| with phases that close
    the masses |u_i|^2 into a polygon, so <u, w> = 0 and diag(uu*) =
    diag(ww*).  Each frame's other r - 1 columns are random.
    """
    rng = np.random.default_rng(seed)
    while True:
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        u = g / np.linalg.norm(g)
        m = np.abs(u) ** 2
        order = np.argsort(-m)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        tail = np.sum(m[order[2:]] * np.exp(1j * theta[order[2:]]))
        a, b, c = m[order[0]], m[order[1]], abs(tail)
        if abs(a - b) <= c <= a + b:
            break
    # a + b e^{i s} = -tail e^{-i t} for the two largest masses
    s = np.arccos(np.clip((c * c - a * a - b * b) / (2 * a * b), -1.0, 1.0))
    t = np.angle(-tail / (a + b * np.exp(1j * s)))
    theta[order[0]], theta[order[1]] = t, t + s
    w = u * np.exp(1j * theta)
    extra = rng.standard_normal((n, 2 * (r - 1))) + 1j * rng.standard_normal((n, 2 * (r - 1)))
    q, _ = np.linalg.qr(np.column_stack([u, w, extra]))
    return q[:, [0, *range(2, r + 1)]], q[:, [1, *range(r + 1, 2 * r)]]


def support_matrix(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P_V - P_W + P_rest / 2 for orthonormal, mutually orthogonal frames:
    eigenvalues +1 on V, -1 on W and 1/2 on the rest."""
    pv = v @ v.conj().T
    pw = w @ w.conj().T
    a = pv - pw + 0.5 * (np.eye(v.shape[0]) - pv - pw)
    return (a + a.conj().T) / 2


def grid_agreement_suite() -> list[np.ndarray]:
    """The 25 seeded 3x3 instances: 15 clearly one-sided, 10 minimal."""
    cases = [random_one_sided_3x3(1000 + i) for i in range(15)]
    cases += [constructed_minimal_3x3(2000 + i) for i in range(10)]
    return cases


# One malformed variant of a matrix or frame document per way it can break:
# a null entry, an object entry, a non-list body, and a size that is a list,
# a fraction (which int() would truncate to the right size) or a bool.
# Each takes the document and the key of its body ("entries" or "columns").
MALFORMED = {
    "null_entry": lambda doc, key: {**doc, key: [[[None, 0.0]] * len(v) for v in doc[key]]},
    "object_entry": lambda doc, key: {**doc, key: [[{}] * len(v) for v in doc[key]]},
    "non_list": lambda doc, key: {**doc, key: 5},
    "list_n": lambda doc, key: {**doc, "n": [doc["n"]]},
    "fractional_n": lambda doc, key: {**doc, "n": doc["n"] + 0.5},
    "bool_n": lambda doc, key: {**doc, "n": True},
}

# Scales c for the sweep "A is minimal iff cA is": 1e-12 to 1e12 in steps
# of 100, and the extremes 1e-300 to 1e300, where a plain Frobenius norm
# underflows or overflows and a subnormal entry keeps few bits.
SCALES = sorted([10.0**e for e in range(-12, 13, 2)]
                + [1e-300, 1e-200, 1e-160, 1e155, 1e200, 1e300])
