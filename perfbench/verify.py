"""Independent checks of every benchmark output, in numpy and LAPACK only.

An operation fails when it raised, gave a definite answer that contradicts
the ground truth, or returned a witness or stdout that these checks reject.
An operation is undecided when it said so: verdict ``undecided``, raised
``Undecided``, or stopped without convergence.  Each check may also return a
quality pair (reported, reference) that feeds the ``dist_ratio`` metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from gen import MINIMAL, NOT_MINIMAL, Algebra, PairDistance, spectral_norm

UNDECIDED = "undecided"
_REL = 1e-9


@dataclass(frozen=True)
class Outcome:
    failure: str | None = None
    undecided: bool = False
    quality: tuple[float, float] | None = None


def failed(why: str) -> Outcome:
    return Outcome(failure=why)


def _close(x: float, y: float, rel: float = _REL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def certificate(a: np.ndarray, x: np.ndarray, alg: Algebra, dist_tol: float) -> str | None:
    """X is Hermitian, nonzero, trace-orthogonal to the algebra (its
    coordinates are exactly the FW distance, at most dist_tol) and satisfies
    A X = ||A|| |X| with |X| from np.linalg.eigh."""
    if x.shape != a.shape or not np.allclose(x, x.conj().T, atol=1e-12):
        return "certificate is not a Hermitian matrix of the input's shape"
    perp = alg.perp_residual(x)
    if perp > 1.01 * dist_tol + 1e-12:
        return f"certificate not trace-orthogonal to the algebra ({perp:.2e})"
    w, v = np.linalg.eigh(x)
    if not _close(float(np.sum(np.abs(w))), 2.0, 1e-8):
        return "certificate trace norm differs from 2"
    abs_x = (v * np.abs(w)) @ v.conj().T
    norm = spectral_norm(a)
    residual = float(np.linalg.norm(a @ x - norm * abs_x))
    if residual > 1e-8 * max(1.0, norm):
        return f"A X != ||A|| |X| (residual {residual:.2e})"
    return None


def report(a: np.ndarray, alg: Algebra, truth: str, rep, dist_tol: float) -> Outcome:
    """A MinimalityReport from check_minimal."""
    norm = spectral_norm(a)
    if not _close(rep.norm, norm):
        return failed(f"reported norm {rep.norm!r} != eigvalsh norm {norm!r}")
    if rep.verdict == UNDECIDED:
        return Outcome(undecided=True)
    if rep.verdict not in (MINIMAL, NOT_MINIMAL):
        return failed(f"unknown verdict {rep.verdict!r}")
    if rep.verdict != truth:
        return failed(f"verdict {rep.verdict} contradicts ground truth {truth}")
    if rep.verdict == NOT_MINIMAL:
        if rep.reason == "norm_not_two_sided":
            w = np.linalg.eigvalsh(a)
            if abs(w[0] + w[-1]) <= 1e-8 * max(1.0, norm):
                return failed("norm_not_two_sided, but eigvalsh finds both +-||A||")
        return Outcome()
    if rep.certificate is None:
        return failed("minimal verdict without a certificate")
    x = np.asarray(rep.certificate.x)
    why = certificate(a, x, alg, dist_tol)
    if why:
        return failed(why)
    # dual value of the certificate: tr(A X) / ||X||_1 <= dist(A, B) = ||A||
    dual = float(np.real(np.trace(a @ x))) / float(np.sum(np.abs(np.linalg.eigvalsh(x))))
    return Outcome(quality=(rep.norm, dual))


def cli_stdout(code: int, stdout: str, library_verdict: str | None, first_stdout: str | None) -> Outcome:
    """The JSON verdict of ``bmin check`` equals the library verdict, the
    exit code follows it, and the bytes repeat exactly for the same input."""
    if first_stdout is not None and stdout != first_stdout:
        return failed("stdout bytes differ from an earlier run on the same input")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return failed(f"stdout is not JSON (exit code {code})")
    verdict = doc.get("verdict")
    if verdict != library_verdict:
        return failed(f"CLI verdict {verdict!r} != library verdict {library_verdict!r}")
    if code != {MINIMAL: 0, NOT_MINIMAL: 1}.get(verdict, 2):
        return failed(f"exit code {code} does not match verdict {verdict}")
    if verdict == MINIMAL and doc.get("certificate") is None:
        return failed("minimal verdict without a certificate document")
    return Outcome(undecided=verdict == UNDECIDED)


def support(intersect: bool, answer) -> Outcome:
    """is_support_pair: True, False, or UNDECIDED when it raised Undecided."""
    if answer == UNDECIDED:
        return Outcome(undecided=True)
    if answer is not intersect:
        return failed(f"support verdict {answer} contradicts ground truth {intersect}")
    return Outcome()


def distance(v_frame, w_frame, res, cfg, truth: PairDistance, intersect: bool) -> Outcome:
    """moment_distance: PSD unit-trace witnesses, a distance that the
    witnesses reproduce, and either the gap met or the budget spent."""
    for rho in (res.witness_plus, res.witness_minus):
        rho = np.asarray(rho)
        if not np.allclose(rho, rho.conj().T, atol=1e-12):
            return failed("witness is not Hermitian")
        if np.linalg.eigvalsh(rho)[0] < -1e-10 or not _close(float(np.real(np.trace(rho))), 1.0, 1e-10):
            return failed("witness is not a density matrix")
    point_v = np.real(np.einsum("ia,ab,ib->i", v_frame, res.witness_plus, v_frame.conj()))
    point_w = np.real(np.einsum("ia,ab,ib->i", w_frame, res.witness_minus, w_frame.conj()))
    recomputed = float(np.linalg.norm(point_v - point_w))
    if abs(recomputed - res.distance) > 1e-9 * max(1.0, res.distance):
        return failed(f"witnesses give distance {recomputed!r}, reported {res.distance!r}")
    if res.distance < truth.lower - 1e-9:
        return failed(f"distance {res.distance!r} below the certified lower bound {truth.lower!r}")
    converged = res.gap <= cfg.gap_tol
    if not converged and res.iterations < cfg.max_iter:
        return failed(f"stopped at gap {res.gap:.2e} after {res.iterations} < {cfg.max_iter} iterations")
    quality = None if intersect else (res.distance, truth.upper)
    return Outcome(undecided=not converged, quality=quality)


def best_approx(a0: np.ndarray, stack: np.ndarray, res, reference: float) -> Outcome:
    """best_approximation: dist is ||A0 + sum x_k B_k|| by eigvalsh, at most
    ||A0||; the quality pair compares it with ``reference``, the distance
    from gen.best_approx_reference."""
    x = np.asarray(res.x_star, dtype=float)
    if x.shape != (stack.shape[0],):
        return failed(f"x_star has shape {x.shape}")
    value = spectral_norm(a0 + np.einsum("k,kij->ij", x, stack))
    if not _close(res.dist, value):
        return failed(f"dist {res.dist!r} != ||A(x_star)|| = {value!r}")
    if res.dist > spectral_norm(a0) * (1 + 1e-12):
        return failed("dist exceeds ||A0||, the value at x = 0")
    if len(res.trace) < 1:
        return failed("empty trace")
    return Outcome(undecided=not res.converged, quality=(res.dist, reference))
