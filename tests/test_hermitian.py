import numpy as np
import pytest

from bminimal import hermitian
from bminimal.algebra import build_diagonal
from bminimal.hermitian import (
    abs_hermitian,
    as_hermitian,
    cluster_eigenvalues,
    eig_hermitian,
    min_eigpair,
)
from bminimal.minimality import construct_minimal, validate_certificate
from bminimal.moment import Subspace
from oracles import rand_hermitian
from suites import SCALES

IV = 1 / np.sqrt(2)
M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
X_SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
# The spectral norm through the one eigensolve, as every route reads it.
NORM = pytest.param(lambda a: eig_hermitian(a).norm, id="spectral_norm")


class TestAsHermitian:
    def test_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 2.0]])
        out = as_hermitian(a)
        assert np.array_equal(out, out.conj().T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_hermitian([[np.nan, 0.0], [0.0, 0.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            as_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_invariant(self, c):
        # asymmetry is judged against the largest entry: 1e-7 of it is
        # refused and 1e-14 of it repaired, whatever the scale
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian(c * np.array([[0.0, 1e-6], [1e-6 + 1e-13, 0.0]]))
        a = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 1e-14j, 2.0]])
        assert np.allclose(as_hermitian(c * a) / c, as_hermitian(a), rtol=0, atol=1e-15)


class TestEig:
    def test_pauli_x(self):
        dec = eig_hermitian([[0, 1], [1, 0]])
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        assert np.allclose(np.abs(dec.vectors), s, atol=1e-12)

    def test_already_diagonal(self):
        dec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=0)
        # permutation eigenvectors
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]], atol=0)

    def test_m1_spectrum(self):
        dec = eig_hermitian(M1)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0, 1.0], atol=1e-12)

    def test_zero_matrix(self):
        dec = eig_hermitian(np.zeros((3, 3)))
        assert np.allclose(dec.eigenvalues, 0.0)

    def test_reconstruction_and_unitarity_seeded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            a = rand_hermitian(rng, n)
            dec = eig_hermitian(a)
            recon = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
            assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10 * np.sqrt(n)

    def test_matches_lapack(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rand_hermitian(rng, int(rng.integers(2, 9)))
            assert np.allclose(
                eig_hermitian(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-10
            )

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = rand_hermitian(rng, 6)
        d1 = eig_hermitian(a)
        d2 = eig_hermitian(a.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.vectors, d2.vectors)

    def test_nonconvergence_with_exhausted_budget(self, monkeypatch):
        import bminimal.hermitian as hm
        from bminimal.errors import NonConvergence

        monkeypatch.setattr(hm, "_MAX_SWEEPS", 0)
        with pytest.raises(NonConvergence):
            hm.eig_hermitian([[0.0, 1.0], [1.0, 0.0]])


def rotated(values, seed):
    """A random unitary conjugate of diag(values)."""
    rng = np.random.default_rng(seed)
    n = len(values)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * np.asarray(values)) @ q.conj().T
    return (a + a.conj().T) / 2


class TestCluster:
    """One rule: consecutive eigenvalues merge when their gap is at most
    default_cluster_tol(||A||) = 1e-8 ||A||."""

    def test_forced_merge(self):
        # gaps of 0.9e-8 ||A|| merge and gaps of 1.1e-8 ||A|| do not, at every scale
        cases = [
            ([-1.0, 1.0 - 1e-12, 1.0], [1, 2]),
            ([-1.0, 1.0 - 0.9e-8, 1.0], [1, 2]),
            ([-1.0, 1.0 - 1.1e-8, 1.0], [1, 1, 1]),
            ([-1.0, -1.0 + 0.9e-8, 0.5, 1.0], [2, 1, 1]),
            ([-1.0, -1.0 + 1.1e-8, 0.5, 1.0], [1, 1, 1, 1]),
        ]
        for c in SCALES:
            for values, widths in cases:
                dec = eig_hermitian(c * np.diag(values))
                assert [f.shape[1] for f in cluster_eigenvalues(dec)] == widths

    def test_chained_gaps_merge(self):
        # ||A|| = 2, so gaps of 1e-8 chain three eigenvalues into one cluster
        values = [-2.0, -2.0 + 1e-8, -2.0 + 2e-8, 0.5, 2.0 - 1e-8, 2.0]
        dec = eig_hermitian(rotated(values, 16))
        assert [f.shape[1] for f in cluster_eigenvalues(dec)] == [3, 1, 2]

    def test_all_singletons(self):
        dec = eig_hermitian(np.diag([0.0, 0.5, 1.0]))
        clusters = cluster_eigenvalues(dec)
        assert [c.shape[1] for c in clusters] == [1, 1, 1]

    def test_m1_top_frame(self):
        dec = eig_hermitian(M1)
        clusters = cluster_eigenvalues(dec)
        top = clusters[-1]
        assert top.shape[1] == 2
        gram = top.conj().T @ top
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-12
        # every column is fixed by M1 (eigenvalue one)
        assert np.linalg.norm(M1 @ top - top) <= 1e-12

    def test_distinct_frames_orthogonal(self):
        rng = np.random.default_rng(14)
        dec = eig_hermitian(rand_hermitian(rng, 7))
        clusters = cluster_eigenvalues(dec)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                cross = clusters[i].conj().T @ clusters[j]
                assert np.linalg.norm(cross) <= 1e-8

    def test_frames_tile_the_unitary(self):
        rng = np.random.default_rng(15)
        cases = [eig_hermitian(rand_hermitian(rng, n)) for n in (1, 2, 5, 8)]
        # forced merges: a near-double pair, one cluster, chained gaps, and A = 0
        cases += [
            eig_hermitian(np.diag([-1.0, 1.0 - 1e-12, 1.0])),
            eig_hermitian(np.eye(3)),
            eig_hermitian(rotated([-2.0, -2.0 + 1e-8, -2.0 + 2e-8, 0.5, 2.0 - 1e-8, 2.0], 17)),
            eig_hermitian(np.zeros((3, 3))),
        ]
        for dec in cases:
            frames = cluster_eigenvalues(dec)
            assert all(isinstance(f, np.ndarray) for f in frames)
            assert not any(np.shares_memory(f, dec.vectors) for f in frames)
            assert np.hstack(frames).tobytes() == dec.vectors.tobytes()
        assert len(cluster_eigenvalues(cases[-1])) == 1


class TestValidatesOnce:
    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        real = hermitian._as_hermitian_stack

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hermitian, "_as_hermitian_stack", counting)
        return calls

    @pytest.mark.parametrize("fn", [NORM, abs_hermitian])
    def test_one_pass(self, passes, fn):
        # eig_hermitian validates; no pre-pass in front of it
        fn(M1)
        assert len(passes) == 1

    @pytest.mark.parametrize("call, expected", [
        # R in its one eigensolve, which also gives ||R||
        (lambda basis: construct_minimal(
            Subspace(np.array([[IV], [IV], [0.0]], dtype=complex)),
            Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex)),
            1.0, np.diag([0.0, 0.0, 0.5]), basis), 1),
        # A in its one eigensolve, which also gives ||A||; X inside |X|
        (lambda basis: validate_certificate(M1, X_SWAP, basis, 1e-6), 2),
    ], ids=["construct_minimal", "validate_certificate"])
    def test_library_passes(self, passes, call, expected):
        basis = build_diagonal(3)
        passes.clear()
        call(basis)
        assert len(passes) == expected

    @pytest.mark.parametrize("fn", [NORM, abs_hermitian])
    def test_rejects_invalid(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            fn(np.array([[np.inf]]))


class TestSpectralNorm:
    def test_m1(self):
        assert eig_hermitian(M1).norm == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert eig_hermitian(np.zeros((4, 4))).norm == 0.0

    def test_negative_side(self):
        assert eig_hermitian(np.diag([-3.0, 2.0])).norm == pytest.approx(3.0)

    def test_matches_eigenvalues(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            a = rand_hermitian(rng, 5)
            w = eig_hermitian(a).eigenvalues
            assert eig_hermitian(a).norm == max(abs(w[0]), abs(w[-1]))


class TestAbsHermitian:
    def test_diagonal(self):
        assert np.allclose(abs_hermitian(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]))

    def test_rank_two_swap(self):
        x = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
        expected = np.diag([1.0, 1.0, 0.0])  # sum of the two spectral projections
        out = abs_hermitian(x)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(out @ out, x @ x, atol=1e-12)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psd = g @ g.conj().T
        assert np.allclose(abs_hermitian(psd), psd, atol=1e-10 * np.linalg.norm(psd))

    def test_square_identity_and_psd_seeded(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rand_hermitian(rng, 5)
            ax = abs_hermitian(x)
            scale = np.linalg.norm(x) ** 2
            assert np.linalg.norm(ax @ ax - x @ x) <= 1e-9 * max(1.0, scale)
            assert np.min(np.linalg.eigvalsh(ax)) >= -1e-10
            assert np.linalg.norm(ax @ x - x @ ax) <= 1e-10 * max(1.0, np.linalg.norm(x))


class TestMinEigpair:
    def test_diagonal(self):
        lam, v = min_eigpair(np.diag([1.0, -1.0]))
        assert lam == pytest.approx(-1.0)
        assert np.allclose(np.abs(v), [0.0, 1.0])

    def test_pauli_x(self):
        lam, v = min_eigpair([[0, 1], [1, 0]])
        assert lam == pytest.approx(-1.0)
        assert np.allclose(np.abs(v), 1 / np.sqrt(2))

    def test_psd_lower_bound(self):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam, _ = min_eigpair(g @ g.conj().T)
        assert lam >= -1e-10

    def test_matches_full_decomposition(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = rand_hermitian(rng, 6)
            lam, v = min_eigpair(g)
            assert lam == pytest.approx(eig_hermitian(g).eigenvalues[0], abs=1e-10)
            assert np.linalg.norm(g @ v - lam * v) <= 1e-10 * max(1.0, np.linalg.norm(g))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(24)
        for n in (1, 2, 3, 8):
            g = rand_hermitian(rng, n)
            lam, v = min_eigpair(g)
            assert lam == pytest.approx(np.linalg.eigvalsh(g)[0], abs=1e-12)
            assert v.shape == (n,)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            min_eigpair([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            min_eigpair([[np.nan, 0.0], [0.0, 1.0]])
