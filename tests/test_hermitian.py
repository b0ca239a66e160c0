import numpy as np
import pytest

from bminimal import hermitian
from bminimal.algebra import build_diagonal
from bminimal.hermitian import (
    INPUT_TOL,
    abs_hermitian,
    as_hermitian,
    cluster_eigenvalues,
    eig_hermitian,
    frobenius,
    min_eigpair,
    symmetrize,
)
from bminimal.minimality import check_minimal, construct_minimal, validate_certificate
from bminimal.moment import Subspace, compress_family, moment_of_density
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

    def test_rejects_huge_asymmetry_without_overflow(self):
        # A - A* would overflow here; (A - A*)/2 does not
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian([[0.0, 1e308], [-1e308, 0.0]])

    def test_rejects_complex_asymmetry_beyond_float_range(self):
        # the modulus of these entries is not a float; the asymmetry is
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian([[0.0, 1.7e308 + 1.6e308j], [1.7e308 - 1.0e308j, 0.0]])

    def test_subnormal_entries_keep_their_bits(self):
        # halving an odd subnormal drops its last bit, and INPUT_TOL times a
        # subnormal scale underflows; unit-scaled, neither happens
        g = np.random.default_rng(1).standard_normal((3, 3))
        a = 1e-318 * (g + g.T)
        assert as_hermitian(a).tobytes() == a.astype(complex).tobytes()
        basis = build_diagonal(3)
        assert check_minimal(a, basis).verdict == check_minimal(np.ldexp(a, 1050), basis).verdict

    @pytest.mark.parametrize("k", [-1074, -1060, -1030, -1000, 0, 1000, 1022])
    def test_rejects_asymmetry_at_every_scale(self, k):
        # entries 2^k and 2^(k-1), subnormal or zero at the low end
        with pytest.raises(ValueError, match="not Hermitian"):
            as_hermitian(np.ldexp([[0.0, 1.0], [0.5, 0.0]], k))

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


class TestOneAsymmetryRule:
    """moment_of_density judges R by as_hermitian's rule: the largest entry
    of R - R* against INPUT_TOL times the largest entry of R."""

    @pytest.mark.parametrize("factor, accepted", [(0.5, True), (1.2, False)])
    def test_same_verdict(self, factor, accepted):
        # I/4 with one skew entry: refused above INPUT_TOL * 0.25 (a ratio of
        # Frobenius norms would let it pass up to about 0.35 * INPUT_TOL)
        fam = compress_family(Subspace(np.eye(4, dtype=complex)), build_diagonal(4))
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = factor * INPUT_TOL * 0.25
        for fn in (as_hermitian, lambda r: moment_of_density(fam, r)):
            if accepted:
                fn(rho)
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    fn(rho)


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
        # A in its one eigensolve, which also gives ||A||; X is checked by
        # validate_certificate itself, and |X| takes it as it is
        (lambda basis: validate_certificate(M1, X_SWAP, basis, 1e-6), 1),
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

    @pytest.mark.parametrize("c", SCALES)
    def test_matches_numpy(self, c):
        x = c * rand_hermitian(np.random.default_rng(18), 5)
        w, v = np.linalg.eigh(x)
        expected = (v * np.abs(w)) @ v.conj().T
        assert np.allclose(abs_hermitian(x), expected, rtol=0, atol=1e-13 * np.abs(w).max())


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


class TestSymmetrize:
    def test_bits_of_sum_then_halve(self):
        # halving first is exact for normal floats, so the Hermitian part
        # keeps the bits of (x + x*)/2 that every output was computed with
        rng = np.random.default_rng(41)
        for shape in [(1, 1), (3, 3), (8, 8), (4, 5, 5)]:
            for _ in range(20):
                scale = 10.0 ** rng.uniform(-100, 100)
                x = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for arr in (x, x.real):
                    adj = np.conj(np.swapaxes(arr, -1, -2))
                    assert symmetrize(arr).tobytes() == ((arr + adj) / 2).tobytes()

    def test_huge_entries_stay_finite(self):
        # (x + x*)/2 overflows here; the Hermitian part does not
        x = np.array([[1.7e308, 1.6e308 + 1.5e308j], [1.7e308 - 1.2e308j, -1.7e308]])
        out = symmetrize(x)
        assert np.isfinite(out).all()
        assert np.array_equal(out, out.conj().T)
        assert (out[0, 1].real, out[0, 1].imag) == pytest.approx((1.65e308, 1.35e308), rel=1e-15)
        stack = symmetrize(np.stack([x, x.conj()]))
        assert np.isfinite(stack).all()
        assert np.array_equal(stack, np.conj(np.swapaxes(stack, 1, 2)))


class TestExtremeScales:
    def test_frobenius(self):
        # the plain sum of squares is 0 below about 1e-162 and inf above
        # about 1e154; the norm is exact to rounding at every scale
        a = rand_hermitian(np.random.default_rng(42), 4)
        ref = np.linalg.norm(a)
        for c in (1e-320, 1e-300, 1e-200, 1e-160, 1.0, 1e155, 1e200, 1e300):
            assert frobenius(c * a) == pytest.approx(c * ref, rel=1e-13 if c > 1e-308 else 1e-3)
        assert frobenius(np.zeros((2, 2))) == 0.0
        assert frobenius(np.full((3, 3), 5e307)) == pytest.approx(1.5e308, rel=1e-15)
        assert frobenius(np.full((3, 3), 1e308)) == np.inf

    @pytest.mark.parametrize("k", [-1000, -520, -1, 0, 1, 520, 1000])
    def test_eig_exact_under_powers_of_two(self, k):
        # the sweeps see 2^k A as they see A: the same rotations, the same
        # vectors, and eigenvalues scaled back exactly
        a = rand_hermitian(np.random.default_rng(43), 5)
        ref = eig_hermitian(a)
        dec = eig_hermitian(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k))
        assert np.array_equal(dec.eigenvalues, np.ldexp(ref.eigenvalues, k))
        assert np.array_equal(dec.vectors, ref.vectors)

    def test_eigenvalue_beyond_float_range(self):
        # finite entries whose largest eigenvalue (2e308) is not a float
        with pytest.raises(ValueError, match="exceeds the float range"):
            eig_hermitian(np.full((2, 2), 1e308))
        assert eig_hermitian(np.full((2, 2), 8e307)).eigenvalues[-1] == pytest.approx(1.6e308)
