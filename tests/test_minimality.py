import numpy as np
import pytest

from bminimal import minimality
from bminimal.algebra import build_block, build_diagonal, orthonormalize
from bminimal.errors import (
    NonUnitalBasis,
    NormNotTwoSided,
    NotOrthogonal,
    NotSupportPair,
    PerturbationOverlapsSupport,
    PerturbationTooLarge,
    ZeroMatrix,
)
from bminimal.minimality import (
    MINIMAL,
    NOT_MINIMAL,
    REASON_DISJOINT,
    REASON_NORM,
    ExtremalSpaces,
    build_certificate,
    check_minimal,
    construct_minimal,
    extremal_eigenspaces,
    is_support_pair,
    validate_certificate,
)
from bminimal.moment import Subspace
from suites import constructed_minimal_3x3, grid_agreement_suite

IV = 1 / np.sqrt(2)
M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
X_SWAP = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)


def block_basis():
    return build_block([(2, "diagonal"), (2, "full")])


def block_pair():
    v = Subspace(0.5 * np.ones((4, 1), dtype=complex))
    w = Subspace(0.5 * np.array([[-1], [-1], [1], [1.0]], dtype=complex))
    return v, w


def m_block(lam, mu):
    v, w = block_pair()
    p = v.frame @ v.frame.conj().T
    q = w.frame @ w.frame.conj().T
    return lam * (p - q) + mu * (np.eye(4) - p - q)


class TestExtremalEigenspaces:
    def test_m1_spaces(self):
        spaces = extremal_eigenspaces(M1)
        assert spaces.norm == pytest.approx(1.0, abs=1e-12)
        assert spaces.plus.r == 2 and spaces.minus.r == 1
        assert np.linalg.norm(M1 @ spaces.plus.frame - spaces.plus.frame) <= 1e-10
        assert np.linalg.norm(M1 @ spaces.minus.frame + spaces.minus.frame) <= 1e-10
        assert spaces.rest is None

    def test_diag_simple(self):
        spaces = extremal_eigenspaces(np.diag([1.0, -1.0]))
        assert np.allclose(np.abs(spaces.plus.frame.ravel()), [1.0, 0.0])
        assert np.allclose(np.abs(spaces.minus.frame.ravel()), [0.0, 1.0])

    def test_one_sided(self):
        with pytest.raises(NormNotTwoSided):
            extremal_eigenspaces(np.diag([1.0, 0.5]))

    def test_near_flag(self):
        tau = 1e-8
        with pytest.raises(NormNotTwoSided) as info:
            extremal_eigenspaces(np.diag([1.0, -1.0 + 1.5 * tau]), tau=tau)
        assert info.value.near
        assert info.value.norm == 1.0
        with pytest.raises(NormNotTwoSided) as info:
            extremal_eigenspaces(np.diag([1.0, -0.5]), tau=tau)
        assert not info.value.near
        assert info.value.norm == 1.0

    def test_rest_space(self):
        spaces = extremal_eigenspaces(np.diag([1.0, 0.25, -1.0]))
        assert spaces.rest is not None and spaces.rest.r == 1
        assert np.allclose(np.abs(spaces.rest.frame.ravel()), [0.0, 1.0, 0.0])

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            extremal_eigenspaces(np.zeros((2, 2)))


class TestCheckMinimal:
    def test_m1_minimal(self):
        report = check_minimal(M1, build_diagonal(3))
        assert report.verdict == MINIMAL
        assert report.certificate is not None
        assert report.certificate.residual_eq <= 1e-8
        assert report.certificate.residual_perp <= 1e-10

    def test_element_of_algebra(self):
        report = check_minimal(np.diag([1.0, -1.0, 0.0]), build_diagonal(3))
        assert report.verdict == NOT_MINIMAL
        assert report.reason == REASON_DISJOINT
        assert report.distance == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_block_example(self):
        report = check_minimal(m_block(1.0, 0.5), block_basis())
        assert report.verdict == MINIMAL

    def test_one_sided_not_minimal(self, monkeypatch):
        real = minimality.eig_hermitian
        calls = []

        def counting(a):
            calls.append(1)
            return real(a)

        monkeypatch.setattr(minimality, "eig_hermitian", counting)
        report = check_minimal(m_block(1.0, 2.0), block_basis())
        assert report.verdict == NOT_MINIMAL
        assert report.reason == REASON_NORM
        assert report.norm == pytest.approx(2.0, abs=1e-12)
        assert len(calls) == 1  # the verdict and its norm come from one decomposition

    def test_requires_unital(self):
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        with pytest.raises(NonUnitalBasis):
            check_minimal(M1, orthonormalize([e1]))

    def test_round_trip_certificates(self):
        basis = build_diagonal(3)
        for seed in (2000, 2003, 2007):
            a = constructed_minimal_3x3(seed)
            report = check_minimal(a, basis)
            assert report.verdict == MINIMAL
            assert validate_certificate(a, report.certificate.x, basis, 1e-6)

    def test_necessary_spectrum_condition(self):
        basis = build_diagonal(3)
        for a in grid_agreement_suite():
            report = check_minimal(a, basis)
            if report.verdict == MINIMAL:
                w = np.linalg.eigvalsh(a)
                norm = report.norm
                assert abs(w[-1] - norm) <= 1e-8 * max(1.0, norm)
                assert abs(w[0] + norm) <= 1e-8 * max(1.0, norm)

    def test_near_threshold_undecided(self):
        report = check_minimal(np.diag([1.0, -1.0 + 1.5e-8, 0.2]), build_diagonal(3))
        assert report.verdict == "undecided"
        assert report.reason == REASON_NORM

    def test_gap_undecided_on_tiny_budget(self):
        from bminimal.moment import FWConfig

        rng = np.random.default_rng(6)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        pv = q[:, :2] @ q[:, :2].conj().T
        pw = q[:, 2:] @ q[:, 2:].conj().T
        a = pv - pw
        clipped = check_minimal(a, build_diagonal(4), FWConfig(max_iter=5))
        assert clipped.verdict == "undecided"
        assert clipped.reason == "gap_undecided"
        full = check_minimal(a, build_diagonal(4))
        assert full.verdict == MINIMAL

    def test_scaling_invariance(self):
        basis = build_diagonal(3)
        for a in (M1, np.diag([1.0, -1.0, 0.0]), constructed_minimal_3x3(2004)):
            base = check_minimal(a, basis)
            for c in (0.3, 2.5):
                scaled = check_minimal(c * a, basis)
                assert scaled.verdict == base.verdict
                if scaled.verdict == MINIMAL:
                    assert validate_certificate(c * a, scaled.certificate.x, basis, 1e-6)


class TestBuildCertificate:
    def test_m1_explicit_witnesses(self):
        plus = Subspace(np.array([[IV, 0], [IV, 0], [0, 1.0]], dtype=complex))
        minus = Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))
        spaces = ExtremalSpaces(norm=1.0, plus=plus, minus=minus, rest=None)
        cert = build_certificate(
            M1, spaces, np.diag([1.0, 0.0]), np.eye(1), basis=build_diagonal(3)
        )
        assert np.allclose(cert.x, X_SWAP, atol=1e-12)
        # direct multiplication: M1 X = diag(1, 1, 0) = |X|
        assert np.allclose(M1 @ cert.x, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert cert.residual_eq <= 1e-12
        assert cert.residual_perp <= 1e-12

    def test_diag_certificate(self):
        spaces = extremal_eigenspaces(np.diag([1.0, -1.0]))
        cert = build_certificate(
            np.diag([1.0, -1.0]), spaces, np.eye(1), np.eye(1), basis=build_diagonal(2)
        )
        assert np.allclose(cert.x, np.diag([1.0, -1.0]), atol=1e-12)

    def test_trace_norm_two(self):
        basis = build_diagonal(3)
        report = check_minimal(M1, basis)
        w = np.linalg.eigvalsh(report.certificate.x)
        assert np.sum(np.abs(w)) == pytest.approx(2.0, abs=1e-9)


class TestValidateCertificate:
    def test_accepts_swap(self):
        assert validate_certificate(M1, X_SWAP, build_diagonal(3), 1e-6)

    def test_rejects_zero(self):
        assert not validate_certificate(M1, np.zeros((3, 3)), build_diagonal(3), 1e-6)

    def test_rejects_element_of_algebra(self):
        assert not validate_certificate(
            np.diag([1.0, -1.0]), np.diag([1.0, -1.0]), build_diagonal(2), 1e-6
        )

    def test_rejects_wrong_equation(self):
        bad = np.diag([0.0, 1.0, -1.0])  # trace-orthogonal? no: diagonal nonzero
        assert not validate_certificate(M1, bad, build_diagonal(3), 1e-6)


class TestSupportPair:
    def test_segment_meets_point(self):
        s = Subspace(np.array([[IV, 0], [IV, 0], [0, 1.0]], dtype=complex))
        v = Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))
        assert is_support_pair(s, v, build_diagonal(3))

    def test_axes_disjoint(self):
        e1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
        e2 = Subspace(np.array([[0.0], [1.0]], dtype=complex))
        assert not is_support_pair(e1, e2, build_diagonal(2))

    def test_block_twins(self):
        v, w = block_pair()
        assert is_support_pair(v, w, block_basis())

    def test_rejects_overlapping(self):
        s = Subspace(np.array([[IV, 0], [IV, 0], [0, 1.0]], dtype=complex))
        v_inside = Subspace(np.array([[IV], [IV], [0.0]], dtype=complex))
        with pytest.raises(NotOrthogonal):
            is_support_pair(s, v_inside, build_diagonal(3))

    def test_rejects_non_unital(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        a = Subspace(np.array([[1.0], [0.0]], dtype=complex))
        b = Subspace(np.array([[0.0], [1.0]], dtype=complex))
        with pytest.raises(NonUnitalBasis):
            is_support_pair(a, b, orthonormalize([e1]))


class TestConstructMinimal:
    def test_swap_matrix_family(self):
        s = Subspace(np.array([[IV, 0], [IV, 0], [0, 1.0]], dtype=complex))
        s_perp = Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))
        for lam in (1.0, 2.5):
            m = construct_minimal(s, s_perp, lam, None, build_diagonal(3))
            expected = lam * np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]])
            assert np.allclose(m, expected, atol=1e-12)
            assert check_minimal(m, build_diagonal(3)).verdict == MINIMAL

    def test_block_construction(self):
        v, w = block_pair()
        p = v.frame @ v.frame.conj().T
        q = w.frame @ w.frame.conj().T
        rest = 0.5 * (np.eye(4) - p - q)
        m = construct_minimal(v, w, 1.0, rest, block_basis())
        assert np.allclose(m, m_block(1.0, 0.5), atol=1e-12)
        assert check_minimal(m, block_basis()).verdict == MINIMAL

    def test_trivial_algebra(self):
        e1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
        e2 = Subspace(np.array([[0.0], [1.0]], dtype=complex))
        scalars = orthonormalize([np.eye(2)])
        m = construct_minimal(e1, e2, 1.0, None, scalars)
        assert np.allclose(m, np.diag([1.0, -1.0]), atol=1e-12)
        assert check_minimal(m, scalars).verdict == MINIMAL

    def test_not_support_pair(self):
        e1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
        e2 = Subspace(np.array([[0.0], [1.0]], dtype=complex))
        with pytest.raises(NotSupportPair):
            construct_minimal(e1, e2, 1.0, None, build_block([(2, "full")]))

    def test_precondition_errors(self):
        v, w = block_pair()
        p = v.frame @ v.frame.conj().T
        q = w.frame @ w.frame.conj().T
        rest = np.eye(4) - p - q
        with pytest.raises(ValueError):
            construct_minimal(v, w, -1.0, None, block_basis())
        with pytest.raises(PerturbationTooLarge):
            construct_minimal(v, w, 1.0, 2.0 * rest, block_basis())
        with pytest.raises(PerturbationOverlapsSupport):
            construct_minimal(v, w, 1.0, 0.5 * p, block_basis())

    def test_random_support_pairs_yield_minimal(self):
        basis = build_diagonal(3)
        for seed in range(3):
            rng = np.random.default_rng(300 + seed)
            a = constructed_minimal_3x3(300 + seed)
            # reuse the construction's own eigenspaces as the support pair
            spaces = extremal_eigenspaces(a)
            lam = float(rng.uniform(0.5, 2.0))
            m = construct_minimal(spaces.plus, spaces.minus, lam, None, basis)
            assert check_minimal(m, basis).verdict == MINIMAL
