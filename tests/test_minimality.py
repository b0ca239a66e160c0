import dataclasses
import inspect
import re

import numpy as np
import pytest

from bminimal import hermitian, minimality
from bminimal.algebra import (
    SubalgebraBasis,
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    orthonormalize,
)
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
    UNDECIDED,
    Certificate,
    ExtremalSpaces,
    build_certificate,
    check_minimal,
    construct_minimal,
    extremal_eigenspaces,
    is_support_pair,
    spectral_split,
    validate_certificate,
)
from bminimal.hermitian import _fix_phases, abs_hermitian, as_hermitian, eig_hermitian
from bminimal.moment import Subspace
from oracles import rand_hermitian
from suites import SCALES, constructed_minimal_3x3, grid_agreement_suite

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


def swap(n):
    """The block swap [[0, I], [I, 0]], minimal for diagonal algebras."""
    h = n // 2
    a = np.zeros((n, n), dtype=complex)
    a[:h, h:] = np.eye(h)
    a[h:, :h] = np.eye(h)
    return a


def two_sided_inputs():
    """(A, (r-, r+)): the grid suite shifted to a two-sided spectrum, and at
    n = 4, 8, 16, 32 a shifted random matrix and one with eigenvalues -1 and
    +1 each repeated twice."""
    cases = []
    for a in grid_agreement_suite():
        w = np.linalg.eigvalsh(a)
        cases.append((a - (w[0] + w[-1]) / 2 * np.eye(3), (1, 1)))
    for n in (4, 8, 16, 32):
        rng = np.random.default_rng(n)
        h = rand_hermitian(rng, n)
        w = np.linalg.eigvalsh(h)
        cases.append((h - (w[0] + w[-1]) / 2 * np.eye(n), (1, 1)))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vals = np.concatenate([-np.ones(2), rng.uniform(-0.9, 0.9, n - 4), np.ones(2)])
        cases.append(((q * vals) @ q.conj().T, (2, 2)))
    return cases


class TestExtremalEigenspaces:
    def test_m1_spaces(self):
        spaces = extremal_eigenspaces(M1)
        assert spaces.norm == pytest.approx(1.0, abs=1e-12)
        assert spaces.plus.r == 2 and spaces.minus.r == 1
        assert np.linalg.norm(M1 @ spaces.plus.frame - spaces.plus.frame) <= 1e-10
        assert np.linalg.norm(M1 @ spaces.minus.frame + spaces.minus.frame) <= 1e-10

    def test_diag_simple(self):
        spaces = extremal_eigenspaces(np.diag([1.0, -1.0]))
        assert np.allclose(np.abs(spaces.plus.frame.ravel()), [1.0, 0.0])
        assert np.allclose(np.abs(spaces.minus.frame.ravel()), [0.0, 1.0])

    def test_one_sided(self):
        with pytest.raises(NormNotTwoSided):
            extremal_eigenspaces(np.diag([1.0, 0.5]))

    def test_near_flag(self):
        tau = 1e-8  # the cluster tolerance at ||A|| = 1
        with pytest.raises(NormNotTwoSided) as info:
            extremal_eigenspaces(np.diag([1.0, -1.0 + 1.5 * tau]))
        assert info.value.near
        assert info.value.norm == 1.0
        with pytest.raises(NormNotTwoSided) as info:
            extremal_eigenspaces(np.diag([1.0, -0.5]))
        assert not info.value.near
        assert info.value.norm == 1.0

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

    def test_one_sided_builds_no_frames(self, monkeypatch):
        calls = []
        real = minimality.cluster_eigenvalues

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(minimality, "cluster_eigenvalues", counting)
        cases = [
            (m_block(1.0, 2.0), block_basis(), NOT_MINIMAL),
            (np.diag([1.0, 0.5, 0.0]), build_diagonal(3), NOT_MINIMAL),
            (np.diag([1.0, -1.0 + 1.5e-8, 0.2]), build_diagonal(3), UNDECIDED),
        ]
        for a, basis, verdict in cases:
            report = check_minimal(a, basis)
            assert (report.verdict, report.reason) == (verdict, REASON_NORM)
        assert calls == []
        # a two-sided spectrum is clustered once
        assert check_minimal(M1, build_diagonal(3)).verdict == MINIMAL
        assert calls == [1]

    def test_minimal_one_eigensolve(self, monkeypatch):
        basis = build_diagonal(3)
        counts = {"eig_hermitian": 0, "abs_hermitian": 0, "_as_hermitian_stack": 0}
        for name in counts:
            real = getattr(hermitian, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            for mod in (hermitian, minimality):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counting)
        report = check_minimal(constructed_minimal_3x3(2001), basis)
        assert report.verdict == MINIMAL
        # one n x n eigensolve for the verdict; the certificate's |X| comes
        # from the witness blocks
        assert counts["eig_hermitian"] == 1
        assert counts["abs_hermitian"] == 0
        # A is validated once, inside eig_hermitian; the certificate takes
        # the validated matrix from the decomposition
        assert counts["_as_hermitian_stack"] == 1

    def test_unitary_covariance(self):
        # ||U A U* + U B U*|| = ||A + B||, so A is minimal for the diagonals
        # iff U A U* is minimal for the rotated basis U B_k U*
        basis = build_diagonal(3)
        for seed, a in enumerate(grid_agreement_suite()):
            rng = np.random.default_rng(500 + seed)
            u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            rotated = SubalgebraBasis(elements=u @ basis.elements @ u.conj().T)
            ua = u @ a @ u.conj().T
            report = check_minimal(ua, rotated)
            assert report.verdict == check_minimal(a, basis).verdict
            assert report.verdict != UNDECIDED
            if report.verdict == MINIMAL:
                assert validate_certificate(ua, report.certificate.x, rotated, 1e-6)

    def test_size_refused_before_validation(self, monkeypatch):
        # the size is compared before the eigensolve validates A
        calls = []
        real = hermitian._as_hermitian_stack

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hermitian, "_as_hermitian_stack", counting)
        a = rand_hermitian(np.random.default_rng(64), 8)
        text = r"matrix of shape \(8, 8\) does not match basis n = 3"
        with pytest.raises(ValueError, match=text):
            check_minimal(a, build_diagonal(3))
        assert calls == []

    def test_basis_size_must_match(self):
        # one-sided: no moment test runs to notice the size
        with pytest.raises(ValueError, match="does not match"):
            check_minimal(np.diag([1.0, 0.5, 0.0]), build_diagonal(4))
        with pytest.raises(ValueError, match="does not match"):
            check_minimal(M1, build_pauli_diagonal(2))

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("a, verdict", [(M1, MINIMAL), (np.diag([1.0, -1.0]), NOT_MINIMAL)],
                             ids=["M1", "diag"])
    def test_scale_covariant(self, a, verdict, c):
        # A is minimal iff cA is: the cluster tolerance is relative to ||A||,
        # so a small norm splits its spectrum as a unit one does
        basis = build_diagonal(a.shape[0])
        report = check_minimal(c * a, basis)
        assert report.verdict == verdict
        assert report.norm == pytest.approx(c, rel=1e-12)
        if verdict == MINIMAL:
            assert validate_certificate(c * a, report.certificate.x, basis, 1e-6)

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
        spaces = ExtremalSpaces(norm=1.0, plus=plus, minus=minus)
        cert = build_certificate(
            eig_hermitian(M1), spaces, np.diag([1.0, 0.0]), np.eye(1), build_diagonal(3)
        )
        assert np.allclose(cert.x, X_SWAP, atol=1e-12)
        # direct multiplication: M1 X = diag(1, 1, 0) = |X|
        assert np.allclose(M1 @ cert.x, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
        assert cert.residual_eq <= 1e-12
        assert cert.residual_perp <= 1e-12

    def test_diag_certificate(self):
        dec = eig_hermitian(np.diag([1.0, -1.0]))
        cert = build_certificate(dec, spectral_split(dec), np.eye(1), np.eye(1), build_diagonal(2))
        assert np.allclose(cert.x, np.diag([1.0, -1.0]), atol=1e-12)

    def test_trace_norm_two(self):
        basis = build_diagonal(3)
        report = check_minimal(M1, basis)
        w = np.linalg.eigvalsh(report.certificate.x)
        assert np.sum(np.abs(w)) == pytest.approx(2.0, abs=1e-9)


class TestPublicFields:
    """The verdict types hold only what a caller reads."""

    def test_dataclass_fields(self):
        for cls, kept in ((ExtremalSpaces, ("norm", "plus", "minus")),
                          (Certificate, ("x", "residual_eq", "residual_perp"))):
            assert tuple(f.name for f in dataclasses.fields(cls)) == kept

    def test_certificate_basis_required(self):
        param = inspect.signature(build_certificate).parameters["basis"]
        assert param.default is inspect.Parameter.empty


class TestFactoredResidual:
    def test_matches_dense_on_minimal_inputs(self):
        diag3 = build_diagonal(3)
        cases = [(a, diag3) for a in grid_agreement_suite()]
        cases += [(m_block(lam, mu), block_basis()) for lam, mu in ((1.0, 0.5), (1.0, -0.5), (2.0, 0.0))]
        cases += [(swap(32), build_diagonal(32)), (swap(32), build_pauli_diagonal(5))]
        checked = 0
        for a, basis in cases:
            report = check_minimal(a, basis)
            if report.verdict != MINIMAL:
                continue
            x = report.certificate.x
            dense = np.linalg.norm(as_hermitian(a) @ x - report.norm * abs_hermitian(x))
            assert abs(report.certificate.residual_eq - dense) <= 1e-14 * max(1.0, report.norm)
            checked += 1
        assert checked == 10 + 3 + 2

    def test_indefinite_block_gives_dense_value(self):
        dec = eig_hermitian(M1)
        spaces = spectral_split(dec)
        u, _ = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, 1.0]]))
        r_plus = (u * np.array([1.0 + 1e-9, -1e-9])) @ u.conj().T  # trace one, not PSD
        cert = build_certificate(dec, spaces, r_plus, np.eye(1), build_diagonal(3))
        dense = np.linalg.norm(M1 @ cert.x - spaces.norm * abs_hermitian(cert.x))
        assert abs(cert.residual_eq - dense) <= 1e-14
        # A X - |X| = Q+ (R+ - |R+|) Q+*, of norm twice the negative eigenvalue
        assert cert.residual_eq == pytest.approx(2e-9, rel=1e-4)

    def test_rejects_overlapping_frames(self):
        plus = Subspace(np.array([[1.0], [0.0], [0.0]], dtype=complex))
        minus = Subspace(np.array([[IV], [IV], [0.0]], dtype=complex))
        spaces = ExtremalSpaces(norm=1.0, plus=plus, minus=minus)
        with pytest.raises(NotOrthogonal):
            build_certificate(eig_hermitian(M1), spaces, np.eye(1), np.eye(1), build_diagonal(3))


class TestTrustedFrames:
    def test_spectral_split_frames(self):
        for a, ranks in two_sided_inputs():
            spaces = spectral_split(eig_hermitian(a))
            assert (spaces.minus.r, spaces.plus.r) == ranks
            frames = [spaces.minus.frame, spaces.plus.frame]
            for q in frames:
                assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-12
            assert np.linalg.norm(spaces.plus.frame.conj().T @ spaces.minus.frame) <= 1e-12
            # the same projectors as frames re-orthonormalized by QR and re-phased
            for q in frames:
                ref = _fix_phases(np.linalg.qr(q)[0])
                assert np.linalg.norm(q @ q.conj().T - ref @ ref.conj().T) <= 1e-12


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

    def test_sizes_compared_first(self):
        # an X that is trace-orthogonal to the basis would reach A X
        basis = build_diagonal(3)
        with pytest.raises(ValueError, match=r"matrix of shape \(4, 4\) does not match basis"):
            validate_certificate(np.eye(4), X_SWAP, basis, 1e-6)
        with pytest.raises(ValueError, match=r"certificate of shape \(2, 2\) does not match basis"):
            validate_certificate(M1, np.eye(2), basis, 1e-6)

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_invariant(self, c):
        # A and X scaled independently: each check is relative to ||A|| and
        # ||X||_F, so every (cA, dX) gets the answer of (A, X)
        basis = build_diagonal(3)
        off_equation = X_SWAP + 1e-4 * np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        asymmetric = X_SWAP + 1e-4 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        not_orthogonal = X_SWAP + 1e-4 * np.diag([1.0, 0.0, 0.0])
        for d in SCALES:
            assert validate_certificate(c * M1, d * X_SWAP, basis, 1e-6)
            for bad in (off_equation, asymmetric, not_orthogonal):
                assert not validate_certificate(c * M1, d * bad, basis, 1e-6)
        assert not validate_certificate(c * M1, np.zeros((3, 3)), basis, 1e-6)


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

    def test_rejects_frames_of_different_sizes(self):
        v = Subspace(np.array([[1.0], [0.0], [0.0], [0.0]], dtype=complex))
        w = Subspace(np.array([[0.0], [1.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError, match="V has 4 rows, W has 3"):
            is_support_pair(v, w, build_diagonal(4))

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
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam must be positive and finite"):
                construct_minimal(v, w, lam, None, block_basis())
        with pytest.raises(PerturbationTooLarge):
            construct_minimal(v, w, 1.0, 2.0 * rest, block_basis())
        with pytest.raises(PerturbationOverlapsSupport):
            construct_minimal(v, w, 1.0, 0.5 * p, block_basis())

    def test_sizes_compared_first(self):
        v3 = Subspace(np.array([[IV], [IV], [0.0]], dtype=complex))
        w3 = Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))
        v4 = Subspace(np.array([[1.0], [0.0], [0.0], [0.0]], dtype=complex))
        with pytest.raises(ValueError, match="V has 4 rows, W has 3"):
            construct_minimal(v4, w3, 1.0, np.zeros((4, 4)), build_diagonal(4))
        for rest in (np.zeros((2, 2)), np.zeros((4, 4)), np.zeros(3)):
            text = f"R has shape {rest.shape}, but V and W have 3 rows"
            with pytest.raises(ValueError, match=re.escape(text)):
                construct_minimal(v3, w3, 1.0, rest, build_diagonal(3))

    @pytest.mark.parametrize("c", SCALES)
    def test_scale_covariant(self, c):
        # (c lam, c R) builds c times the matrix of (lam, R), and both
        # refusals are relative to lam: ||R|| = 1.5 lam is too large at
        # lam = 1e-12 as at lam = 1
        v = Subspace(np.array([[IV], [IV], [0.0]], dtype=complex))
        w = Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))
        basis = build_diagonal(3)
        e3 = np.diag([0.0, 0.0, 1.0])
        assert np.allclose(construct_minimal(v, w, c, c * e3, basis) / c, M1, rtol=0, atol=1e-15)
        ref = construct_minimal(v, w, 1.0, 0.5 * e3, basis)
        m = construct_minimal(v, w, c, 0.5 * c * e3, basis)
        assert np.allclose(m / c, ref, rtol=0, atol=1e-15)
        with pytest.raises(PerturbationTooLarge):
            construct_minimal(v, w, c, 1.5 * c * e3, basis)
        with pytest.raises(PerturbationOverlapsSupport):
            construct_minimal(v, w, c, 0.5 * c * (v.frame @ v.frame.conj().T), basis)

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
