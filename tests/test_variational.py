import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bminimal import hermitian, variational
from bminimal.algebra import (
    SubalgebraBasis,
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    orthonormalize,
)
from bminimal.errors import NonUnitalBasis, ZeroMatrix
from bminimal.hermitian import EigenDecomposition, eig_hermitian
from bminimal.minimality import (
    MINIMAL,
    NOT_MINIMAL,
    UNDECIDED,
    check_minimal,
    default_cluster_tol,
)
from bminimal.moment import FWConfig, support_function
from bminimal.variational import (
    AffineFamily,
    SolverConfig,
    best_approximation,
    directional_derivative,
    is_minimal_variational,
    subdiff_lambda_max,
    subdiff_lambda_min,
    subdiff_norm,
)
from oracles import grid_min_diag_norm, interval_problems, rand_hermitian
from suites import SCALES, grid_agreement_suite, random_one_sided_3x3

M1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def fam_x():
    return AffineFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), build_diagonal(2))


def lam_max(fam, x):
    return float(eig_hermitian(fam.evaluate(x)).eigenvalues[-1])


def certified(fam, result, upper=None):
    """What ``converged`` promises: the interval [lower, dist] holds the
    distance by the numpy-only ``interval_problems`` and is at most
    FWConfig().dist_tol ||A0|| wide, or the distance itself is zero relative
    to A0."""
    scale = float(np.max(np.abs(np.linalg.eigvalsh(fam.a0))))
    return interval_problems(fam.a0, fam.basis.elements, result, upper) is None and (
        result.dist <= default_cluster_tol(scale)
        or result.dist - result.lower <= FWConfig().dist_tol * scale)


def newton_step_peak(fam):
    """The tracemalloc peak of one Newton step at x = 0 with tau = 1.5 ||A0||,
    measured on a second call, after the first has run numpy's setup."""
    n = fam.basis.n
    lam, vectors = np.linalg.eigh(fam.a0)
    dec = EigenDecomposition(lam, vectors, fam.a0)
    scale, tau = float(np.max(np.abs(lam))), 1.5
    etas = np.full(2, 2 * n / tau)
    variational._newton(fam, dec, tau, etas, scale)
    tracemalloc.start()
    try:
        at = variational._newton(fam, dec, tau, etas, scale)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at is not None and 0.0 < at[0] <= 1.0
    return peak


class TestTwoSidedBoundary:
    def test_one_rule_on_every_route(self):
        # [[d/2, 1], [1, d/2]] has eigenvalues d/2 +- 1: the deficit
        # |lam_max + lam_min| is d, and the extreme eigenvectors (1, +-1)/sqrt(2)
        # share the moment (1/2, 1/2) against the diagonals
        basis = build_diagonal(2)
        tau = default_cluster_tol(1.0)
        expected = [(0.5, MINIMAL, "norm_both"),
                    (1.5, UNDECIDED, "norm_max_side"),
                    (2.5, NOT_MINIMAL, "norm_max_side")]
        for factor, verdict, kind in expected:
            d = factor * tau
            a = np.array([[d / 2, 1.0], [1.0, d / 2]])
            fam = AffineFamily(a, basis)
            x = np.zeros(2)
            assert default_cluster_tol(eig_hermitian(a).norm) == pytest.approx(tau, rel=1e-7)
            assert check_minimal(a, basis).verdict == verdict
            assert is_minimal_variational(fam, x).verdict == verdict
            assert subdiff_norm(fam, x).kind == kind


class TestEvaluate:
    def test_at_zero(self):
        fam = fam_x()
        assert np.allclose(fam.evaluate([0.0, 0.0]), fam.a0, atol=0)

    def test_diagonal_shift(self):
        out = fam_x().evaluate([2.0, -1.0])
        assert np.allclose(out, [[2.0, 1.0], [1.0, -1.0]], atol=0)

    def test_linear_in_x(self):
        fam = AffineFamily(rand_hermitian(np.random.default_rng(50), 4),
                           build_pauli_diagonal(2))
        x = np.array([0.3, -0.2, 0.1, 0.4])
        y = np.array([-0.6, 0.5, 0.2, -0.1])
        lhs = fam.evaluate(x + y) + fam.a0
        rhs = fam.evaluate(x) + fam.evaluate(y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fam_x().evaluate([1.0, 2.0, 3.0])


class TestNonFiniteVectors:
    """A NaN or infinite x, x0 or w is refused where it enters, by name,
    before any arithmetic can warn."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refused(self, value):
        fam = AffineFamily(M1, build_diagonal(3))
        bad = np.array([0.0, value, 0.0])
        for call in (fam.evaluate, lambda x: best_approximation(fam, x),
                     lambda x: directional_derivative(fam, x, np.ones(3)),
                     lambda x: subdiff_norm(fam, x)):
            with pytest.raises(ValueError, match=f"^x must be finite: entry 1 is {value}$"):
                call(bad)
        with pytest.raises(ValueError, match=f"^direction w must be finite: entry 1 is {value}$"):
            directional_derivative(fam, np.zeros(3), bad)
        with pytest.raises(ValueError, match="direction w must be finite"):
            support_function(subdiff_lambda_max(fam, np.zeros(3)).moment_max, bad)


class TestHugeVectors:
    """Finite x, x0 or w near the float range give a result, or one
    ValueError naming the vector when A(x) or sum_k w_k M_k overflows; no
    numpy warning (a warning fails the run)."""

    def test_best_approximation_from_huge_start(self):
        fam = AffineFamily(M1, build_diagonal(3))
        cfg = SolverConfig(max_iter=5)
        res = best_approximation(fam, [1e308, 1e308, 0.0], cfg)
        ref = best_approximation(fam, np.zeros(3), cfg)
        assert res.converged and res.dist == ref.dist

    def test_directional_derivative_at_huge_point(self):
        # A(x) = diag(1e308, -1e308, 0) + M1 has the top eigenvector e1
        fam = AffineFamily(M1, build_diagonal(3))
        assert directional_derivative(fam, [1e308, -1e308, 0.0], [1.0, 0.0, 0.0]) == 1.0

    def test_directional_derivative_along_huge_direction(self):
        # the top eigenspace of M1 is span{e1 + e2, e3}: w's first two
        # entries cancel there, and the support is w_3
        fam = AffineFamily(M1, build_diagonal(3))
        value = directional_derivative(fam, np.zeros(3), [1e308, -1e308, 1e308])
        assert value == pytest.approx(1e308, rel=1e-15)

    def test_overflowing_point_names_x(self):
        fam = AffineFamily(1e308 * np.eye(2), build_diagonal(2))
        for call in (fam.evaluate, lambda x: best_approximation(fam, x),
                     lambda x: directional_derivative(fam, x, np.ones(2))):
            with pytest.raises(ValueError, match="^x is too large"):
                call([1e308, 0.0])

    def test_overflowing_direction_names_w(self):
        # sum_k w_k M_k = diag(w_1 + w_2, w_1 - w_2) / sqrt(2) on C^2
        fam = AffineFamily(np.zeros((2, 2)), build_pauli_diagonal(1))
        with pytest.raises(ValueError, match="^direction w is too large"):
            directional_derivative(fam, np.zeros(2), [1.5e308, 1.5e308])


class TestSubdiffLambdaMax:
    def test_smooth_singleton_gradient(self):
        fam = AffineFamily(np.diag([2.0, 1.0]), build_diagonal(2))
        view = subdiff_lambda_max(fam, [0.0, 0.0])
        assert view.support([1.0, 0.0]) == pytest.approx(1.0)
        assert view.support([0.0, 1.0]) == pytest.approx(0.0)

    def test_identity_full_simplex(self):
        fam = AffineFamily(np.eye(2), build_diagonal(2))
        view = subdiff_lambda_max(fam, [0.0, 0.0])
        assert view.support([3.0, -1.0]) == pytest.approx(3.0)  # max(w1, w2)

    def test_zero_matrix_full_simplex(self):
        # A(x) = 0: the cluster tolerance stays positive at norm 0, so the
        # whole spectrum is the top cluster and the moment is the simplex
        fam = AffineFamily(np.zeros((3, 3)), build_diagonal(3))
        view = subdiff_lambda_max(fam, np.zeros(3))
        assert view.support([1.0, 0.0, -2.0]) == pytest.approx(1.0)
        assert view.support([-1.0, -3.0, -2.0]) == pytest.approx(-1.0)

    def test_offdiagonal_singleton(self):
        view = subdiff_lambda_max(fam_x(), [0.0, 0.0])
        # eigenvector (1,1)/sqrt(2): gradient (1/2, 1/2)
        assert view.support([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert view.support([-1.0, 0.0]) == pytest.approx(-0.5, abs=1e-12)


class TestSubdiffLambdaMin:
    def test_smooth_gradient(self):
        fam = AffineFamily(np.diag([2.0, 1.0]), build_diagonal(2))
        view = subdiff_lambda_min(fam, [0.0, 0.0])
        # gradient of the bottom eigenvalue is (0, 1)
        assert view.support([0.0, 1.0]) == pytest.approx(1.0)
        assert view.support([1.0, 0.0]) == pytest.approx(0.0)

    def test_offdiagonal_moment(self):
        view = subdiff_lambda_min(fam_x(), [0.0, 0.0])
        # eigenvector (1,-1)/sqrt(2): stored moment is {(1/2, 1/2)}
        pt = view.moment_min
        assert support_function(pt, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_singleton_when_simple(self):
        rng = np.random.default_rng(51)
        fam = AffineFamily(rand_hermitian(rng, 3), build_diagonal(3))
        view = subdiff_lambda_min(fam, rng.standard_normal(3))
        assert view.moment_min.subspace.r == 1


class TestDirectionalDerivative:
    def test_half_by_finite_differences(self):
        # lambda_max([[t, 1], [1, 0]]) = t/2 + sqrt(1 + t^2/4): slope 1/2 at 0
        value = directional_derivative(fam_x(), [0.0, 0.0], [1.0, 0.0])
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_zero_direction(self):
        assert directional_derivative(fam_x(), [0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_smooth_point_inner_product(self):
        rng = np.random.default_rng(52)
        fam = AffineFamily(np.diag([3.0, 1.0, -1.0]), build_diagonal(3))
        w = rng.standard_normal(3)
        assert directional_derivative(fam, np.zeros(3), w) == pytest.approx(w[0])

    def test_matches_support_function(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            fam = AffineFamily(rand_hermitian(rng, 4), build_pauli_diagonal(2))
            x = rng.standard_normal(4)
            w = rng.standard_normal(4)
            view = subdiff_lambda_max(fam, x)
            dd = directional_derivative(fam, x, w)
            assert abs(dd - support_function(view.moment_max, w)) <= 1e-9

    def test_central_finite_differences(self):
        rng = np.random.default_rng(54)
        h = 1e-6
        done = 0
        while done < 10:
            fam = AffineFamily(rand_hermitian(rng, 4), build_pauli_diagonal(2))
            x = rng.standard_normal(4)
            w = rng.standard_normal(4)
            evals = eig_hermitian(fam.evaluate(x)).eigenvalues
            if evals[-1] - evals[-2] < 1e-3:
                continue  # only smooth points admit a two-sided derivative
            fd = (lam_max(fam, x + h * w) - lam_max(fam, x - h * w)) / (2 * h)
            assert abs(fd - directional_derivative(fam, x, w)) <= 1e-5
            done += 1

    def test_convexity_of_lambda_max(self):
        rng = np.random.default_rng(55)
        fam = AffineFamily(rand_hermitian(rng, 4), build_pauli_diagonal(2))
        for _ in range(10):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            mid = lam_max(fam, (x + y) / 2)
            assert mid <= (lam_max(fam, x) + lam_max(fam, y)) / 2 + 1e-10

    def test_one_sided_upper_bound(self):
        rng = np.random.default_rng(56)
        done = 0
        while done < 5:
            fam = AffineFamily(rand_hermitian(rng, 4), build_pauli_diagonal(2))
            x = rng.standard_normal(4)
            w = rng.standard_normal(4)
            evals = eig_hermitian(fam.evaluate(x)).eigenvalues
            gap = evals[-1] - evals[-2]
            if gap < 1e-2:
                continue
            direction = np.einsum("k,kij->ij", w, fam.basis.elements)
            bound_c = 10.0 * eig_hermitian(direction).norm ** 2 / gap
            dd = directional_derivative(fam, x, w)
            for t in (1e-3, 1e-4):
                lhs = lam_max(fam, x + t * w)
                assert lhs <= lam_max(fam, x) + t * dd + bound_c * t * t
            done += 1


class TestSubdiffNorm:
    def test_max_side(self):
        fam = AffineFamily(np.diag([2.0, -1.0]), build_diagonal(2))
        view = subdiff_norm(fam, [0.0, 0.0])
        assert view.kind == "norm_max_side"
        assert view.support([1.0, 0.0]) == pytest.approx(1.0)

    def test_min_side(self):
        fam = AffineFamily(np.diag([-2.0, 1.0]), build_diagonal(2))
        view = subdiff_norm(fam, [0.0, 0.0])
        assert view.kind == "norm_min_side"
        # d||A|| = -moment of the bottom eigenspace = {(-1, 0)}
        assert view.support([1.0, 0.0]) == pytest.approx(-1.0)
        assert view.support([-1.0, 0.0]) == pytest.approx(1.0)

    def test_both_sides(self):
        fam = AffineFamily(M1, build_diagonal(3))
        view = subdiff_norm(fam, np.zeros(3))
        assert view.kind == "norm_both"
        # hull support is the max of the two one-sided supports
        w = np.array([1.0, -1.0, 0.5])
        expected = max(
            support_function(view.moment_max, w),
            support_function(view.moment_min, -w),
        )
        assert view.support(w) == pytest.approx(expected, abs=0)

    def test_zero_matrix(self):
        fam = AffineFamily(np.zeros((2, 2)), build_diagonal(2))
        with pytest.raises(ZeroMatrix):
            subdiff_norm(fam, [0.0, 0.0])


class TestIsMinimalVariational:
    def test_m1(self):
        fam = AffineFamily(M1, build_diagonal(3))
        assert is_minimal_variational(fam, np.zeros(3)).verdict == MINIMAL

    def test_offdiagonal(self):
        assert is_minimal_variational(fam_x(), [0.0, 0.0]).verdict == MINIMAL

    def test_element_of_algebra(self):
        fam = AffineFamily(np.diag([1.0, -1.0]), build_diagonal(2))
        assert is_minimal_variational(fam, [0.0, 0.0]).verdict == NOT_MINIMAL

    def test_requires_unital(self):
        e1 = np.zeros((2, 2))
        e1[0, 0] = 1.0
        fam = AffineFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), orthonormalize([e1]))
        with pytest.raises(NonUnitalBasis):
            is_minimal_variational(fam, [0.0])

    def test_route_agreement_seeded(self):
        basis = build_diagonal(3)
        for a in grid_agreement_suite()[:8]:
            fam = AffineFamily(a, basis)
            assert (
                is_minimal_variational(fam, np.zeros(3)).verdict
                == check_minimal(a, basis).verdict
            )


class TestBestApproximation:
    def test_offdiagonal_target(self):
        result = best_approximation(fam_x(), np.array([1.0, -1.0]))
        assert abs(result.dist - 1.0) <= 0.02
        assert np.linalg.norm(result.x_star) <= 0.05
        assert result.converged
        assert certified(fam_x(), result)

    def test_tied_start_goes_to_x0(self):
        # B = span{diag(1, 1, 0), diag(0, 0, 1)} and A0 = diag(1, -1, 0), whose
        # projection onto B is 0: A(x0) = diag(1, -1, 0.5) and A(0) are
        # diagonal with norm exactly 1, the distance, so both starts are
        # optimal, and the first of them, the nonzero x0, is the answer
        basis = orthonormalize([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
        x0 = np.array([0.0, 0.5])
        result = best_approximation(AffineFamily(np.diag([1.0, -1.0, 0.0]), basis), x0)
        assert result.converged and result.dist == 1.0 and len(result.trace) == 1
        assert np.array_equal(result.x_star, x0)

    def test_member_of_algebra(self):
        fam = AffineFamily(np.diag([1.0, 2.0]), build_diagonal(2))
        result = best_approximation(fam, np.zeros(2))
        assert result.dist <= 1e-6
        assert result.converged
        assert certified(fam, result)

    def test_m1_distance_is_norm(self):
        fam = AffineFamily(M1, build_diagonal(3))
        result = best_approximation(fam, np.zeros(3))
        assert result.dist == pytest.approx(1.0, abs=1e-9)
        assert result.converged
        assert certified(fam, result)

    @pytest.mark.parametrize("c", SCALES)
    @pytest.mark.parametrize("a0", [np.ones((3, 3)) - np.eye(3), M1, random_one_sided_3x3(1000)],
                             ids=["J3-I3", "M1", "one-sided"])
    def test_scale_covariant(self, a0, c):
        # the barrier path runs in units of ||A0||, and A(x) = 0 is judged
        # against ||A0||, so c A0 follows the path of A0 scaled by c
        basis = build_diagonal(3)
        cfg = SolverConfig(max_iter=25)
        ref = best_approximation(AffineFamily(a0, basis), np.zeros(3), cfg)
        res = best_approximation(AffineFamily(c * a0, basis), np.zeros(3), cfg)
        assert res.converged == ref.converged
        assert res.dist / c == pytest.approx(ref.dist, rel=1e-9)
        assert res.lower / c == pytest.approx(ref.lower, rel=1e-9)

    def test_one_decomposition_per_point(self, monkeypatch):
        real = hermitian._eig
        calls = []

        def counting(a):
            calls.append(1)
            return real(a)

        # hermitian's own name is the one eig_hermitian calls
        for mod in (hermitian, variational):
            monkeypatch.setattr(mod, "_eig", counting)
        real_stack = hermitian._as_hermitian_stack
        passes = []

        def counting_stack(*args, **kwargs):
            passes.append(1)
            return real_stack(*args, **kwargs)

        monkeypatch.setattr(hermitian, "_as_hermitian_stack", counting_stack)
        real_evaluate = AffineFamily.evaluate
        evaluations = []

        def counting_evaluate(self, x):
            evaluations.append(1)
            return real_evaluate(self, x)

        monkeypatch.setattr(AffineFamily, "evaluate", counting_evaluate)
        fam = AffineFamily(rand_hermitian(np.random.default_rng(3), 4), build_diagonal(4))
        # A0 is validated once, by AffineFamily; no point of the run is
        assert len(passes) == 1
        # 10 steps: this input converges in 14
        result = best_approximation(fam, np.zeros(4), SolverConfig(max_iter=10))
        assert not result.converged and len(result.trace) == 11
        assert len(passes) == 1
        # two start candidates (x0 = 0 is the unperturbed point), then one
        # point per step (no step of this run is halved); the Newton step and
        # the lower bound reuse each point's decomposition
        assert len(calls) == 2 + 10
        assert len(evaluations) == 2 + 10

    @pytest.mark.parametrize("n, seed", [(3, s) for s in range(40, 45)]
                             + [(4, s) for s in range(42, 46)] + [(5, 42), (6, 42), (8, 42)])
    def test_certified_within_default_budget(self, n, seed):
        # the gap-driven barrier path settles these random diag inputs in 9-16
        # of the 2,000 steps; a fixed 8-fold weight schedule took 13-22
        fam = AffineFamily(rand_hermitian(np.random.default_rng(seed), n), build_diagonal(n))
        result = best_approximation(fam, np.zeros(n))
        assert result.converged and len(result.trace) - 1 <= 20
        assert certified(fam, result)

    def test_median_steps_on_seeded_census(self):
        # random diag inputs at n = 3-6, seeds 40-44: the weight set from the
        # certified gap takes a median of 13 steps (at most 15); a fixed
        # 8-fold weight schedule took a median of 18
        steps = []
        for n in range(3, 7):
            for seed in range(40, 45):
                a0 = rand_hermitian(np.random.default_rng(seed), n)
                result = best_approximation(AffineFamily(a0, build_diagonal(n)), np.zeros(n))
                assert result.converged
                steps.append(len(result.trace) - 1)
        assert np.median(steps) <= 15

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_certified_under_pauli_within_default_budget(self, seed):
        # pauli:3 spans the diagonal algebra of C^8 in another basis; 16-19 steps
        fam = AffineFamily(rand_hermitian(np.random.default_rng(seed), 8), build_pauli_diagonal(3))
        result = best_approximation(fam, np.zeros(8))
        assert result.converged and len(result.trace) - 1 <= 22
        assert certified(fam, result)

    @pytest.mark.parametrize("seed", range(40, 50))
    def test_tight_width_on_block_algebra(self, seed):
        # at 1e-12 ||A0|| the barrier Hessian is singular to rounding near the
        # end (condition ~1e21 on seed 42); solved by SVD, every run converges,
        # in 25-27 steps
        basis = build_block([(2, "diagonal"), (2, "full")])
        a0 = rand_hermitian(np.random.default_rng(seed), 4)
        result = best_approximation(AffineFamily(a0, basis), np.zeros(basis.dim),
                                    SolverConfig(fw=FWConfig(dist_tol=1e-12)))
        assert result.converged and len(result.trace) - 1 <= 30
        assert interval_problems(a0, basis.elements, result) is None

    @pytest.mark.parametrize("n, seed, tol", [(6, 47, 1e-13), (5, 109, 1e-15)])
    def test_narrow_width_witness(self, n, seed, tol):
        # at these widths tau - ||A(x)|| is near rounding, where (tau I -+
        # A(x))^-1 cannot be formed again from the point: the dual point itself
        # is the witness, and projected off B it gives lower by one trace
        a0 = rand_hermitian(np.random.default_rng(seed), n)
        basis = build_diagonal(n)
        result = best_approximation(AffineFamily(a0, basis), np.zeros(n),
                                    SolverConfig(fw=FWConfig(dist_tol=tol)))
        assert result.converged and result.dual.shape == (n, n)
        assert interval_problems(a0, basis.elements, result) is None
        # the oracle holds lower to its witness: a lower end raised by 1e-9,
        # one without its dual point, or a dual point that lies in B (whose
        # projection is 0) is refused
        for wrong in ({"lower": result.lower * (1 + 1e-9)}, {"dual": None},
                      {"dual": np.eye(n, dtype=complex)}):
            assert interval_problems(a0, basis.elements, replace(result, **wrong)) is not None

    @pytest.mark.parametrize("factor, halvings", [(16.0, 4), (1e6, 5)])
    def test_step_halved_back_into_domain(self, monkeypatch, factor, halvings):
        # the tenth step made `factor` times too long leaves the domain: 16
        # times is halved back to the step itself, so the run is the untouched
        # one; 1e6 times is still outside after four halvings and ends the run,
        # whose best point and interval stay sound
        assert variational._HALVINGS == 4
        fam = AffineFamily(rand_hermitian(np.random.default_rng(3), 4), build_diagonal(4))
        plain = best_approximation(fam, np.zeros(4))
        real_newton, real_eig = variational._newton, variational._eig
        newtons, eigs = [], []

        def stretched(*args):
            at = real_newton(*args)
            newtons.append(1)
            return (*at[:2], factor * at[2], at[3]) if len(newtons) == 10 else at

        def counting(a):
            eigs.append(1)
            return real_eig(a)

        monkeypatch.setattr(variational, "_newton", stretched)
        monkeypatch.setattr(variational, "_eig", counting)
        result = best_approximation(fam, np.zeros(4))
        steps = len(result.trace) - 1
        assert len(eigs) == 2 + steps + halvings
        assert interval_problems(fam.a0, fam.basis.elements, result) is None
        if factor == 16.0:
            assert result.converged and np.array_equal(result.trace, plain.trace)
            assert result.lower == plain.lower and result.dist == plain.dist
        else:
            assert not result.converged and steps == 9

    def test_newton_step_within_sixteen_matrices(self, monkeypatch):
        # the Newton system is read off P+- = (tau I -+ A(x))^-1 through
        # combine and coords, one basis element at a time, so a step peaks at
        # about 8 n x n matrices whatever t is (t = 64 here), and compresses
        # no frame
        def refused(*args):
            raise AssertionError("a Newton step compressed a frame")

        monkeypatch.setattr(SubalgebraBasis, "compress_to", refused)
        fam = AffineFamily(rand_hermitian(np.random.default_rng(1), 64), build_pauli_diagonal(6))
        assert newton_step_peak(fam) <= 16 * 64 * 64 * np.dtype(complex).itemsize

    def test_dense_custom_support(self):
        # I and three dense Hermitian matrices at n = 16: t = 4, but every one
        # of the n^2 entries is in the support, so a Newton system formed on
        # the support would be n^2 x n^2; from P+- it stays 16 n x n matrices.
        # 13 steps
        rng = np.random.default_rng(0)
        basis = orthonormalize([np.eye(16)] + [rand_hermitian(rng, 16) for _ in range(3)])
        assert basis.dim == 4 and basis.support[0].size == 16 * 16
        fam = AffineFamily(rand_hermitian(rng, 16), basis)
        result = best_approximation(fam, np.zeros(4))
        assert result.converged and len(result.trace) - 1 <= 16
        assert certified(fam, result)
        assert newton_step_peak(fam) <= 16 * 16 * 16 * np.dtype(complex).itemsize

    def test_svd_failure_ends_the_run(self, monkeypatch):
        # an SVD that fails on the tenth Newton system ends the run at that
        # point, unconverged (the input converges in 14 steps), with the best
        # point and the interval of the nine steps before it
        fam = AffineFamily(rand_hermitian(np.random.default_rng(3), 4), build_diagonal(4))
        plain = best_approximation(fam, np.zeros(4))
        real, calls = np.linalg.lstsq, []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 10:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", failing)
        result = best_approximation(fam, np.zeros(4))
        assert not result.converged and len(calls) == 10
        assert np.array_equal(result.trace, plain.trace[:10])
        assert result.dist == result.trace.min()
        assert result.dist == pytest.approx(np.linalg.norm(fam.evaluate(result.x_star), 2), rel=1e-14)
        assert 0.0 < result.lower <= result.dist
        assert interval_problems(fam.a0, fam.basis.elements, result) is None

    def test_non_unital_span_at_its_optimum(self):
        # span{E11} in M2: ||diag(1 + x, -0.5)|| is least, 0.5, for |1 + x| <=
        # 0.5, and the projection of A0 (x = -1) starts there
        fam = AffineFamily(np.diag([1.0, -0.5]), orthonormalize([np.diag([1.0, 0.0])]))
        result = best_approximation(fam, np.zeros(1))
        assert result.converged and len(result.trace) == 1
        assert result.dist == 0.5 and result.lower == pytest.approx(0.5, rel=1e-6)
        assert certified(fam, result)

    def test_non_unital_span_certified(self):
        # span{E11, E22} in M3, which holds no identity: the interval needs
        # no unital verdict; 12 steps
        g = np.random.default_rng(7).standard_normal((3, 3))
        basis = orthonormalize([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])
        fam = AffineFamily((g + g.T) / 2, basis)
        result = best_approximation(fam, np.zeros(2))
        assert result.converged and len(result.trace) - 1 <= 16
        assert certified(fam, result)
        assert 0.5330014 <= result.lower <= result.dist <= 0.5330022

    def test_interval_on_grid_suite(self):
        # from x0 = 0 a minimal A gets a lower end within tol ||A|| of ||A||,
        # and a one-sided one an upper end below it: the interval agrees with
        # check_minimal, and holds the grid optimum of the one-sided ones
        basis = build_diagonal(3)
        tol = FWConfig().dist_tol
        for a in grid_agreement_suite():
            fam = AffineFamily(a, basis)
            result = best_approximation(fam, np.zeros(3))
            norm = float(np.max(np.abs(np.linalg.eigvalsh(a))))
            minimal = check_minimal(a, basis).verdict == MINIMAL
            assert certified(fam, result, upper=norm if minimal else grid_min_diag_norm(a))
            assert result.converged
            if minimal:
                assert result.lower >= norm * (1.0 - tol)
            else:
                assert result.dist < norm * (1.0 - tol)

    def test_never_below_grid_optimum(self):
        basis = build_diagonal(3)
        for seed in (1000, 1001):
            a = random_one_sided_3x3(seed)
            fam = AffineFamily(a, basis)
            result = best_approximation(fam, np.zeros(3))
            grid_min = grid_min_diag_norm(a)
            # the 0.02-step grid overshoots the true optimum by up to one
            # step, which the continuous solver may legitimately beat; the
            # lower end of the interval may not
            assert result.dist >= grid_min - 0.02
            assert result.dist <= grid_min + 0.05
            assert result.lower <= grid_min

    def test_never_worse_than_zero_perturbation(self):
        rng = np.random.default_rng(57)
        basis = build_pauli_diagonal(2)
        for _ in range(5):
            a0 = rand_hermitian(rng, 4)
            fam = AffineFamily(a0, basis)
            result = best_approximation(fam, rng.standard_normal(4) * 3,
                                        SolverConfig(max_iter=20))
            assert result.dist <= eig_hermitian(a0).norm + 1e-12

    def test_trace_monotone_best(self):
        result = best_approximation(fam_x(), np.array([2.0, 2.0]),
                                    SolverConfig(max_iter=50))
        assert result.trace.ndim == 1
        assert result.dist <= min(result.trace) + 1e-12


class TestSolverConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 3.0, True, "3", 0, -1])
    def test_rejects_max_iter_that_is_not_a_count(self, value):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            SolverConfig(max_iter=value)

    def test_accepts_integer_max_iter(self):
        assert SolverConfig(max_iter=1).max_iter == 1
        assert SolverConfig(max_iter=np.int64(7)).max_iter == 7
