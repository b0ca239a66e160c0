import numpy as np
import pytest

from bminimal import hermitian, moment
from bminimal.algebra import (
    build_block,
    build_diagonal,
    build_pauli_diagonal,
    change_of_basis,
    orthonormalize,
)
from bminimal.errors import NormNotTwoSided, Undecided
from bminimal.minimality import extremal_eigenspaces
from bminimal.moment import (
    FWConfig,
    Subspace,
    compress_family,
    decide,
    intersects,
    jnr_support,
    moment_distance,
    moment_of_density,
    sample_extreme,
    support_function,
)
from oracles import (
    bloch_grid,
    coordinates,
    diagonal_stack,
    moment_cloud,
    separation_bound,
    support_problems,
)
from suites import SCALES, grid_agreement_suite, twin_pair

IV = 1 / np.sqrt(2)


def subspace_s3():
    """span{(1,1,0)/sqrt(2), e3} in C^3."""
    return Subspace(np.array([[IV, 0], [IV, 0], [0, 1.0]], dtype=complex))


def subspace_v3():
    """span{(1,-1,0)/sqrt(2)}, the orthogonal complement of S inside C^3."""
    return Subspace(np.array([[IV], [-IV], [0.0]], dtype=complex))


def span(*cols):
    return Subspace.from_span(np.column_stack([np.asarray(c, dtype=complex) for c in cols]))


class TestSubspace:
    def test_validates_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(np.array([[1.0], [1.0]], dtype=complex))

    def test_from_span_orthonormalizes(self):
        s = Subspace.from_span(np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
        assert s.r == 2 and s.n == 3
        assert np.linalg.norm(s.frame.conj().T @ s.frame - np.eye(2)) <= 1e-12

    def test_from_span_rejects_dependent(self):
        with pytest.raises(ValueError, match="dependent"):
            Subspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("c", SCALES)
    def test_from_span_scale_invariant(self, c):
        # the rank is judged against the largest entry: cV spans what V spans
        v = np.array([[2.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        s = Subspace.from_span(c * v)
        assert np.allclose(s.frame, Subspace.from_span(v).frame, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="dependent"):
            Subspace.from_span(c * np.array([[1.0, 2.0], [1.0, 2.0]]))


class TestCompressFamily:
    def test_full_space_identity_frame(self):
        basis = build_diagonal(3)
        fam = compress_family(Subspace(np.eye(3, dtype=complex)), basis)
        assert np.allclose(fam.mats, basis.elements, atol=0)

    def test_single_axis(self):
        fam = compress_family(
            Subspace(np.array([[1.0], [0.0]], dtype=complex)), build_diagonal(2)
        )
        assert np.allclose(fam.mats[0], [[1.0]]) and np.allclose(fam.mats[1], [[0.0]])

    def test_s3_compressions(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        assert np.allclose(fam.mats[0], np.diag([0.5, 0.0]), atol=1e-15)
        assert np.allclose(fam.mats[1], np.diag([0.5, 0.0]), atol=1e-15)
        assert np.allclose(fam.mats[2], np.diag([0.0, 1.0]), atol=1e-15)


class TestMomentOfDensity:
    def test_segment_parameterization(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        for alpha in (0.0, 0.25, 0.5, 1.0):
            point = moment_of_density(fam, np.diag([alpha, 1 - alpha]))
            assert np.allclose(point, [alpha / 2, alpha / 2, 1 - alpha], atol=1e-15)

    def test_maximally_mixed_full_space(self):
        basis = build_diagonal(4)
        fam = compress_family(Subspace(np.eye(4, dtype=complex)), basis)
        assert np.allclose(moment_of_density(fam, np.eye(4) / 4), np.full(4, 0.25))

    def test_accepts_asymmetry_within_input_tol(self):
        # ||R - R*||_F = 2e-13 * sqrt(2) against INPUT_TOL * ||R||_F = 1e-12 / sqrt(2)
        fam = compress_family(subspace_s3(), build_diagonal(3))
        rho = np.array([[0.5, 1e-13], [-1e-13, 0.5]])
        assert np.allclose(moment_of_density(fam, rho), moment_of_density(fam, np.eye(2) / 2),
                           rtol=0, atol=1e-15)

    def test_pauli_segment(self):
        fam = compress_family(
            span([1, 0, 0, 0], [0, 1, 0, 0]), build_pauli_diagonal(2)
        )
        for alpha in (0.0, 0.5, 1.0):
            point = moment_of_density(fam, np.diag([alpha, 1 - alpha]))
            expected = 0.5 * np.array([1.0, 1.0, 2 * alpha - 1, 2 * alpha - 1])
            assert np.allclose(point, expected, atol=1e-15)

    def test_matches_compress_of_lifted_density(self):
        from bminimal.algebra import compress

        rng = np.random.default_rng(40)
        basis = build_pauli_diagonal(2)
        s = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        fam = compress_family(s, basis)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        lifted = s.frame @ rho @ s.frame.conj().T
        assert np.allclose(
            moment_of_density(fam, rho), compress(lifted, basis), atol=1e-12
        )


class TestSampleExtreme:
    def test_rank_one_constant(self):
        fam = compress_family(subspace_v3(), build_diagonal(3))
        points = sample_extreme(fam, 5, seed=3)
        assert np.allclose(points, points[0], atol=0)
        assert np.allclose(points[0], [0.5, 0.5, 0.0], atol=1e-15)

    def test_block_singleton(self):
        basis = build_block([(2, "diagonal"), (2, "full")])
        fam = compress_family(
            Subspace(0.5 * np.ones((4, 1), dtype=complex)), basis
        )
        points = sample_extreme(fam, 4, seed=0)
        expected = [0.25, 0.25, 0.25, 0.25, 1 / (2 * np.sqrt(2)), 0.0]
        for p in points:
            assert np.allclose(p, expected, atol=1e-12)

    def test_deterministic_per_seed(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        assert np.array_equal(sample_extreme(fam, 6, 9), sample_extreme(fam, 6, 9))

    def test_points_inside_own_hull(self):
        rng = np.random.default_rng(41)
        basis = build_pauli_diagonal(2)
        s = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        fam = compress_family(s, basis)
        points = sample_extreme(fam, 25, seed=5)
        for k in range(100):
            w = np.random.default_rng(1000 + k).standard_normal(4)
            h = support_function(fam, w)
            assert np.max(points @ w) <= h + 1e-9


class TestSupportFunction:
    def test_full_space_diagonal(self):
        fam = compress_family(Subspace(np.eye(2, dtype=complex)), build_diagonal(2))
        assert support_function(fam, [3.0, -1.0]) == pytest.approx(3.0)
        assert support_function(fam, [-2.0, -5.0]) == pytest.approx(-2.0)

    def test_attained_at_vertex(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        assert support_function(fam, [0.0, 0.0, 1.0]) == pytest.approx(1.0)

    def test_zero_direction(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        assert support_function(fam, np.zeros(3)) == 0.0


class TestJnrSupport:
    def test_clamps_negative_support(self):
        fam = compress_family(subspace_s3(), build_diagonal(3))
        w = -np.ones(3)
        assert support_function(fam, w) == pytest.approx(-1.0)
        assert jnr_support(fam, w) == 0.0
        # every sampled moment point indeed scores below zero along w
        assert np.max(sample_extreme(fam, 20, 1) @ w) <= 0.0

    def test_positive_side_unchanged(self):
        fam = compress_family(Subspace(np.eye(2, dtype=complex)), build_diagonal(2))
        assert jnr_support(fam, [1.0, 1.0]) == pytest.approx(1.0)


class TestMomentDistance:
    def test_no_operand_rule_on_witnesses(self, monkeypatch):
        # the witnesses are the solve's own: their moments skip the public
        # entry and the operand rules
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("_as_hermitian_stack", "_require_finite", "moment_of_density"):
            monkeypatch.setattr(moment, name, counting(name, getattr(moment, name)))
            if hasattr(hermitian, name):
                monkeypatch.setattr(hermitian, name, counting(name, getattr(hermitian, name)))
        v, w = twin_pair(5)
        s1, s2 = Subspace(v), Subspace(w)
        calls.clear()
        res = moment_distance(s1, s2, build_pauli_diagonal(3))
        assert res.distance <= 1e-9
        assert calls == []

    def test_disjoint_axes(self):
        res = moment_distance(span([1, 0]), span([0, 1]), build_diagonal(2))
        assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert res.gap <= 1e-9

    def test_segment_meets_point(self):
        res = moment_distance(subspace_s3(), subspace_v3(), build_diagonal(3))
        assert res.distance <= 1e-9
        fam = compress_family(subspace_s3(), build_diagonal(3))
        witness_point = moment_of_density(fam, res.witness_plus)
        assert np.allclose(witness_point, [0.5, 0.5, 0.0], atol=1e-9)

    def test_same_subspace(self):
        s = subspace_s3()
        res = moment_distance(s, s, build_diagonal(3))
        assert res.distance <= 1e-12
        assert res.iterations <= FWConfig().max_iter

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        basis = build_diagonal(4)
        a = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        b = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        d_ab = moment_distance(a, b, basis).distance
        d_ba = moment_distance(b, a, basis).distance
        assert abs(d_ab - d_ba) <= 1e-9

    def test_final_no_worse_than_start(self):
        rng = np.random.default_rng(43)
        basis = build_pauli_diagonal(2)
        for _ in range(5):
            a = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
            b = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
            fam_a = compress_family(a, basis)
            fam_b = compress_family(b, basis)
            start = np.linalg.norm(
                moment_of_density(fam_a, np.eye(2) / 2)
                - moment_of_density(fam_b, np.eye(2) / 2)
            )
            res = moment_distance(a, b, basis)
            assert res.distance**2 <= start**2 + 1e-12
            assert res.gap >= -1e-12

    def test_witness_consistency(self):
        rng = np.random.default_rng(44)
        basis = build_diagonal(4)
        a = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        b = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        # a pair that runs to the cap: the moments are updated step by step
        # for 500 iterations before the witnesses are read back.  The face
        # polishes on its rank-8 frames run but do not settle it
        capped_a, capped_b = random_pair(np.random.default_rng(103), n=64, r=8)
        # and a twin pair, whose moments are recomputed at the polished
        # witnesses
        twin_v, twin_w = (Subspace(f) for f in twin_pair(0))
        cases = [
            (a, b, basis, FWConfig(), None),
            (capped_a, capped_b, build_pauli_diagonal(6), FWConfig(max_iter=500), "budget"),
            (twin_v, twin_w, build_pauli_diagonal(3), FWConfig(), "gap_met"),
        ]
        for s1, s2, alg, cfg, stop in cases:
            res = moment_distance(s1, s2, alg, cfg)
            if stop is not None:
                assert res.stop_reason == stop
            fam1, fam2 = compress_family(s1, alg), compress_family(s2, alg)
            pa = moment_of_density(fam1, res.witness_plus)
            pb = moment_of_density(fam2, res.witness_minus)
            assert abs(res.distance**2 - np.linalg.norm(pa - pb) ** 2) <= 1e-12
            # the reported gap is the gap at the witnesses themselves
            d = pa - pb
            lam1 = np.linalg.eigvalsh(np.einsum("k,kij->ij", d, fam1.mats))[0]
            lam2 = np.linalg.eigvalsh(np.einsum("k,kij->ij", -d, fam2.mats))[0]
            assert abs(res.gap - (d @ d - lam1 - lam2)) <= 1e-12

    def test_plain_solve_stops_at_gap_or_budget(self):
        pairs = [
            (span([1, 0]), span([0, 1]), build_diagonal(2)),
            (subspace_s3(), subspace_v3(), build_diagonal(3)),
            (*random_pair(np.random.default_rng(90)), build_pauli_diagonal(3)),
            (*random_pair(np.random.default_rng(91)), build_pauli_diagonal(3)),
            # rank 8 under pauli:6: the face polishes do not settle it, and
            # the solve runs to the cap
            (*random_pair(np.random.default_rng(103), n=64, r=8), build_pauli_diagonal(6)),
        ]
        reasons = set()
        for s1, s2, basis in pairs:
            res = moment_distance(s1, s2, basis, FWConfig(max_iter=300))
            assert res.stop_reason in ("gap_met", "budget")
            assert (res.stop_reason == "gap_met") == (res.gap <= 1e-9)
            reasons.add(res.stop_reason)
        assert reasons == {"gap_met", "budget"}


def random_pair(rng, n=8, r=2):
    """Orthogonal rank-r subspaces of C^n from one seeded draw; under
    pauli:3 the 3-dimensional moments of rank-2 pairs in C^8 miss each
    other almost surely."""
    q, _ = np.linalg.qr(rng.standard_normal((n, 2 * r)) + 1j * rng.standard_normal((n, 2 * r)))
    return Subspace(q[:, :r]), Subspace(q[:, r:])


class TestFWConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["dist_tol", "gap_tol"])
    def test_rejects_non_finite_tolerance(self, name, value):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            FWConfig(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 3.0, True, "3", 0, -1])
    def test_rejects_max_iter_that_is_not_a_count(self, value):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            FWConfig(max_iter=value)

    def test_accepts_integer_max_iter(self):
        assert FWConfig(max_iter=1).max_iter == 1
        assert FWConfig(max_iter=np.int64(7)).max_iter == 7


class TestDecide:
    def test_three_values(self):
        cfg = FWConfig(gap_tol=1e-9, dist_tol=1e-6)
        assert decide(5e-7, 1e-10, cfg) is True
        assert decide(5e-7, 1e-8, cfg) is None
        assert decide(1e-2, 1e-6, cfg) is False
        # the separating-hyperplane bound distance - gap / distance has to
        # clear dist_tol
        assert decide(1e-3, 9.995e-7, cfg) is None
        assert decide(1e-3, 9.98e-7, cfg) is False
        assert decide(0.0, 0.0, cfg) is True
        assert decide(2e-6, 1e-8, cfg) is None

    def test_hyperplane_bound_decides_sooner(self):
        # d - sqrt(2 gap), the bound decide used before, leaves an early
        # iterate of a disjoint pair undecided; the hyperplane bound
        # d - gap / d rules it disjoint, and numpy's eigenvalues of the
        # compressed direction confirm the bound
        cfg = FWConfig()
        basis = build_pauli_diagonal(3)
        a, b = random_pair(np.random.default_rng(93))
        stack = diagonal_stack(8)
        sooner = 0
        for k in range(1, 8):
            res = moment_distance(a, b, basis, FWConfig(max_iter=k))
            dist, gap = res.distance, res.gap
            old = dist - np.sqrt(2.0 * gap) > cfg.dist_tol
            if old or decide(dist, gap, cfg) is not False:
                continue
            sooner += 1
            d = (coordinates(stack, a.frame @ res.witness_plus @ a.frame.conj().T)
                 - coordinates(stack, b.frame @ res.witness_minus @ b.frame.conj().T))
            assert np.linalg.norm(d) == pytest.approx(dist, abs=1e-12)
            lower = separation_bound(a.frame, b.frame, d, stack)
            assert lower == pytest.approx(dist - gap / dist, abs=1e-12)
            assert lower > cfg.dist_tol
        assert sooner >= 1

    def test_early_stop_keeps_verdict_on_random_pairs(self):
        cfg = FWConfig(max_iter=2000)
        basis = build_pauli_diagonal(3)
        rng = np.random.default_rng(90)
        for _ in range(6):
            a, b = random_pair(rng)
            full = moment_distance(a, b, basis, cfg)
            early = moment_distance(a, b, basis, cfg, until_decided=True)
            assert decide(full.distance, full.gap, cfg) is False
            assert decide(early.distance, early.gap, cfg) is False
            assert early.stop_reason in ("decided", "gap_met")
            assert early.iterations <= cfg.max_iter // 100
            # the face polish settles these pairs, from iteration 8 on; the
            # early stop comes first
            assert early.iterations < min(full.iterations, 8)

    def test_early_stop_keeps_verdict_on_grid_suite(self):
        cfg = FWConfig()
        basis = build_diagonal(3)
        solved = 0
        for a in grid_agreement_suite():
            try:
                spaces = extremal_eigenspaces(a)
            except NormNotTwoSided:
                continue
            full = moment_distance(spaces.plus, spaces.minus, basis, cfg)
            early = moment_distance(spaces.plus, spaces.minus, basis, cfg, until_decided=True)
            assert decide(early.distance, early.gap, cfg) == decide(full.distance, full.gap, cfg)
            assert decide(early.distance, early.gap, cfg) is not None
            assert early.iterations <= min(full.iterations, cfg.max_iter // 100)
            solved += 1
        assert solved == 10


class TestIntersects:
    def test_segment_meets_point(self):
        assert intersects(subspace_s3(), subspace_v3(), build_diagonal(3))

    def test_disjoint_axes(self):
        assert not intersects(span([1, 0]), span([0, 1]), build_diagonal(2))

    def test_block_twins(self):
        basis = build_block([(2, "diagonal"), (2, "full")])
        v = Subspace(0.5 * np.ones((4, 1), dtype=complex))
        w = Subspace(0.5 * np.array([[-1], [-1], [1], [1.0]], dtype=complex))
        assert intersects(v, w, basis)

    def test_undecided_on_tiny_budget(self):
        rng = np.random.default_rng(6)
        basis = build_diagonal(4)
        a = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        b = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        # a budget below the first face polish (iteration 8)
        with pytest.raises(Undecided, match="stopped at budget after 5 iterations"):
            intersects(a, b, basis, FWConfig(max_iter=5))
        # at 10 the polish has settled the pair: its witnesses are density
        # matrices whose moments meet
        assert intersects(a, b, basis, FWConfig(max_iter=10))
        res = moment_distance(a, b, basis, FWConfig(max_iter=10), until_decided=True)
        assert support_problems(a.frame, b.frame, res.witness_plus, res.witness_minus,
                                diagonal_stack(4), FWConfig().dist_tol) is None
        # a loose gap tolerance stops the solve before the distance is settled
        with pytest.raises(Undecided, match="stopped at gap_met after"):
            intersects(a, b, basis, FWConfig(gap_tol=1e-2))

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("q", [4, 5, 6])
    def test_twin_pairs_of_every_rank(self, q, r):
        # the face polish runs at every rank, so twin pairs of each rank are
        # decided True, with witnesses that numpy alone confirms
        basis = build_pauli_diagonal(q)
        stack = diagonal_stack(2**q)
        for seed in range(3):
            v, w = twin_pair(seed, 2**q, r)
            s1, s2 = Subspace(v), Subspace(w)
            assert intersects(s1, s2, basis)
            res = moment_distance(s1, s2, basis, until_decided=True)
            assert support_problems(v, w, res.witness_plus, res.witness_minus,
                                    stack, FWConfig().dist_tol) is None


class TestInvariants:
    def test_change_of_basis_covariance(self):
        rng = np.random.default_rng(45)
        e = build_diagonal(3)
        b = orthonormalize(
            [np.diag([1.0, 0, 0]), np.diag([0, IV, -IV]), np.diag([0, IV, IV])]
        )
        c = change_of_basis(e, b)
        s = Subspace.from_span(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        fam_e = compress_family(s, e)
        fam_b = compress_family(s, b)
        for _ in range(10):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho = rho / np.trace(rho).real
            assert np.linalg.norm(
                moment_of_density(fam_b, rho) - c @ moment_of_density(fam_e, rho)
            ) <= 1e-10

    def test_nonzero_moment_unital(self):
        rng = np.random.default_rng(46)
        for basis in (build_pauli_diagonal(2), build_block([(2, "diagonal"), (2, "full")])):
            trace_row = np.real(
                np.einsum("kii->k", basis.elements)
            )  # coefficients of I in the basis
            s = Subspace.from_span(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            )
            points = sample_extreme(compress_family(s, basis), 20, seed=8)
            n, t = basis.n, basis.dim
            for p in points:
                assert np.linalg.norm(p) >= 1.0 / np.sqrt(n * t) - 1e-9
                assert points @ trace_row == pytest.approx(np.ones(len(points)), abs=1e-10)

    def test_fw_matches_grid_oracle(self):
        """Frank-Wolfe distance against dense parameter grids (upper bounds).

        Instances avoid transversal interior intersections, where a sampled
        upper bound cannot come within 5e-4 of zero at this sample budget.
        """
        d2, d3, d4 = build_diagonal(2), build_diagonal(3), build_diagonal(4)
        rng = np.random.default_rng(77)
        generic_a = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        generic_b = Subspace.from_span(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        cases = [
            # r1 x r1: both moments are singletons, sampling is exact
            (span([1, 0]), span([0, 1]), d2, 1, 1),
            # r2 x r1 intersecting at a segment endpoint
            (subspace_s3(), subspace_v3(), d3, 100000, 1),
            # r2 x r2 disjoint coordinate segments
            (span([1, 0, 0, 0], [0, 1, 0, 0]), span([0, 0, 1, 0], [0, 0, 0, 1]), d4, 316, 316),
            # generic disjoint pair, minimizers on the pure-state boundary
            (generic_a, generic_b, d4, 10000, 10000),
        ]
        for s1, s2, basis, n1, n2 in cases:
            res = moment_distance(s1, s2, basis)
            cloud1 = self._cloud(s1, basis, n1)
            cloud2 = self._cloud(s2, basis, n2)
            brute = self._min_cross_distance(cloud1, cloud2)
            assert res.distance <= brute + 1e-9
            assert brute - res.distance <= 5e-4

    @staticmethod
    def _cloud(s, basis, n_target):
        fam = compress_family(s, basis)
        if s.r == 1:
            return moment_of_density(fam, np.ones((1, 1), dtype=complex))[None, :]
        if n_target > 1000:
            # pure states dominate the boundary; one dense Fibonacci sphere
            k = np.arange(n_target)
            z = 1.0 - 2.0 * (k + 0.5) / n_target
            rho = np.sqrt(np.maximum(1 - z * z, 0.0))
            th = np.pi * (3 - np.sqrt(5)) * k
            pts = np.stack([rho * np.cos(th), rho * np.sin(th), z], axis=1)
        else:
            pts = bloch_grid(n_target)
        return moment_cloud(fam.mats, pts)

    @staticmethod
    def _min_cross_distance(c1, c2):
        best = np.inf
        sq2 = np.sum(c2**2, axis=1)
        for i in range(0, c1.shape[0], 4000):
            blk = c1[i : i + 4000]
            d2 = np.sum(blk**2, axis=1)[:, None] + sq2[None, :] - 2 * blk @ c2.T
            best = min(best, float(d2.min()))
        return float(np.sqrt(max(best, 0.0)))
