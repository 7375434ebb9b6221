import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import khachiyan_logdet, quadratic_forms

from sepnmf.errors import DimensionMismatchError, RankDeficientError, SepnmfError
from sepnmf.linalg import spectral_norm, svd_truncated
from sepnmf.mvee import Ellipsoid, ellipsoid_support, solve_mvee
from sepnmf.rng import SplitMix64
from sepnmf.synth import generate_instance, rescale_noise, sigma_min


class TestExamples:
    def test_unit_vectors_give_identity(self):
        e = solve_mvee(np.eye(2))
        assert np.allclose(e.L, np.eye(2), atol=1e-8)
        assert np.allclose(e.weights, [0.5, 0.5], atol=1e-7)
        assert e.max_violation <= 1e-6

    def test_axis_aligned(self):
        e = solve_mvee(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(e.L, np.diag([1.0, 0.25]), atol=1e-8)

    def test_rank_deficient_rejected(self):
        P = np.outer([1.0, 2.0], [1.0, -1.0, 0.5])
        for points in (P, np.zeros((3, 6)), np.zeros((1, 6))):
            with pytest.raises(RankDeficientError):
                solve_mvee(points)

    def test_k_equals_one(self):
        e = solve_mvee(np.array([[1.0, -3.0, 2.0]]))
        assert np.allclose(e.L, [[1.0 / 9.0]])
        assert e.max_violation <= 0.0


class TestCertificates:
    def test_feasibility_dual_identity_and_oracle(self):
        r = SplitMix64(123)
        for case in range(12):
            k = 2 + case % 5
            m = 20 + 15 * case
            P = r.normal_matrix(k, m)
            e = solve_mvee(P, 1e-6)
            vals = ellipsoid_support(e, P)
            assert vals.max() <= 1.0 + 1e-6
            Mu = (P * e.weights) @ P.T
            assert spectral_norm(np.linalg.inv(Mu) / k - e.L) <= 1e-8 * spectral_norm(e.L)
            logdet_oracle, _, _, gap = khachiyan_logdet(P, 1e-10)
            assert gap <= 1e-6
            sign, logdet = np.linalg.slogdet(e.L)
            assert sign > 0
            assert abs(logdet - logdet_oracle) <= k * np.log(1.0 + 1e-6) + 1e-9

    def test_support_size_within_design_bound(self):
        overflows = []
        r = SplitMix64(9)
        for case in range(10):
            k = 2 + case % 4
            P = r.normal_matrix(k, 150)
            e = solve_mvee(P, 1e-6)
            cap = k * (k + 1) // 2 + 1
            if e.support.size > cap:
                overflows.append((case, e.support.size, cap))
        # design-theory cardinality bound: log but do not fail on overshoot
        if overflows:
            print("support-size overshoots:", overflows)

    def test_weights_form_a_probability_vector(self):
        P = SplitMix64(31).normal_matrix(4, 80)
        e = solve_mvee(P)
        assert e.weights.min() >= 0.0
        assert e.weights.sum() == pytest.approx(1.0, abs=1e-9)


def _svd_coordinates(seed):
    # c01's zero-noise 10 x 80 x 3 design in SVD coordinates
    f = svd_truncated(generate_instance(10, 80, 3, 0.0, seed=seed).A, 3)
    return f.S[:, None] * f.V.T


def _noisy_svd_coordinates(seed, t):
    # the same design at noise t * sigma_min(F), where the start on the SPA
    # picks is not optimal and the ascent has to run
    base = generate_instance(10, 80, 3, 1.0, seed=seed)
    f = svd_truncated(rescale_noise(base, t * sigma_min(base.F)).A, 3)
    return f.S[:, None] * f.V.T


@pytest.mark.parametrize("points, budget", [
    pytest.param(lambda: SplitMix64(66).normal_matrix(4, 120), 3, id="gaussian"),
    # converges only after about 12,000 steps; a budget of 1500 ends in a
    # partial second burst of 500 steps
    pytest.param(lambda: _noisy_svd_coordinates(3, 2.0), 1500, id="noisy-partial-burst"),
])
def test_no_convergence_carries_last_iterate(monkeypatch, points, budget):
    import sepnmf.mvee as mv

    monkeypatch.setattr(mv, "MAX_INNER_ITERS", budget)
    P = points()
    with pytest.raises(mv.NoConvergenceError) as exc:
        solve_mvee(P, 1e-6)
    ell = exc.value.ellipsoid
    assert ell is not None
    assert ell.iterations == budget
    assert ell.L.shape == (P.shape[0],) * 2
    assert ell.max_violation > 1e-6


def test_degenerate_zero_noise_design_grows_working_set_early():
    # c01's 10 x 80 x 3 seed 10081 in SVD coordinates: points on the faces of
    # a simplex, many of them almost on the optimal ellipsoid; the optimum is
    # the uniform design on the simplex's vertices, the SPA picks
    # (the true indices [0, 55, 56]). That design is the oracle, in closed
    # form: M = P_S P_S^T / k and L* = M^-1 / k (log det -0.789233419712845),
    # certified optimal by its Kiefer-Wolfowitz gap k log(max_i p_i^T M^-1 p_i / k)
    P = _svd_coordinates(10_081)
    k = P.shape[0]
    vertices = generate_instance(10, 80, k, 0.0, seed=10_081).true_indices
    M_inv = np.linalg.inv(P[:, vertices] @ P[:, vertices].T / k)
    gap = k * np.log(quadratic_forms(P, M_inv).max() / k)
    assert gap <= 1e-12
    sign_opt, logdet_opt = np.linalg.slogdet(M_inv / k)
    assert sign_opt > 0
    e = solve_mvee(P, 1e-6)
    assert e.max_violation <= 1e-6
    sign, logdet = np.linalg.slogdet(e.L)
    assert sign > 0
    assert abs(logdet - logdet_opt) <= 3 * np.log(1.0 + 1e-6) + 1e-9
    assert e.iterations == 0


def test_ill_conditioned_sets_certify_or_raise(monkeypatch):
    # P = U diag(geomspace(1, r, k)) V^T: M(u) is so ill-conditioned that an
    # inverse updated in place drifts from a fresh one, and eigenvalues of
    # M(u) can fall below the floor. Every set must give a certified
    # ellipsoid or a typed error. The property does not depend on the step
    # budget; at the full budget some sets spend all 100,000 steps before
    # NoConvergenceError, so a smaller one keeps the test fast.
    import sepnmf.mvee as mv

    monkeypatch.setattr(mv, "MAX_INNER_ITERS", 5000)
    outcomes = []
    for k, m in ((2, 40), (3, 100), (5, 400)):
        for r in np.geomspace(1e-8, 1e-5, 7):
            g = SplitMix64(3)
            U = np.linalg.qr(g.normal_matrix(k, k))[0]
            V = np.linalg.qr(g.normal_matrix(m, k))[0]
            P = (U * np.geomspace(1.0, r, k)) @ V.T
            try:
                e = solve_mvee(P, 1e-6)
            except SepnmfError as exc:
                outcomes.append(type(exc).__name__)
                continue
            assert e.max_violation <= 1e-6, (k, m, r, e.max_violation)
            outcomes.append("certified")
    assert "certified" in outcomes and "RankDeficientError" in outcomes


@pytest.mark.parametrize("points, bursts, admissions", [
    pytest.param(lambda: SplitMix64(4).normal_matrix(6, 2000), 3, 0, id="gaussian-6x2000"),
    pytest.param(lambda: SplitMix64(7).normal_matrix(8, 1000), 3, 1, id="gaussian-8x1000"),
])
def test_each_pass_inverts_the_moment_matrix_once(monkeypatch, points, bursts, admissions):
    # M(u) is inverted for the starting state, after every burst and after
    # every admission
    import sepnmf.mvee as mv

    P = points()
    inversions, working_sets = [0], []
    inv_psd, ascent = mv._inv_psd, mv.kernels.mvee_ascent

    def counted_inv_psd(M):
        inversions[0] += 1
        return inv_psd(M)

    def recorded_ascent(Pw, u, *args):
        working_sets.append((Pw, u))
        return ascent(Pw, u, *args)

    monkeypatch.setattr(mv, "_inv_psd", counted_inv_psd)
    monkeypatch.setattr(mv.kernels, "mvee_ascent", recorded_ascent)
    e = solve_mvee(P, 1e-6)
    grown = sum(a[0].shape != b[0].shape for a, b in zip(working_sets, working_sets[1:]))
    assert (len(working_sets), grown) == (bursts, admissions)
    assert inversions[0] == 1 + bursts + admissions
    Pw, u = working_sets[-1]
    minv = np.linalg.inv((Pw * u[:, None]).T @ Pw)
    want = 0.5 * (minv + minv.T) / P.shape[0]
    assert np.abs(e.L - want).max() <= 1e-14 * np.abs(want).max()


class TestInvariances:
    def test_scale_covariance(self):
        P = SplitMix64(44).normal_matrix(3, 60)
        base = solve_mvee(P)
        for c in (0.5, 2.0, 10.0):
            e = solve_mvee(c * P)
            assert spectral_norm(e.L - base.L / c**2) <= 1e-8 * spectral_norm(base.L / c**2)

    def test_permutation_invariance(self):
        P = SplitMix64(45).normal_matrix(3, 50)
        perm = SplitMix64(46).permutation(50)
        base = solve_mvee(P)
        e = solve_mvee(P[:, perm])
        assert spectral_norm(e.L - base.L) <= 1e-10 * max(1.0, spectral_norm(base.L))
        assert np.abs(e.weights - base.weights[perm]).max() <= 1e-9


class TestSupportValues:
    def test_identity_form(self):
        assert ellipsoid_support(np.eye(2), np.array([[1.0], [0.0]]))[0] == 1.0

    def test_boundary_point(self):
        v = ellipsoid_support(np.diag([1.0, 0.25]), np.array([[0.0], [2.0]]))
        assert v[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_direct_evaluation(self):
        r = SplitMix64(8)
        G = r.normal_matrix(4, 4)
        L = G @ G.T + np.eye(4)
        P = r.normal_matrix(4, 30)
        vals = ellipsoid_support(L, P)
        want = np.array([P[:, i] @ L @ P[:, i] for i in range(30)])
        assert np.abs(vals - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 60), st.integers(0, 2**32), st.floats(0.0, 12.0))
    def test_matches_three_operand_oracle(self, k, m, seed, log_cond):
        # SPD L of condition up to 1e12; each form within the roundoff of two
        # k-term products, 4 k eps (|P|^T |L| |P|), of the oracle's
        r = SplitMix64(seed)
        Q = np.linalg.qr(r.normal_matrix(k, k))[0]
        L = (Q * np.logspace(0.0, -log_cond, k)) @ Q.T
        P = r.normal_matrix(k, m)
        err = np.abs(ellipsoid_support(L, P) - quadratic_forms(P, L))
        assert (err <= 4 * k * np.finfo(float).eps * quadratic_forms(np.abs(P), np.abs(L))).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ellipsoid_support(np.eye(3), np.ones((2, 5)))

    def test_accepts_ellipsoid_object(self):
        e = Ellipsoid(
            L=np.eye(2), weights=np.array([1.0]), support=np.array([0]),
            max_violation=0.0, iterations=0,
        )
        assert ellipsoid_support(e, np.array([[1.0], [0.0]]))[0] == 1.0
