import numpy as np
import pytest
from oracles import projector_approx

from sepnmf import kernels, lowrank
from sepnmf.errors import BadRankError
from sepnmf.linalg import singular_values, spectral_norm, svd_truncated
from sepnmf.lowrank import (
    APPROX_NAMES,
    approximate,
    bound_report,
    rand_subspace_approx,
    spa_rank_approx,
)
from sepnmf.rng import SplitMix64
from sepnmf.synth import generate_instance, rescale_noise, robust_noise_bound


def _bounded_instance(d, m, k, seed, frac=0.9):
    base = generate_instance(d, m, k, 1.0, seed)
    return rescale_noise(base, frac * robust_noise_bound(base.F))


class TestSpaRankApprox:
    def test_exact_rank_one(self):
        u = SplitMix64(1).normal(12).reshape(-1, 1)
        v = SplitMix64(2).normal(30).reshape(1, -1)
        A = u @ v
        for q in (0, 1, 5):
            ap = spa_rank_approx(A, 1, q)
            assert ap.error2 <= 1e-10 * spectral_norm(A)

    def test_diagonal_two_by_two(self):
        ap = spa_rank_approx(np.diag([3.0, 1.0]), 1, 1)
        assert ap.seed_indices.tolist() == [0]
        assert np.allclose(ap.B, np.diag([3.0, 0.0]), atol=1e-12)
        assert ap.error2 == pytest.approx(1.0, abs=1e-9)

    def test_error_bound_on_noisy_separable(self):
        inst = _bounded_instance(30, 400, 5, seed=50)
        s = singular_values(inst.A)
        ap = spa_rank_approx(inst.A, 5, 2)
        bound = s[5] * np.sqrt(1.0 + (1.0 / 20164.0) * (s[5] / s[4]) ** (4 * 2 - 2))
        assert ap.error2 <= bound + 1e-9
        s_b = singular_values(ap.B)
        assert s_b[4] > 0.0
        assert s_b[5] <= 1e-8 * spectral_norm(inst.A)

    def test_matches_explicit_projector(self):
        for seed in range(10):
            A = SplitMix64(seed).normal_matrix(12, 40)
            k, q = 4, 1
            ap = spa_rank_approx(A, k, q)
            Y = np.linalg.matrix_power(A @ A.T, q) @ A[:, ap.seed_indices]
            B_ref = projector_approx(Y, A)
            assert spectral_norm(ap.B - B_ref) <= 1e-8 * spectral_norm(A)

    def test_median_error_nonincreasing_in_q(self):
        errs = {q: [] for q in (1, 2, 5, 10, 15)}
        for seed in range(8):
            base = generate_instance(25, 300, 4, 1.0, seed=900 + seed)
            inst = rescale_noise(base, 3.0)
            for q in errs:
                errs[q].append(spa_rank_approx(inst.A, 4, q).error2)
        med = [float(np.median(errs[q])) for q in (1, 2, 5, 10, 15)]
        for a, b in zip(med, med[1:]):
            assert b <= 1.01 * a

    def test_rejects_negative_q(self):
        with pytest.raises(BadRankError):
            spa_rank_approx(np.eye(3), 2, -1)

    def test_result_invariants(self):
        A = SplitMix64(31).normal_matrix(14, 45)
        ap = spa_rank_approx(A, 5, 3)
        assert spectral_norm(ap.Q.T @ ap.Q - np.eye(5)) <= 1e-10
        assert spectral_norm(ap.B - ap.Q @ (ap.Q.T @ A)) <= 1e-10 * spectral_norm(A)
        s_b = singular_values(ap.B)
        assert int(np.sum(s_b > 1e-10 * s_b[0])) <= 5
        assert not ap.rank_collapsed
        assert {"spa", "power", "form_b", "error_norm"} <= set(ap.timings)


class TestRandSubspaceApprox:
    def test_exact_rank_one(self):
        A = np.outer(SplitMix64(5).normal(10), SplitMix64(6).normal(25))
        ap = rand_subspace_approx(A, 1, 0, 0, seed=0)
        assert ap.error2 <= 1e-10 * spectral_norm(A)

    def test_padded_diagonal_over_seeds(self):
        A = np.zeros((3, 5))
        A[:3, :3] = np.diag([4.0, 2.0, 1.0])
        good = sum(
            rand_subspace_approx(A, 2, 3, 0, seed).error2 <= 1.05 * 1.0
            for seed in range(100)
        )
        assert good >= 95

    def test_oversampling_does_not_hurt(self):
        A = _bounded_instance(20, 60, 4, seed=77, frac=50.0).A
        e0, e2 = [], []
        for seed in range(50):
            e0.append(rand_subspace_approx(A, 4, 1, 0, seed).error2)
            e2.append(rand_subspace_approx(A, 4, 1, 2, seed).error2)
        assert np.median(e2) <= np.median(e0) + 1e-12

    def test_oversampled_rank_capped_at_k(self):
        A = SplitMix64(9).normal_matrix(15, 40)
        ap = rand_subspace_approx(A, 3, 1, 4, seed=2)
        assert ap.Q.shape[1] == 3
        s_b = singular_values(ap.B)
        assert int(np.sum(s_b > 1e-10 * s_b[0])) <= 3
        assert spectral_norm(ap.B - ap.Q @ (ap.Q.T @ A)) <= 1e-10 * spectral_norm(A)

    def test_reproducible_by_seed(self):
        A = SplitMix64(8).normal_matrix(10, 30)
        a1 = rand_subspace_approx(A, 3, 2, 1, seed=42)
        a2 = rand_subspace_approx(A, 3, 2, 1, seed=42)
        assert np.array_equal(a1.B, a2.B)

    def test_bad_oversample(self):
        with pytest.raises(BadRankError):
            rand_subspace_approx(np.eye(4), 3, 1, 5, seed=0)


def test_approximate_matches_shorthands():
    A = _bounded_instance(16, 90, 4, seed=12, frac=3.0).A
    k, q = 4, 2
    for oversample in (0, 2):
        shorthands = {  # spa has no sketch, so oversample leaves it unchanged
            "spa": spa_rank_approx(A, k, q),
            "rand": rand_subspace_approx(A, k, q, oversample, seed=7),
        }
        for method, want in shorthands.items():
            got = approximate(A, k, method, q, oversample, seed=7)
            assert np.array_equal(got.Q, want.Q) and np.array_equal(got.B, want.B)
            assert got.error2 == want.error2
            assert np.array_equal(got.seed_indices, want.seed_indices)
            assert set(got.timings) == set(want.timings)
    assert set(shorthands["spa"].timings) == {"spa", "power", "form_b", "error_norm"}
    assert set(shorthands["rand"].timings) == {"sample", "power", "form_b", "error_norm"}

    ap = approximate(A, k, "svd", q)
    s = singular_values(A)
    assert abs(ap.error2 - s[k]) <= 1e-10 * s[0]
    f = svd_truncated(A, k)
    assert np.array_equal(ap.B, f.U @ (f.S[:, None] * f.V.T))
    assert set(ap.timings) == {"svd", "error_norm"}
    assert APPROX_NAMES == ("spa", "rand", "svd")
    with pytest.raises(ValueError, match="unknown approximation"):
        approximate(A, k, "qr", q)


class TestBoundReport:
    def test_closed_form_diag(self):
        A = np.diag([3.0, 1.0])
        ap = spa_rank_approx(A, 1, 1)
        rep = bound_report(A, ap)
        assert rep.sigma_k == pytest.approx(3.0, abs=1e-12)
        assert rep.sigma_k1 == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_min_AI == pytest.approx(3.0, abs=1e-12)
        assert rep.rho == pytest.approx(2.0, abs=1e-12)
        assert rep.achieved_error == pytest.approx(1.0, abs=1e-12)
        want = np.sqrt(1.0 + 0.25 * (1.0 / 9.0))
        assert rep.margin_bound == pytest.approx(want, abs=1e-12)

    def test_exact_separable_margin(self):
        inst = generate_instance(12, 80, 4, 0.0, seed=4)
        ap = spa_rank_approx(inst.A, 4, 1)
        rep = bound_report(inst.A, ap)
        assert rep.sigma_k1 <= 1e-10 * spectral_norm(inst.A)
        assert rep.rho == pytest.approx(rep.sigma_min_AI, rel=1e-6)
        assert rep.rho > 0

    def test_block_bounds_and_quadratic_rhs(self, monkeypatch):
        inst = _bounded_instance(30, 400, 5, seed=60)
        jacobi, norms = [], []
        kernel, norm = kernels.svd_jacobi_rows, lowrank.spectral_norm
        monkeypatch.setattr(kernels, "svd_jacobi_rows", lambda *a: jacobi.append(a) or kernel(*a))
        monkeypatch.setattr(lowrank, "spectral_norm", lambda M: norms.append((M, norm(M))) or norms[-1][1])
        for q in (1, 2, 5):
            ap = spa_rank_approx(inst.A, 5, q)
            jacobi.clear()
            norms.clear()
            rep = bound_report(inst.A, ap)
            # Jacobi SVDs of A, A(I), G_1 and Q^T A only; the achieved error
            # is the approximation's own, and sigma_max of G_2 and H S_1 are
            # spectral norms that agree with the Jacobi SVD's
            assert len(jacobi) == 4
            assert rep.achieved_error == ap.error2
            assert len(norms) == 2 and rep.g2_max == norms[0][1]
            for M, got in norms:
                want = singular_values(M)[0]
                assert abs(got - want) <= 1e-13 * want
            assert not rep.singular_z1
            assert rep.g2_max <= rep.sigma_k1 + 1e-10
            assert rep.g1_min >= max(0.0, rep.sigma_min_AI - rep.sigma_k1) - 1e-10
            assert rep.achieved_error**2 <= rep.quadratic_rhs + 1e-8
            assert rep.achieved_error < rep.error_bound + 1e-10
            assert rep.achieved_error < 1.00003 * rep.sigma_k1
            assert rep.rank_b == 5
            assert rep.sigma_k1 <= inst.delta + 1e-8

    def test_q_zero_with_vanishing_tail_stays_finite(self):
        # q = 0 makes the ratio exponent negative; a roundoff-level tail
        # singular value must not blow the bound computation up
        inst = generate_instance(10, 60, 3, 0.0, seed=1)
        rep = bound_report(inst.A, spa_rank_approx(inst.A, 3, 0))
        assert np.isfinite(rep.error_bound) or rep.error_bound == np.inf
        assert rep.rank_b == 3

    def test_requires_seed_indices(self):
        A = SplitMix64(3).normal_matrix(8, 12)
        ap = rand_subspace_approx(A, 2, 1, 0, seed=1)
        with pytest.raises(ValueError):
            bound_report(A, ap)
