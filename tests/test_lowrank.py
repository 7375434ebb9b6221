import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import projector_approx

from sepnmf import kernels, lowrank
from sepnmf.errors import BadRankError, NonFiniteError
from sepnmf.linalg import orthonormalize, singular_values, spectral_norm, svd_truncated
from sepnmf.lowrank import (
    APPROX_NAMES,
    approximate,
    bound_report,
    carries_gram,
    rand_subspace_approx,
    spa_rank_approx,
    subspace_basis,
)
from sepnmf.rng import SplitMix64
from sepnmf.spa import spa_select
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


def _graded(ratio, d=40, m=600, k=6):
    """d x m input with sigma_1..sigma_k falling geometrically from 1 to ratio,
    sigma_{k+1} = 1e-3 * ratio and the rest falling tenfold below that."""
    U = np.linalg.qr(SplitMix64(11).normal_matrix(d, d))[0]
    V = np.linalg.qr(SplitMix64(12).normal_matrix(m, d))[0]
    s = np.concatenate([np.geomspace(1.0, ratio, k), 1e-3 * ratio * np.geomspace(1.0, 0.1, d - k)])
    return np.ascontiguousarray((U * s) @ V.T)


def _chain(A, Q, q):
    """q rounds of the alternating chain, written out."""
    for _ in range(q):
        Q = orthonormalize(A @ orthonormalize(A.T @ Q))
    return Q


def _gram(A, Q, q):
    """q rounds on G = A A^T, written out."""
    G = A @ A.T
    for _ in range(q):
        Q = orthonormalize(G @ Q)
    return Q


class TestPowerRounds:
    def test_flop_rule(self, monkeypatch):
        # the shape rule: a wide input with q >= 1 runs its rounds on G, a tall
        # input or q = 0 the chain, whatever the flop counts
        formed, form = [], lowrank.gram_matrix
        monkeypatch.setattr(lowrank, "gram_matrix", lambda A: formed.append(1) or form(A))

        def takes_gram(shape, k, q):
            formed.clear()
            A = SplitMix64(25).normal_matrix(*shape)
            lowrank.RankK(A, k)._rounds(A[:, :k], q)
            return formed == [1]

        assert takes_gram((100, 20000), 10, 10)  # approx-wide
        assert takes_gram((50, 2000), 10, 2)
        assert takes_gram((50, 2000), 10, 1)
        assert takes_gram((1000, 1500), 5, 1)
        assert not takes_gram((20000, 100), 10, 10)  # tall: never
        assert not takes_gram((40, 600), 6, 0)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-10])
    @pytest.mark.parametrize("q", [1, 3, 10])
    def test_graded_spectrum_keeps_the_chains_error(self, ratio, q):
        # G = A A^T loses the directions below sqrt(eps) * sigma_1, so from
        # sigma_k / sigma_1 = 1e-6 down the guard must restart the chain
        A = _graded(ratio)
        ap = spa_rank_approx(A, 6, q)
        Q = _chain(A, orthonormalize(A[:, ap.seed_indices]), q)
        want = spectral_norm(A - Q @ (Q.T @ A))
        assert abs(ap.error2 - want) <= 1e-9 * want

    @pytest.mark.parametrize(
        "A, k, q, rounds",
        [(SplitMix64(21).normal_matrix(400, 300), 2, 1, _chain), (_graded(1e-2), 6, 3, _gram)],
        ids=["chain", "gram"],
    )
    def test_flop_rule_picks_the_path(self, A, k, q, rounds):
        start = A[:, :k]
        assert carries_gram(A) == (rounds is _gram)
        G = lowrank.gram_matrix(A) if carries_gram(A) else None
        assert subspace_basis(A, start, q, G).tobytes() == rounds(A, orthonormalize(start), q).tobytes()

    @pytest.mark.parametrize(
        "A, k",
        [
            (_graded(1e-8), 6),  # lambda_k < 1e-10 * lambda_1
            (_graded(1e-2)[:, :3] @ SplitMix64(23).normal_matrix(3, 600), 5),  # G @ Q drops 2
        ],
        ids=["ritz", "rank-loss"],
    )
    def test_guard_restarts_the_chain(self, A, k):
        start = SplitMix64(24).normal_matrix(40, k)
        assert carries_gram(A)
        G = lowrank.gram_matrix(A)
        assert subspace_basis(A, start, 4, G).tobytes() == _chain(A, orthonormalize(start), 4).tobytes()


def _explicit_residual_norm_used(monkeypatch):
    """Records each spectral_norm call the error stage makes: its fallback."""
    calls = []

    def counted(M):
        calls.append(M.shape)
        return spectral_norm(M)

    monkeypatch.setattr(lowrank, "spectral_norm", counted)
    return calls


class TestGramErrorNorm:
    # (ratio, k, read from G): lambda = sigma_{k+1}^2 of _graded(ratio) against
    # ||G||_F ~ 1 lies 16x or more above the 1e-6 bar, or 2.5x or more below it
    @pytest.mark.parametrize(
        "ratio, k, gram",
        [(1e-2, 1, True), (1e-2, 5, True), (1e-2, 6, False), (1e-4, 3, True), (1e-4, 4, False),
         (1e-6, 2, True), (1e-6, 3, False), (1e-10, 1, True), (1e-10, 2, False)],
    )
    @pytest.mark.parametrize("method", APPROX_NAMES)
    def test_graded_spectrum_matches_the_explicit_residual(self, monkeypatch, ratio, k, gram,
                                                           method):
        A = _graded(ratio)
        calls = _explicit_residual_norm_used(monkeypatch)
        ap = approximate(A, k, method, 3)
        assert (not calls) == gram
        want = float(np.linalg.norm(A - ap.B, 2))
        assert abs(ap.error2 - want) <= 1e-9 * want

    @pytest.mark.parametrize("method", APPROX_NAMES)
    def test_tall_input_takes_the_explicit_residual(self, monkeypatch, method):
        A = np.ascontiguousarray(_graded(1e-2).T)
        calls = _explicit_residual_norm_used(monkeypatch)
        ap = approximate(A, 3, method, 2)
        assert calls == [A.shape]
        want = float(np.linalg.norm(A - ap.B, 2))
        assert abs(ap.error2 - want) <= 1e-9 * want

    @pytest.mark.parametrize("j", [-900, -700, 600, 900])
    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    @pytest.mark.parametrize("method", APPROX_NAMES)
    def test_scaled_input_undoes_the_exponent(self, method, shape, j):
        # RankK runs 2**j * A as A: Q is the same bytes, B and error2 scale exactly
        A = SplitMix64(41).normal_matrix(*shape)
        ap = approximate(A, 3, method, 2)
        scaled = approximate(np.ldexp(A, j), 3, method, 2)
        assert scaled.Q.tobytes() == ap.Q.tobytes()
        assert np.array_equal(scaled.B, np.ldexp(ap.B, j))
        assert scaled.error2 == np.ldexp(ap.error2, j)
        if method == "spa":  # the seed RankK runs on its scaled A picks as the checked entry
            assert scaled.seed_indices.tolist() == spa_select(np.ldexp(A, j), 3).tolist()

    @pytest.mark.parametrize("method", ["spa", "rand"])
    def test_no_residual_matrix_is_allocated(self, method):
        # the parent's A - B doubled the peak: B and the residual, 2.1 x A
        A = SplitMix64(31).normal_matrix(100, 20000)
        tracemalloc.start()
        try:
            approximate(A, 10, method, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * A.nbytes


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


# BoundReport fields that are singular values or their combinations
_SIGMA_FIELDS = ("sigma_k", "sigma_k1", "sigma_min_AI", "rho", "g1_min", "g2_max",
                 "error_bound", "margin_bound", "achieved_error")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(30, 400, 5), (40, 25, 4)]), st.integers(0, 2**16),
       st.sampled_from([0, 1, 2, 5]), st.integers(-400, 400))
def test_bound_report_undoes_the_exponent(shape, seed, q, j):
    # bound_report on 2**j * A: every sigma-type field scales by exactly 2**j
    # (None stays None), the quadratic bound's right-hand side by 2**(2j), and
    # the rank, q and singularity flag are unchanged
    d, m, k = shape
    A = _bounded_instance(d, m, k, seed).A
    rep = bound_report(A, spa_rank_approx(A, k, q))
    Aj = np.ldexp(A, j)
    got = bound_report(Aj, spa_rank_approx(Aj, k, q))
    for name, exponent in [(name, j) for name in _SIGMA_FIELDS] + [("quadratic_rhs", 2 * j)]:
        want = getattr(rep, name)
        assert getattr(got, name) == (None if want is None else np.ldexp(want, exponent)), name
    assert (got.rank_b, got.q, got.singular_z1) == (rep.rank_b, rep.q, rep.singular_z1)


def test_bound_report_overflow_is_a_typed_error():
    # sigma_2 is roundoff of the 1e300 column, about 1e284: its square overflows
    A = SplitMix64(0).uniform(6 * 23).reshape(6, 23)
    A[:, 5] *= 1e300
    ap = spa_rank_approx(A, 1, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="overflows"):
            bound_report(A, ap)
