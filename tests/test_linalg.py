import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepnmf import kernels, linalg
from sepnmf.errors import (
    BadRankError,
    NoConvergenceError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
)
from sepnmf.linalg import (
    eigh_sym,
    orthonormalize,
    psd_sqrt,
    singular_values,
    spectral_norm,
    svd_full,
    svd_truncated,
)
from sepnmf.rng import SplitMix64
from sepnmf.synth import generate_instance


def _rand(seed, d, m):
    return SplitMix64(seed).normal_matrix(d, m)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 2.0])) == pytest.approx(3.0, rel=1e-9)

    def test_nilpotent_jordan_block(self):
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, rel=1e-9)

    def test_matches_full_svd(self):
        A = _rand(10, 8, 6)
        s = svd_truncated(A, 6).S[0]
        assert spectral_norm(A) == pytest.approx(s, abs=1e-8)

    def test_rejects_nonfinite(self):
        A = np.ones((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            spectral_norm(A)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    @pytest.mark.parametrize("rows", [
        [[1.0, -1.0]],
        [[1.0, -1.0], [2.0, -2.0]],
        [[1.0, -1.0], [2.0, -2.0], [0.5, -0.5]],
        [[3.0, -1.0, -2.0], [0.0, 4.0, -4.0]],
    ])
    def test_rows_summing_to_zero(self, rows):
        # A 1 = 0: the all-ones start vector lies in the null space of A
        A = np.array(rows)
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-9)


class TestSvd:
    def test_diag_truncation(self):
        f = svd_truncated(np.diag([5.0, 3.0, 1.0]), 2)
        assert np.allclose(f.S, [5.0, 3.0])
        resid = np.diag([5.0, 3.0, 1.0]) - f.U @ (f.S[:, None] * f.V.T)
        assert spectral_norm(resid) == pytest.approx(1.0, abs=1e-10)

    def test_exact_rank_one(self):
        u = np.array([[1.0], [2.0], [-1.0]])
        v = np.array([[3.0, 1.0, 0.5, -2.0]])
        A = u @ v
        f = svd_truncated(A, 1)
        resid = A - f.U @ (f.S[:, None] * f.V.T)
        assert spectral_norm(resid) <= 1e-10 * spectral_norm(A)

    def test_residual_equals_sigma_kplus1(self):
        A = _rand(3, 10, 7)
        s = singular_values(A)
        f = svd_truncated(A, 3)
        resid = spectral_norm(A - f.U @ (f.S[:, None] * f.V.T))
        assert resid == pytest.approx(s[3], abs=1e-8 * max(1.0, s[0]))

    def test_factor_orthonormality_and_order(self):
        for seed, (d, m) in [(1, (9, 14)), (2, (14, 9)), (3, (6, 6))]:
            r = svd_full(_rand(seed, d, m))
            t = min(d, m)
            assert np.abs(r.U.T @ r.U - np.eye(t)).max() < 1e-12
            assert np.abs(r.V.T @ r.V - np.eye(t)).max() < 1e-12
            assert (np.diff(r.S) <= 1e-12).all()
            assert (r.S >= 0).all()

    def test_energy_conservation(self):
        A = _rand(4, 12, 20)
        s = singular_values(A)
        assert np.sum(s * s) == pytest.approx(np.sum(A * A), rel=1e-8)

    def test_residual_nonincreasing_in_k(self):
        A = _rand(5, 9, 15)
        resids = []
        for k in range(1, 9):
            f = svd_truncated(A, k)
            resids.append(spectral_norm(A - f.U @ (f.S[:, None] * f.V.T)))
        assert all(resids[i + 1] <= resids[i] + 1e-10 for i in range(len(resids) - 1))

    def test_interlacing_first_k_columns(self):
        A = _rand(6, 8, 12)
        for k in (2, 4, 6):
            B = A[:, :k]
            assert singular_values(A)[k - 1] >= singular_values(B)[k - 1] - 1e-10

    def test_perturbation_bound(self):
        A = _rand(7, 7, 11)
        N = 0.3 * _rand(8, 7, 11)
        n2 = spectral_norm(N)
        sa = singular_values(A)
        sb = singular_values(A + N)
        assert np.abs(sa - sb).max() <= n2 + 1e-10

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            svd_truncated(np.eye(3), 0)
        with pytest.raises(BadRankError):
            svd_truncated(np.eye(3), 4)

    def test_rank_deficient_v_completion(self):
        A = np.zeros((4, 6))
        A[0, 0] = 2.0
        r = svd_full(A)
        assert np.abs(r.V.T @ r.V - np.eye(4)).max() < 1e-10

    def test_high_relative_accuracy_small_sigma(self):
        # well-separated tiny trailing singular value survives the factorization
        rng = SplitMix64(99)
        U = orthonormalize(rng.normal_matrix(40, 6))
        V = orthonormalize(rng.normal_matrix(60, 6))
        s_true = np.array([50.0, 10.0, 3.0, 1.0, 0.5, 1e-9])
        A = (U * s_true) @ V.T
        s = singular_values(A)[:6]
        assert abs(s[5] - 1e-9) < 1e-12  # far better than eps * sigma_1^2 / sigma_6


class TestOrthonormalize:
    def test_axis_aligned(self):
        Q = orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
        assert np.allclose(np.abs(Q), [[1, 0], [0, 1], [0, 0]])

    def test_duplicate_column_rank_one(self):
        Q = orthonormalize(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]))
        assert Q.shape == (3, 1)
        assert np.allclose(np.abs(Q[:, 0]), [1, 0, 0])

    def test_random_full_rank(self):
        Y = _rand(9, 9, 4)
        Q = orthonormalize(Y)
        assert Q.shape == (9, 4)
        assert spectral_norm(Q.T @ Q - np.eye(4)) <= 1e-10
        assert spectral_norm(Q @ (Q.T @ Y) - Y) <= 1e-8 * spectral_norm(Y)

    def test_kahan_rank_from_singular_values_not_diagonal(self):
        # Kahan's matrix: every unpivoted |R_ii| is far above 1e-12 |R_11|,
        # yet sigma_min < 1e-12 sigma_max, so its numerical rank is n - 1
        n, c, s = 30, np.cos(0.5), np.sin(0.5)
        Y = np.diag(s ** np.arange(n)) @ (np.eye(n) + np.triu(-c * np.ones((n, n)), 1))
        diag = np.abs(np.diag(np.linalg.qr(Y)[1]))
        sv = np.linalg.svd(Y, compute_uv=False)
        assert diag.min() > 1e-12 * diag[0]
        assert sv[-1] < 1e-12 * sv[0]
        rank = int(np.count_nonzero(sv > 1e-12 * sv[0]))
        assert rank == n - 1
        Q = orthonormalize(Y)
        assert Q.shape == (n, rank)
        assert np.abs(Q.T @ Q - np.eye(rank)).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(2, 30),
        k=st.integers(2, 12),
        r=st.integers(1, 11),
        kind=st.sampled_from(("product", "duplicate", "zero")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_deficient_input_keeps_its_rank(self, d, k, r, kind, seed):
        # Y of known rank r < k: the SVD of R gives r columns spanning Y,
        # on the Householder path alone (the row Gram-Schmidt kernel is unused)
        k = min(k, d)
        r = min(r, k - 1)
        rng = SplitMix64(seed)
        if kind == "product":
            Y = rng.normal_matrix(d, r) @ rng.normal_matrix(r, k)
        else:
            Y = np.zeros((d, k))
            Y[:, :r] = rng.normal_matrix(d, r)
            if kind == "duplicate":
                Y[:, r:] = Y[:, np.arange(r, k) % r]
            Y = Y[:, np.argsort(rng.uniform(k))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "mgs_rows", lambda *a: pytest.fail("mgs_rows called"))
            Q = orthonormalize(Y)
        assert Q.shape == (d, r)
        assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-12
        assert spectral_norm(Q @ (Q.T @ Y) - Y) <= 1e-10 * spectral_norm(Y)

    def test_idempotent_span(self):
        Y = _rand(12, 10, 5)
        Q1 = orthonormalize(Y)
        Q2 = orthonormalize(Q1)
        # principal angles via singular values of Q1^T Q2
        s = singular_values(Q1.T @ Q2)
        assert np.abs(s - 1.0).max() <= 1e-8


class TestPsdSqrt:
    def test_diag(self):
        C = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(C, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_random_spd_reconstructs(self):
        G = _rand(13, 6, 6)
        L = G.T @ G + np.eye(6)
        C = psd_sqrt(L)
        assert np.allclose(C, C.T)
        assert spectral_norm(C @ C - L) <= 1e-8 * spectral_norm(L)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_clamps_tiny_negative(self):
        L = np.diag([1.0, -1e-12])
        C = psd_sqrt(L)
        assert C[1, 1] == 0.0


def test_operations_never_mutate_inputs():
    # 1 x m and transposed inputs are the aliasing-prone shapes
    for A in (np.array([[1.0, -3.0, 2.0]]), SplitMix64(2).normal_matrix(5, 3).T.copy()):
        A0 = A.copy()
        svd_full(A)
        orthonormalize(A.T)
        assert np.array_equal(A, A0)


class TestEighSym:
    def test_matches_numpy(self):
        G = _rand(21, 5, 5)
        S = G + G.T
        lam, V = eigh_sym(S)
        ref = np.sort(np.linalg.eigvalsh(S))
        assert np.allclose(np.sort(lam), ref, atol=1e-10)
        assert np.abs(S @ V - V * lam).max() < 1e-9

    @pytest.mark.parametrize("name", ["swap", "opposite-signs", "spd"])
    def test_residual_orthonormality_and_order(self, name):
        # eigenvalues of opposite sign sharing a magnitude (1 and -1, 3 and -3)
        # are the case sign recovery from an SVD cannot resolve
        Q = orthonormalize(_rand(22, 3, 3))
        G = _rand(23, 10, 10)
        S = {
            "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
            "opposite-signs": (Q * np.array([-3.0, 2.0, 3.0])) @ Q.T,
            "spd": G.T @ G + np.eye(10),
        }[name]
        S = 0.5 * (S + S.T)
        lam, V = eigh_sym(S)
        norm = np.linalg.norm(S, 2)
        assert np.linalg.norm(S @ V - V * lam, 2) <= 1e-12 * norm
        assert np.linalg.norm(V.T @ V - np.eye(S.shape[0]), 2) <= 1e-12
        assert np.all(np.diff(np.abs(lam)) <= 0.0)


@pytest.mark.parametrize("j", [-900, -300, -34, 0, 300, 900])
def test_symmetry_checks_are_relative_to_scale(j):
    # an absolute floor of 1 accepted any matrix below about 2**-34 as symmetric
    with pytest.raises(NotSymmetricError):
        eigh_sym(np.ldexp(np.array([[0.0, 1.0], [0.0, 0.0]]), j))
    with pytest.raises(NotSymmetricError):
        psd_sqrt(np.ldexp(np.array([[1.0, 0.5], [0.0, 1.0]]), j))
    L = np.ldexp(np.array([[2.0, 1.0], [1.0, 2.0]]), j)  # the same checks pass an SPD L
    C = psd_sqrt(L)
    assert np.abs(C @ C - L).max() <= 1e-14 * np.abs(L).max()
    assert np.array_equal(eigh_sym(L)[0], np.ldexp(eigh_sym(np.ldexp(L, -j))[0], j))


# (matrix, rank): wide and tall exercise the QR reduction on either side,
# odd r the round-robin bye, and the graded rows (scaled 1 .. 1e-12) the
# relative accuracy of the tiny singular values
_SHAPES = {
    "wide": (_rand(31, 9, 14), 9),
    "tall": (_rand(32, 14, 9), 9),
    "square": (_rand(33, 8, 8), 8),
    "odd-r": (_rand(34, 7, 12), 7),
    "rank-deficient": (_rand(35, 9, 3) @ _rand(36, 3, 14), 3),
    "graded": (np.logspace(0, -12, 9)[:, None] * _rand(37, 9, 14), 9),
}


@pytest.mark.parametrize("name", list(_SHAPES))
def test_svd_matches_lapack(name):
    A, rank = _SHAPES[name]
    ref = np.linalg.svd(A, compute_uv=False)
    t = min(A.shape)
    r = svd_full(A)
    for s in (r.S, singular_values(A)):
        assert (np.abs(s[:rank] - ref[:rank]) <= 1e-12 * ref[:rank]).all()
        # numerically zero singular values carry no relative accuracy
        assert np.abs(s[rank:]).max(initial=0.0) <= 1e-12 * ref[0]
    assert np.abs(r.U.T @ r.U - np.eye(t)).max() <= 1e-12
    assert np.abs(r.V.T @ r.V - np.eye(t)).max() <= 1e-12
    assert np.abs(r.U @ (r.S[:, None] * r.V.T) - A).max() <= 1e-12 * ref[0]


@pytest.mark.parametrize("name", list(_SHAPES))
def test_spectral_norm_matches_lapack(name):
    A, _ = _SHAPES[name]
    ref = np.linalg.norm(A, 2)
    assert abs(spectral_norm(A) - ref) <= 1e-9 * ref


@pytest.mark.parametrize("f", [spectral_norm, singular_values, svd_full, lambda A: svd_truncated(A, 1)],
                         ids=["spectral_norm", "singular_values", "svd_full", "svd_truncated"])
def test_sigma_beyond_the_float_range_is_a_typed_error(f):
    # every entry is finite, but sigma_1 = 1.7e308 * sqrt(240) is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="sigma_1 overflows the float range"):
            f(np.full((8, 30), 1.7e308))


def test_pow2_unscaled_returns_its_input_at_zero_exponent():
    x = np.array([np.inf, 1.0])
    assert linalg.pow2_unscaled(x, 0, "x") is x
    assert np.array_equal(linalg.pow2_unscaled(x[1:], -1074, "x"), [2.0**-1074])


@pytest.mark.parametrize("r", [7, 8])
def test_jacobi_kernel_orthogonalizes_rows(r):
    X0 = _rand(40 + r, r, r)
    X, R = X0.copy(), np.eye(r)
    sweeps = kernels.svd_jacobi_rows(X, R, 0.0, r)
    assert 1 <= sweeps < 60
    G = X @ X.T
    n = np.sqrt(np.diag(G))
    assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-13 * n.max() ** 2
    assert np.abs(R.T @ X - X0).max() <= 1e-13 * np.abs(X0).max()


@pytest.mark.parametrize("r", range(1, 10))
def test_round_robin_sweep_visits_every_pair_once(r):
    # a full sweep (every row polished) visits r(r-1)/2 pairs; a truncated SVD's
    # sweep visits only the pairs touching its leading rows (next test)
    pairs = []
    for I, J in kernels._round_robin(r, r):
        assert len(set(I) | set(J)) == 2 * I.size  # a round's pairs are disjoint
        pairs += zip(I.tolist(), J.tolist())
    assert sorted(pairs) == [(i, j) for i in range(r) for j in range(i + 1, r)]


def test_jacobi_sweep_cap_raises(monkeypatch):
    A = _rand(50, 9, 14)
    sweeps = []
    kernel = kernels.svd_jacobi_rows
    monkeypatch.setattr(kernels, "svd_jacobi_rows", lambda *a: sweeps.append(kernel(*a)) or sweeps[-1])
    svd_full(A)
    # the last sweep is the clean one: a cap of one fewer leaves rotations
    monkeypatch.setattr(kernels, "JACOBI_MAX_SWEEPS", sweeps[0])
    svd_full(A)
    monkeypatch.setattr(kernels, "JACOBI_MAX_SWEEPS", sweeps[0] - 1)
    with pytest.raises(NoConvergenceError):
        svd_full(A)


@pytest.mark.parametrize("j", [-300, 300])
def test_jacobi_kernel_orthogonalizes_rows_at_extreme_scales(j):
    # the rotation test must not overflow (products of squared norms near
    # 2**1200) or underflow (near 2**-1200) into a false convergence
    X0 = np.ldexp(_rand(44, 6, 6), j)
    X, R = X0.copy(), np.eye(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweeps = kernels.svd_jacobi_rows(X, R, 0.0, 6)
        G = X @ X.T
    assert 2 <= sweeps < 60
    n = np.sqrt(np.diag(G))
    assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-13 * n.max() ** 2
    assert np.abs(R.T @ X - X0).max() <= 1e-13 * np.abs(X0).max()


@pytest.mark.parametrize("r", range(1, 10))
def test_round_robin_lead_visits_every_leading_pair_once(r):
    for lead in range(r + 1):
        rounds = kernels._round_robin(r, lead)
        assert kernels._round_robin(r, lead) is rounds  # cached
        pairs = []
        for I, J in rounds:
            assert not (I.flags.writeable or J.flags.writeable)
            assert len(set(I) | set(J)) == 2 * I.size  # a round's pairs are disjoint
            pairs += zip(I.tolist(), J.tolist())
        assert sorted(pairs) == [(i, j) for i in range(lead) for j in range(i + 1, r)]


def _graded(seed, d, m, sigma):
    t = min(d, m)
    U = np.linalg.qr(_rand(seed, d, t))[0]
    V = np.linalg.qr(_rand(seed + 1, m, t))[0]
    return (U * sigma) @ V.T


# wide, tall, graded (sigma_i from 1 down to 1e-12: the top-k eigenspace
# stands apart for k <= 4, and larger k take the full sweep) and a noisy
# separable instance, whose tail is a cluster of near-equal noise values
_TRUNCATED = {
    "wide": _rand(61, 12, 90),
    "tall": _rand(62, 90, 12),
    "graded": _graded(63, 12, 70, np.logspace(0, -12, 12)),
    "graded-tall": _graded(64, 70, 12, np.logspace(0, -12, 12)),
    "noisy": generate_instance(40, 600, 3, 0.3, 104).A,
}


@pytest.mark.parametrize("name", list(_TRUNCATED))
def test_svd_truncated_matches_full_top_k(name):
    A = _TRUNCATED[name]
    f = svd_full(A)
    for k in (1, 2, 3, 4, 7, min(A.shape) - 1):
        t = svd_truncated(A, k)
        assert (np.abs(t.S - f.S[:k]) <= 1e-14 * f.S[:k]).all()
        # singular vectors move by about eps * sigma_1 / gap (Wedin)
        gap = np.min(f.S[:k] - f.S[1 : k + 1])
        sign = np.sign(np.sum(t.U * f.U[:, :k], axis=0))
        for got, ref in ((t.U, f.U), (t.V, f.V)):
            assert np.abs(got * sign - ref[:, :k]).max() <= 1e-13 * f.S[0] / gap


def test_svd_truncated_tied_sigma_k_runs_the_full_sweep(monkeypatch):
    # diag(4, 2, 2, 1) padded to 4 x 7: sigma_2 = sigma_3 exactly, so the top-2
    # eigenspace does not stand apart and every row pair is swept
    A = np.zeros((4, 7))
    A[[0, 1, 2, 3], [5, 0, 3, 1]] = [2.0, 4.0, 1.0, 2.0]
    leads = []
    kernel = kernels.svd_jacobi_rows
    monkeypatch.setattr(kernels, "svd_jacobi_rows", lambda *a: leads.append(a[3]) or kernel(*a))
    for k, lead in ((1, 1), (2, 4), (3, 3)):
        r = svd_truncated(A, k)
        assert leads.pop() == lead
        assert np.array_equal(r.S, [4.0, 2.0, 2.0][:k])
        assert np.abs(r.U.T @ r.U - np.eye(k)).max() <= 1e-15
        assert np.abs(r.V.T @ r.V - np.eye(k)).max() <= 1e-15
        assert np.abs(A @ r.V - r.U * r.S).max() <= 1e-15


def test_spectral_norm_near_tie_of_top_two():
    # the noise of this instance has nearly tied sigma_1 and sigma_2, which
    # stalled the former power iteration into NoConvergenceError
    inst = generate_instance(50, 2000, 10, 1.0, 13094 * 100_003)
    ref = np.linalg.norm(inst.N, 2)
    assert abs(spectral_norm(inst.N) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("shape", [(10, 80), (80, 10)])
def test_power_of_two_scaling_is_exact(shape):
    # beyond 2**±100 the Jacobi test's products of squared norms and the
    # Gram matrices would overflow or underflow without the rescaling
    A = _rand(52, *shape)
    s0, t0, n0 = singular_values(A), svd_truncated(A, 3).S, spectral_norm(A)
    for j in (-900, -500, -101, -60, 60, 101, 500, 900):
        Aj = np.ldexp(A, j)
        for got, ref in ((singular_values(Aj), s0), (svd_truncated(Aj, 3).S, t0)):
            assert (np.abs(np.ldexp(got, -j) - ref) <= 1e-13 * ref).all()
        assert abs(np.ldexp(spectral_norm(Aj), -j) - n0) <= 1e-13 * n0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32), st.integers(1, 40),
       st.integers(-900, 900))
def test_power_of_two_scaling_property(d, m, seed, k, j):
    A = _rand(seed, d, m)
    k = min(k, d, m)
    Aj = np.ldexp(A, j)
    for got, ref in ((singular_values(Aj), singular_values(A)),
                     (svd_truncated(Aj, k).S, svd_truncated(A, k).S)):
        assert (np.abs(np.ldexp(got, -j) - ref) <= 1e-13 * ref).all()


def _tiled_q(Y, tile_rows, Z):
    """(X, number of tiles, Q @ Z) of the tiled reduction of Y^T with
    _TILE_ROWS set to tile_rows."""
    with mock.patch.object(linalg, "_TILE_ROWS", tile_rows):
        X, top, tiles = linalg._tiled_qr(Y.T)
        return X, len(tiles), linalg._apply_q(top, tiles, Z)


# examples: r below, at and above the 16-reflector block and not a multiple
# of it; n just under and just over two tiles of max(_TILE_ROWS, 8 r) rows;
# r above _TILE_ROWS (tiles of 8 r rows)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 400), st.sampled_from([1, 8, 64, 2048]),
       st.integers(1, 40), st.integers(0, 2**32))
@example(5, 60, 8, 3, 1)
@example(16, 240, 8, 16, 2)
@example(17, 300, 8, 9, 3)
@example(33, 0, 8, 33, 4)
@example(4, 59, 32, 4, 5)
@example(4, 60, 32, 4, 6)
@example(20, 300, 8, 7, 7)
def test_tiled_qr_applies_the_reduced_q(r, extra, tile_rows, k, seed):
    k = min(k, r)
    Y = _rand(seed, r, r + extra)
    Z = orthonormalize(_rand(seed + 1, r, k))
    X, _, got = _tiled_q(Y, tile_rows, Z)
    Q, R = np.linalg.qr(Y.T)
    # the factorizations agree up to the signs of Q's columns (X = R^T)
    sign = np.sign(np.diag(X)) * np.sign(np.diag(R))
    assert np.abs(got - Q @ (sign[:, None] * Z)).max() <= 1e-13


@pytest.mark.parametrize("n, tiles", [(4095, 1), (4096, 2)])
def test_tiled_qr_splits_at_two_tile_heights(n, tiles):
    Y = _rand(71, 5, n)
    Z = np.eye(5)
    X, count, got = _tiled_q(Y, linalg._TILE_ROWS, Z)
    assert count == tiles
    Q, R = np.linalg.qr(Y.T)
    sign = np.sign(np.diag(X)) * np.sign(np.diag(R))
    assert np.abs(got - Q * sign).max() <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 400), st.sampled_from([1, 8, 2048]),
       st.integers(0, 39), st.integers(0, 2**32))
@example(20, 300, 8, 5, 1)
@example(17, 0, 2048, 16, 2)
def test_tiled_qr_with_a_zero_column(r, extra, tile_rows, zero, seed):
    # a zero column of Y^T gives tau = 0 in every tile and in the stack; Q is
    # then unique only up to the zero column, so check the factorization
    zero %= r
    Y = _rand(seed, r, r + extra)
    Y[zero] = 0.0
    X, _, Q = _tiled_q(Y, tile_rows, np.eye(r))
    assert np.abs(Q.T @ Q - np.eye(r)).max() <= 1e-13
    assert np.abs(Q @ X.T - Y.T).max() <= 1e-13 * np.linalg.norm(Y, 2)
    Q0, R0 = np.linalg.qr(Y.T)
    sign = np.sign(np.diag(X)[:zero]) * np.sign(np.diag(R0)[:zero])
    assert np.abs(Q[:, :zero] - Q0[:, :zero] * sign).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("shape", [(12, 4200), (4200, 12), (30, 5000)])
def test_svd_on_tiled_shapes(shape):
    A = _rand(72, *shape)
    assert len(linalg._tiled_qr(A.T if shape[0] < shape[1] else A)[2]) >= 2
    ref = np.linalg.svd(A, compute_uv=False)
    t = min(shape)
    f = svd_full(A)
    assert (np.abs(f.S - ref) <= 1e-12 * ref).all()
    assert np.abs(f.U.T @ f.U - np.eye(t)).max() <= 1e-12
    assert np.abs(f.V.T @ f.V - np.eye(t)).max() <= 1e-12
    assert np.abs(f.U @ (f.S[:, None] * f.V.T) - A).max() <= 1e-12 * ref[0]
    for k in (1, 3, t - 1):
        tr = svd_truncated(A, k)
        assert np.abs(tr.U.T @ tr.U - np.eye(k)).max() <= 1e-12
        assert np.abs(tr.V.T @ tr.V - np.eye(k)).max() <= 1e-12
        assert np.abs(A @ tr.V - tr.U * tr.S).max() <= 1e-12 * ref[0]
