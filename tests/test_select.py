import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import quadratic_forms

from sepnmf import bench, lowrank
from sepnmf import select as select_module
from sepnmf.errors import BadRankError, RankDeficientError, SepnmfError
from sepnmf.linalg import spectral_norm, svd_truncated
from sepnmf.metrics import recovery_rate
from sepnmf.mvee import solve_mvee
from sepnmf.rng import SplitMix64
from sepnmf.select import (
    DEFAULT_BOUNDARY_TOL,
    DEFAULT_EPS,
    DEFAULT_Q,
    SELECTOR_NAMES,
    SELECTORS,
    Analysis,
    erspa_select,
    merspa_select,
    mpspa_select,
    prewhiten_spa_select,
    pspa_select,
    select,
    spaspa_select,
)
from sepnmf.spa import spa_select
from sepnmf.synth import generate_instance, rescale_noise, sigma_min

ALL_SELECTORS = [
    ("pspa", lambda A, k: pspa_select(A, k)),
    ("mpspa_q0", lambda A, k: mpspa_select(A, k, 0)),
    ("mpspa_q1", lambda A, k: mpspa_select(A, k, 1)),
    ("mpspa_q10", lambda A, k: mpspa_select(A, k, 10)),
    ("erspa", lambda A, k: erspa_select(A, k)),
    ("merspa_q10", lambda A, k: merspa_select(A, k, 10)),
    ("prewhiten", lambda A, k: prewhiten_spa_select(A, k)),
    ("spaspa", lambda A, k: spaspa_select(A, k)),
]


@pytest.mark.parametrize("name,fn", ALL_SELECTORS)
def test_zero_noise_exactness(name, fn):
    inst = generate_instance(8, 60, 4, 0.0, seed=33)
    res = fn(inst.A, 4)
    assert recovery_rate(res.indices, inst.true_indices) == 1.0
    assert res.method in name


@pytest.mark.parametrize("name,fn", ALL_SELECTORS)
def test_full_distinct_index_sets_on_noisy_data(name, fn):
    inst = generate_instance(12, 90, 5, 0.6, seed=8)
    res = fn(inst.A, 5)
    idx = np.asarray(res.indices)
    assert idx.size == 5
    assert len(set(idx.tolist())) == 5
    assert ((0 <= idx) & (idx < 90)).all()


def test_rotation_preserves_gram_geometry():
    inst = generate_instance(15, 120, 4, 0.3, seed=14)
    A = inst.A
    f = svd_truncated(A, 4)
    P = f.S[:, None] * f.V.T
    Ak = f.U @ (f.S[:, None] * f.V.T)
    assert spectral_norm(P) == pytest.approx(spectral_norm(Ak), rel=1e-10)
    assert spectral_norm(P.T @ P - Ak.T @ Ak) <= 1e-8 * spectral_norm(A) ** 2


def test_pspa_k1_falls_back_to_plain_selection():
    inst = generate_instance(6, 30, 2, 0.0, seed=2)
    res = pspa_select(inst.A, 1)
    assert res.indices.tolist() == spa_select(inst.A, 1).tolist()
    assert res.notes


def test_pspa_rank_deficient_signals():
    u = np.abs(SplitMix64(1).normal(8)).reshape(-1, 1)
    v = np.abs(SplitMix64(2).normal(20)).reshape(1, -1)
    A = u @ v  # rank one
    with pytest.raises((RankDeficientError, BadRankError)):
        pspa_select(A, 3)


def test_mpspa_matches_pspa_at_high_q():
    inst = generate_instance(20, 150, 4, 0.4, seed=19)
    p = pspa_select(inst.A, 4)
    m = mpspa_select(inst.A, 4, 15)
    assert set(p.indices.tolist()) == set(m.indices.tolist())


def test_erspa_exact_boundary_count():
    # the symmetrized cross-polytope: exactly k boundary points, no tie-break
    P = np.concatenate([np.eye(3), 0.3 * SplitMix64(4).uniform(30).reshape(3, 10)], axis=1)
    res = erspa_select(P, 3)
    assert set(res.indices.tolist()) == {0, 1, 2}
    assert not res.notes


def test_erspa_fallback_when_boundary_sparse():
    # a Gaussian matrix: the ascent runs, so its support meets the boundary
    # only to within eps, not 1e-15
    A = SplitMix64(41).normal_matrix(10, 80)
    res = select(A, 4, "erspa", boundary_tol=1e-15)
    assert res.indices.size == 4
    assert res.notes  # warning flag recorded


def test_erspa_candidates_cover_truth_at_zero_noise():
    inst = generate_instance(10, 80, 4, 0.0, seed=42)
    f = svd_truncated(inst.A, 4)
    P = f.S[:, None] * f.V.T
    ell = solve_mvee(P, 1e-6)
    vals = quadratic_forms(P, ell.L)
    cand = set(np.flatnonzero(np.abs(vals - 1.0) <= 1e-3).tolist())
    assert set(inst.true_indices.tolist()) <= cand
    res = erspa_select(inst.A, 4)
    assert set(res.indices.tolist()) == set(inst.true_indices.tolist())


def test_spaspa_scaled_isometry_is_noop():
    # first-pass picks are orthogonal columns of equal norm, so the whitening
    # is a scaled isometry and cannot change any argmax ordering
    r = SplitMix64(11)
    Q = np.linalg.qr(r.normal_matrix(10, 3))[0] * 2.0
    H = r.dirichlet_columns(np.array([0.7, 0.7, 0.7]), 8)
    A = np.concatenate([Q, 0.9 * (Q @ H)], axis=1)
    plain = spa_select(A, 3)
    assert set(plain.tolist()) == {0, 1, 2}
    res = spaspa_select(A, 3)
    # pick order among exactly-equal norms is roundoff luck on both paths
    assert set(res.indices.tolist()) == set(plain.tolist())


def test_prewhiten_unit_norms_for_orthonormal_basis():
    # whitening an orthonormal basis maps every column to unit norm
    Q = np.linalg.qr(SplitMix64(13).normal_matrix(12, 3))[0]
    res = prewhiten_spa_select(Q, 3)
    f = svd_truncated(Q, 3)
    C = f.U.T / f.S[:, None]
    norms = np.linalg.norm((C @ Q)[:, res.indices], axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-10


def test_recovery_trends_on_seeded_batch():
    # small batch mirroring the selector comparison: mean recovery of the
    # subspace-compressed variant is nondecreasing in q (2% slack) and lands
    # within 5% of the exact-SVD variant at q = 15; same for the
    # boundary-candidate pair
    q_grid = (1, 2, 5, 10, 15)
    rec = {("mpspa", q): [] for q in q_grid}
    rec[("pspa", None)] = []
    rec[("erspa", None)] = []
    rec[("merspa", 15)] = []
    for i in range(8):
        base = generate_instance(30, 400, 5, 1.0, seed=700 + i)
        from sepnmf.synth import rescale_noise, sigma_min

        for t in (0.5, 1.5):
            inst = rescale_noise(base, t * sigma_min(base.F))
            truth = inst.true_indices
            for q in q_grid:
                rec[("mpspa", q)].append(
                    recovery_rate(mpspa_select(inst.A, 5, q).indices, truth)
                )
            rec[("pspa", None)].append(recovery_rate(pspa_select(inst.A, 5).indices, truth))
            rec[("erspa", None)].append(recovery_rate(erspa_select(inst.A, 5).indices, truth))
            rec[("merspa", 15)].append(
                recovery_rate(merspa_select(inst.A, 5, 15).indices, truth)
            )
    means = {key: float(np.mean(v)) for key, v in rec.items()}
    for qa, qb in zip(q_grid, q_grid[1:]):
        assert means[("mpspa", qb)] >= means[("mpspa", qa)] - 0.02
    assert abs(means[("mpspa", 15)] - means[("pspa", None)]) <= 0.05
    assert means[("merspa", 15)] >= means[("erspa", None)] - 0.05


def test_selector_timing_recorded():
    inst = generate_instance(10, 60, 3, 0.1, seed=3)
    res = pspa_select(inst.A, 3)
    assert {"svd", "mvee", "sqrt", "spa"} <= set(res.timing)
    assert all(v >= 0 for v in res.timing.values())


NAMED_SELECTORS = {
    "spa": spa_select,
    "pspa": lambda A, k: pspa_select(A, k).indices,
    "mpspa": lambda A, k: mpspa_select(A, k, DEFAULT_Q).indices,
    "erspa": lambda A, k: erspa_select(A, k).indices,
    "merspa": lambda A, k: merspa_select(A, k, DEFAULT_Q).indices,
    "prewhiten": lambda A, k: prewhiten_spa_select(A, k).indices,
    "spaspa": lambda A, k: spaspa_select(A, k).indices,
}


@pytest.mark.parametrize("method", SELECTOR_NAMES)
def test_select_matches_named_function(method):
    inst = generate_instance(12, 90, 5, 0.6, seed=8)
    res = select(inst.A, 5, method)
    assert res.method == method
    assert res.indices.tolist() == NAMED_SELECTORS[method](inst.A, 5).tolist()


def test_select_q_default_and_unknown_method():
    inst = generate_instance(10, 60, 3, 0.1, seed=3)
    assert select(inst.A, 3, "merspa").q == DEFAULT_Q
    assert select(inst.A, 3, "pspa", q=4).q is None
    with pytest.raises(ValueError):
        select(inst.A, 3, "bogus")


# every method, the subspace ones at several exponents, so one Analysis
# holds a subspace basis per q, on the alternating chain and on Gram rounds
SHARED_RUNS = [
    (method, q)
    for method in SELECTOR_NAMES
    for q in ((0, 1, 2, 15) if SELECTORS[method][0] == "subspace" else (None,))
]


def _assert_same_result(got, want):
    assert got.method == want.method
    assert got.indices.dtype == want.indices.dtype
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.q == want.q
    assert got.notes == want.notes


@pytest.mark.parametrize("runs", [SHARED_RUNS, SHARED_RUNS[::-1]], ids=["forward", "reversed"])
def test_shared_analysis_matches_fresh_select(runs):
    # wide inputs run their power rounds on Gram rounds at every q >= 1; a tall
    # input keeps the alternating chain throughout
    for d, m, k in ((12, 90, 5), (50, 2000, 10), (90, 40, 5)):
        inst = generate_instance(d, m, k, 0.6, seed=8)
        analysis = Analysis(inst.A, k)
        for method, q in runs:
            _assert_same_result(analysis.select(method, q), select(inst.A, k, method, q))
        # a boundary tolerance at which some of these fall back to whitened
        # selection, after the ellipsoids are shared
        for method in ("erspa", "merspa"):
            got = analysis.select(method, boundary_tol=1e-15)
            _assert_same_result(got, select(inst.A, k, method, boundary_tol=1e-15))


@pytest.mark.parametrize("d, m, k", [(12, 90, 5), (50, 2000, 10), (90, 40, 5)])
def test_shared_basis_matches_fresh_basis(monkeypatch, d, m, k):
    # the ellipsoid's input P = Q^T A, bit for bit: a shared basis built any
    # other way than a fresh one could pick alike but differ here
    inst = generate_instance(d, m, k, 0.6, seed=8)
    seen, solve = [], select_module.solve_mvee
    monkeypatch.setattr(select_module, "solve_mvee",
                        lambda P, eps: seen.append(P.tobytes()) or solve(P, eps))
    analysis = Analysis(inst.A, k)
    for q in (1, 2, 15):
        seen.clear()
        analysis.select("mpspa", q)
        select(inst.A, k, "mpspa", q)
        assert len(seen) == 2 and seen[0] == seen[1], q


def test_analysis_forms_one_gram_matrix(monkeypatch):
    # at 50 x 2000, k = 10, q = 1 forms the one G of the matrix and every
    # later q runs its Gram rounds on it
    inst = generate_instance(50, 2000, 10, 0.6, seed=8)
    formed, form = [], lowrank.gram_matrix
    monkeypatch.setattr(lowrank, "gram_matrix", lambda A: formed.append(1) or form(A))
    analysis = Analysis(inst.A, 10)
    analysis.select("mpspa", 1)
    assert formed == [1]
    for q in (2, 5, 10, 15):
        analysis.select("merspa", q)
    assert formed == [1]


@pytest.mark.parametrize("d, m, k, q", [(50, 2000, 10, 1), (52, 3000, 3, 4)],
                         ids=["select-grid-mpspa1", "unmix-mpspa4"])
@pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
def test_gram_rounds_keep_the_chains_subspace_and_picks(monkeypatch, d, m, k, q, t):
    # shapes the shape rule moved from the alternating chain onto G: select-grid's
    # mpspa:1 and unmix's mpspa at q = 4 on a cube 1/3 the size; a refused guard
    # restarts the chain
    base = generate_instance(d, m, k, 1.0, seed=2)
    A = rescale_noise(base, t * sigma_min(base.F)).A
    analysis = Analysis(A, k)
    start = np.ascontiguousarray(analysis.A[:, analysis._seed()])
    Q_gram, picks = analysis._basis(q), analysis.select("mpspa", q).indices
    monkeypatch.setattr(lowrank, "gram_resolves", lambda lam: False)
    Q_chain = lowrank.subspace_basis(analysis.A, start, q, analysis._gram())
    assert Q_gram.tobytes() != Q_chain.tobytes()
    assert np.linalg.norm(Q_gram @ Q_gram.T - Q_chain @ Q_chain.T, 2) <= 1e-12
    assert sorted(select(A, k, "mpspa", q).indices) == sorted(picks)


def test_shared_results_do_not_alias_the_analysis():
    # spa's indices are the shared first pass
    inst = generate_instance(12, 90, 5, 0.6, seed=8)
    analysis = Analysis(inst.A, 5)
    analysis.select("spa").indices[:] = 0
    _assert_same_result(analysis.select("mpspa"), select(inst.A, 5, "mpspa"))
    _assert_same_result(analysis.select("erspa"), select(inst.A, 5, "erspa"))


def _outcome(run):
    try:
        return run()
    except SepnmfError as exc:
        return type(exc), str(exc)


def test_failed_method_leaves_other_methods_unchanged():
    # rank 3 at k = 4: prewhiten fails after the SVD it shares is computed
    inst = generate_instance(10, 60, 3, 0.0, seed=5)
    analysis = Analysis(inst.A, 4)
    with pytest.raises(BadRankError):
        analysis.select("prewhiten")
    for method, q in SHARED_RUNS:
        got = _outcome(lambda: analysis.select(method, q))
        want = _outcome(lambda: select(inst.A, 4, method, q))
        if isinstance(want, tuple):
            assert got == want, method
        else:
            _assert_same_result(got, want)


def test_grid_instance_runs_each_shared_stage_once(monkeypatch):
    # the eight methods of perfbench's select-grid workload on one instance
    methods = (("spa", None), ("pspa", None), ("mpspa", 1), ("mpspa", 15),
               ("erspa", None), ("merspa", 15), ("prewhiten", None), ("spaspa", None))
    d, m, k = 20, 150, 4
    calls = {"svd_truncated": 0, "gram_matrix": 0, "solve_mvee": 0, "seed": 0}
    # the seed, G and the top-k factors are RankK stages, read in lowrank; the ellipsoid in select
    modules = {"svd_truncated": lowrank, "gram_matrix": lowrank,
               "solve_mvee": select_module, "spa_core": lowrank}
    wrapped = {name: getattr(module, name) for name, module in modules.items()}

    def counted(name):
        def wrapper(X, *args):
            # lowrank calls spa_core only for the first pass on A; select calls its own for picks
            calls["seed" if name == "spa_core" else name] += 1
            return wrapped[name](X, *args)
        return wrapper

    for name, module in modules.items():
        monkeypatch.setattr(module, name, counted(name))
    task = (d, m, k, 3, methods, (0.5,), DEFAULT_EPS, DEFAULT_BOUNDARY_TOL, "sigmin")
    rows = bench._fig2_worker(task)
    assert len(rows) == len(methods)
    # G resolves the top 4, so pspa, erspa and prewhiten take their factors
    # from the one G that mpspa:15 and merspa:15 run on
    assert calls == {"svd_truncated": 0, "gram_matrix": 1, "solve_mvee": 3, "seed": 1}


def _graded_instance(ratio, seed, d=30, m=400, k=5):
    """generate_instance(d, m, k, 1.0, seed) with its basis's singular values
    set to geomspace(1, ratio, k) and its noise scaled to 1e-3 * ratio."""
    inst = generate_instance(d, m, k, 1.0, seed)
    U, _, Vt = np.linalg.svd(inst.F, full_matrices=False)
    W = np.zeros((k, m))
    W[:, inst.permutation] = np.concatenate([np.eye(k), inst.H], axis=1)
    return (U * np.geomspace(1.0, ratio, k)) @ Vt @ W + 1e-3 * ratio * inst.N


SVD_METHODS = ("pspa", "erspa", "prewhiten")


def _jacobi_outcomes(monkeypatch, A, k):
    """Each svd-compress method's result or (error type, message) on A, with
    its factors from svd_truncated(A, k) as on every input G does not resolve,
    and the number of svd_truncated and gram_matrix calls the plain run made."""
    calls = {"svd_truncated": 0, "gram_matrix": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("svd_truncated", "gram_matrix"):
        monkeypatch.setattr(lowrank, name, counted(name, getattr(lowrank, name)))
    analysis = Analysis(A, k)
    plain = {method: _outcome(lambda: analysis.select(method)) for method in SVD_METHODS}
    made = dict(calls)
    monkeypatch.setattr(lowrank, "gram_resolves", lambda lam: False)
    jacobi = Analysis(A, k)
    return plain, {method: _outcome(lambda: jacobi.select(method)) for method in SVD_METHODS}, made


@pytest.mark.parametrize("ratio", [5e-2, 1e-3, 2e-4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_factors_pick_the_jacobi_index_sets(monkeypatch, ratio, seed):
    # lambda_k / lambda_1 ~ ratio^2 clears the 1e-10 bar: no svd_truncated
    plain, jacobi, calls = _jacobi_outcomes(monkeypatch, _graded_instance(ratio, seed), 5)
    assert calls == {"svd_truncated": 0, "gram_matrix": 1}
    for method in SVD_METHODS:
        assert sorted(plain[method].indices) == sorted(jacobi[method].indices), method


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        _assert_same_result(got, want)


@pytest.mark.parametrize("make, k, grams, rank", [
    (lambda: _graded_instance(1e-6, 1), 5, 1, None),
    (lambda: _graded_instance(1e-7, 1), 5, 1, None),
    (lambda: generate_instance(10, 60, 3, 0.0, seed=5).A, 4, 1, 3),
    (lambda: generate_instance(30, 400, 3, 0.0, seed=5).A, 5, 1, 3),
    (lambda: generate_instance(50, 2000, 8, 0.0, seed=5).A, 10, 1, 8),
    (lambda: generate_instance(60, 40, 5, 0.5, seed=3).A, 5, 0, None),
], ids=["graded-1e-6", "graded-1e-7", "rank3-10x60", "rank3-30x400", "rank8-50x2000", "tall"])
def test_svd_stage_is_the_jacobi_svd_below_the_bar_and_on_tall_input(
        monkeypatch, make, k, grams, rank):
    # lambda_k / lambda_1 below 1e-10 (ratio^2, or roundoff at rank < k):
    # G is formed and refused; a tall input forms none
    plain, jacobi, calls = _jacobi_outcomes(monkeypatch, make(), k)
    assert calls == {"svd_truncated": 1, "gram_matrix": grams}
    for method in SVD_METHODS:
        _assert_same_outcome(plain[method], jacobi[method])
    if rank is not None:
        assert plain["pspa"] == (RankDeficientError,
                                 f"residual norms exhausted after {rank} of {k} rounds")
        assert plain["prewhiten"] == (BadRankError, f"prewhiten: sigma_{k} is numerically zero")


def _graded_spectrum(ratio, tail, d, m, k, seed):
    """(A, s): d x m with sigma_1..sigma_k = geomspace(1, ratio, k) and the
    rest falling tenfold from tail * ratio."""
    U = np.linalg.qr(SplitMix64(seed).normal_matrix(d, d))[0]
    V = np.linalg.qr(SplitMix64(seed + 1).normal_matrix(m, d))[0]
    s = np.concatenate([np.geomspace(1.0, ratio, k), tail * ratio * np.geomspace(1.0, 0.1, d - k)])
    return np.ascontiguousarray((U * s) @ V.T), s


@pytest.mark.parametrize("d, m, k", [(10, 60, 4), (30, 400, 5), (50, 2000, 10)])
@pytest.mark.parametrize("ratio", [1e-1, 1e-3, 3e-5])
@pytest.mark.parametrize("tail", [0.0, 0.5, 0.9])
def test_gram_factors_span_the_jacobi_subspace(d, m, k, ratio, tail):
    # sin of the largest angle between range(U_k) from G and from the Jacobi
    # SVD, against eps sigma_1^2 / (sigma_k^2 - sigma_{k+1}^2); P = U_k^T A
    A, s = _graded_spectrum(ratio, tail, d, m, k, seed=5)
    U, S, P = Analysis(A, k)._top_factors()
    f = svd_truncated(A, k)
    assert P.tobytes() == np.ascontiguousarray(U.T @ A).tobytes()
    gap = np.finfo(float).eps * s[0] ** 2 / (s[k - 1] ** 2 - s[k] ** 2)
    assert np.linalg.norm(U - f.U @ (f.U.T @ U), 2) <= 8 * gap
    # the pairs come in the same order: sigma_j with +-u_j
    np.testing.assert_allclose(S, f.S, rtol=8 * gap)
    np.testing.assert_allclose(np.abs(np.sum(U * f.U, axis=0)), 1.0, atol=8 * gap)


# fixed noisy instances: (d, m, k, noise in units of sigma_min(F), seed)
SCALED = [(10, 80, 3, 0.0, 7), (10, 80, 3, 0.5, 7), (30, 400, 5, 0.0, 3),
          (30, 400, 5, 1.0, 11), (50, 2000, 10, 0.5, 1)]


@functools.cache
def _scaled_case(i):
    """SCALED[i]'s matrix, k and the indices every selector picks on it."""
    d, m, k, t, seed = SCALED[i]
    base = generate_instance(d, m, k, 1.0, seed)
    A = rescale_noise(base, t * sigma_min(base.F)).A
    analysis = Analysis(A, k)
    return A, k, {method: analysis.select(method).indices for method in SELECTOR_NAMES}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(SCALED))), st.sampled_from(SELECTOR_NAMES),
       st.integers(-900, 900))
@example(0, "prewhiten", 532)
@example(4, "spaspa", -900)
@example(4, "mpspa", 900)
def test_picks_do_not_depend_on_power_of_two_scaling(i, method, j):
    A, k, want = _scaled_case(i)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = select(np.ldexp(A, j), k, method).indices
    assert got.tobytes() == want[method].tobytes()


# the select-grid benchmark's eight methods, as (name, q)
GRID_METHODS = (("spa", None), ("pspa", None), ("mpspa", 1), ("mpspa", 15), ("erspa", None),
                ("merspa", 15), ("prewhiten", None), ("spaspa", None))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([(10, 80, 3), (20, 150, 4), (30, 400, 5)]), st.integers(1, 10_000),
       st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_picked_set_commutes_with_column_permutation(shape, seed, t, perm_seed):
    # noise up to sigma_min(F); column j of A[:, perm] is column perm[j] of A
    d, m, k = shape
    base = generate_instance(d, m, k, 1.0, seed)
    A = rescale_noise(base, t * sigma_min(base.F)).A
    perm = SplitMix64(perm_seed).permutation(m)
    plain, permuted = Analysis(A, k), Analysis(A[:, perm], k)
    for method, q in GRID_METHODS:
        want = sorted(plain.select(method, q).indices.tolist())
        got = sorted(perm[permuted.select(method, q).indices].tolist())
        assert got == want, (method, q)
