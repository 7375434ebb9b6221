import time

import numpy as np
import pytest
from oracles import naive_spa

from sepnmf.errors import BadRankError, RankDeficientError
from sepnmf.linalg import singular_values
from sepnmf.metrics import recovery_rate
from sepnmf.rng import SplitMix64
from sepnmf.spa import spa_select
from sepnmf.synth import generate_instance, robust_noise_bound


class TestSelection:
    def test_forced_two_column_pick(self):
        A = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        assert spa_select(A, 2).tolist() == [0, 1]

    def test_identity_ties_break_low(self):
        assert spa_select(np.eye(3), 3).tolist() == [0, 1, 2]

    def test_zero_noise_recovers_truth(self):
        inst = generate_instance(6, 40, 4, 0.0, seed=21)
        idx = spa_select(inst.A, 4)
        assert set(idx.tolist()) == set(inst.true_indices.tolist())
        assert np.array_equal(np.sort(idx), np.sort(naive_spa(inst.A, 4)))

    def test_bad_rank(self):
        with pytest.raises(BadRankError):
            spa_select(np.eye(3), 4)

    def test_degenerate_input(self):
        A = np.outer(np.arange(1.0, 5.0), np.ones(6))  # rank one
        with pytest.raises(RankDeficientError):
            spa_select(A, 2)

    @pytest.mark.parametrize("eta", [3e-9, 1e-10, 1e-11])
    def test_small_residual_above_floor_is_picked(self, eta):
        # the second residual 2 eta lies far above the floor 1.4e-12 but below
        # what the squared-norm downdate resolves
        assert spa_select(np.array([[1.0, 1.0], [eta, -eta]]), 2).tolist() == [0, 1]

    def test_residual_below_floor_still_degenerate(self):
        with pytest.raises(RankDeficientError):
            spa_select(np.array([[1.0, 1.0], [1e-13, -1e-13]]), 2)

    def test_matches_naive_oracle_many_seeds(self):
        # wide, tall and square inputs up to k = min(d, m): the last round
        # projects its pivot off min(d, m) - 1 picks, and the wide and square
        # shapes' k = d picks span R^d
        for seed in range(40):
            for d, m in ((10, 50), (50, 10), (12, 12)):
                A = SplitMix64(seed).normal_matrix(d, m)
                for k in sorted({1, 3, 8, min(d, m)}):
                    assert spa_select(A, k).tolist() == naive_spa(A, k).tolist(), (seed, d, m, k)

    def test_residual_monotonicity(self):
        A = SplitMix64(77).normal_matrix(15, 60)
        # re-run the rounds manually, tracking the chosen squared norms
        S = A.copy()
        chosen = []
        for j in spa_select(A, 10):
            norms = (S * S).sum(axis=0)
            chosen.append(norms.max())
            t = S[:, j]
            S = S - np.outer(t, t) @ S / float(t @ t)
        assert all(chosen[i + 1] <= chosen[i] + 1e-10 for i in range(len(chosen) - 1))


class TestRobustness:
    def test_selected_columns_near_distinct_basis_columns(self):
        # noise inside the column-wise robustness hypothesis: every pick lands
        # within (80 kappa^2 + 1) eps of its own basis column
        hits = 0
        for seed in range(10):
            base = generate_instance(15, 120, 5, 1.0, seed=300 + seed)
            bound = robust_noise_bound(base.F)
            inst = generate_instance(15, 120, 5, 0.8 * bound, seed=300 + seed)
            eps = float(np.linalg.norm(inst.N, axis=0).max())
            s = singular_values(inst.F)
            gap = (80.0 * (s[0] / s[-1]) ** 2 + 1.0) * eps
            idx = spa_select(inst.A, 5)
            used = set()
            for j in idx:
                dists = np.linalg.norm(inst.F - inst.A[:, [j]], axis=0)
                order = np.argsort(dists)
                pick = next(int(c) for c in order if c not in used)
                used.add(pick)
                assert dists[pick] <= gap
            hits += 1
        assert hits == 10


def _time_spa(d, m, k, seed, reps=5):
    A = np.ascontiguousarray(SplitMix64(seed).normal_matrix(d, m))
    spa_select(A, k)  # warm
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        spa_select(A, k)
        best = min(best, time.perf_counter() - t0)
    return best


def test_linear_scaling_in_m():
    t1 = _time_spa(20, 40_000, 5, seed=1)
    t2 = _time_spa(20, 80_000, 5, seed=2)
    assert t2 <= 3.0 * t1 + 1e-3
