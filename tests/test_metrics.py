import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import simplex_lsq_oracle, sort_simplex_projection

from sepnmf import metrics
from sepnmf.errors import (
    NoConvergenceError,
    RankDeficientBasisError,
    SizeMismatchError,
    ZeroVectorError,
)
from sepnmf.metrics import (
    estimate_abundances,
    project_rows_to_simplex,
    recovery_rate,
    spectral_angle_distance,
)
from sepnmf.rng import SplitMix64


class TestRecoveryRate:
    def test_partial(self):
        assert recovery_rate([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)

    def test_exact(self):
        assert recovery_rate([5, 1, 9], [9, 5, 1]) == 1.0

    def test_disjoint(self):
        assert recovery_rate([1, 2], [3, 4]) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            recovery_rate([1, 2], [1, 2, 3])


class TestSpectralAngle:
    def test_zero_for_equal(self):
        # arccos amplifies roundoff near 1, so exact zero is not attainable
        assert spectral_angle_distance([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-7)

    def test_forty_five_degrees(self):
        assert spectral_angle_distance([1, 0], [1, 1]) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_orthogonal(self):
        assert spectral_angle_distance([1, 0], [0, 1]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        r = SplitMix64(4)
        f, g = r.normal(10), r.normal(10)
        a = spectral_angle_distance(f, g)
        assert spectral_angle_distance(g, f) == pytest.approx(a, abs=1e-12)
        assert spectral_angle_distance(3.7 * f, g) == pytest.approx(a, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            spectral_angle_distance([0.0, 0.0], [1.0, 0.0])


class TestSimplexProjection:
    def test_idempotent_on_feasible(self):
        W = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        assert np.abs(project_rows_to_simplex(W) - W).max() <= 1e-12

    def test_projection_properties(self):
        V = SplitMix64(3).normal_matrix(200, 6) * 3.0
        W = project_rows_to_simplex(V)
        assert (W >= 0).all()
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-9
        # projection is the closest feasible point: no feasible vertex is closer
        d_w = np.sum((V - W) ** 2, axis=1)
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1.0
            assert (d_w <= np.sum((V - e) ** 2, axis=1) + 1e-12).all()

    @pytest.mark.parametrize("v, want", [
        pytest.param([1e17] * 3, [1 / 3] * 3, id="huge-tie"),
        pytest.param([1e17, 1e17 - 64, 0.0], [1.0, 0.0, 0.0], id="huge-gap"),
        pytest.param([1e-300] * 4, [0.25] * 4, id="tiny-tie"),
        pytest.param([1e-300, 0.0], [0.5, 0.5], id="tiny-gap"),
        pytest.param([-7.5], [1.0], id="k1"),
        pytest.param([2.0, 2.0, -1.0, 2.0], [1 / 3, 1 / 3, 0.0, 1 / 3], id="tie-on-support"),
        pytest.param([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], id="tie-at-threshold"),
        pytest.param([1e308, -1e308, 5.0], [1.0, 0.0, 0.0], id="span-overflows"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_scale_and_ties_stay_on_simplex(self, v, want):
        w = project_rows_to_simplex([v])[0]
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.abs(w - want).max() <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 8).flatmap(lambda k: st.lists(
            st.lists(st.integers(-64, 64), min_size=k, max_size=k), min_size=1, max_size=6)),
        st.integers(-30, 30),
    )
    def test_matches_sort_oracle(self, rows, j):
        # quarter steps times 2^j are exact, ties common and the oracle's sums exact
        V = np.ldexp(np.array(rows, dtype=float) / 4, j)
        want = sort_simplex_projection(V)
        tol = 1e-15 * max(1.0, np.abs(V).max())
        assert np.abs(project_rows_to_simplex(V) - want).max() <= tol

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=1, max_size=8).filter(any))
    def test_feasible_point_is_fixed(self, counts):
        w = np.array(counts, dtype=float) / sum(counts)
        assert np.abs(project_rows_to_simplex([w])[0] - w).max() <= 1e-15


class TestAbundances:
    def test_pure_vertex(self):
        F = SplitMix64(5).uniform(24).reshape(6, 4)
        res = estimate_abundances(F, F[:, [0]])
        assert np.abs(res.W[:, 0] - [1, 0, 0, 0]).max() <= 1e-6

    def test_interior_mixture(self):
        F = SplitMix64(6).uniform(60).reshape(15, 4)
        a = 0.5 * F[:, 0] + 0.5 * F[:, 1]
        res = estimate_abundances(F, a.reshape(-1, 1))
        assert np.abs(res.W[:, 0] - [0.5, 0.5, 0, 0]).max() <= 1e-6

    def test_columns_on_simplex(self):
        r = SplitMix64(7)
        F = r.uniform(40).reshape(10, 4)
        A = r.normal_matrix(10, 25)
        res = estimate_abundances(F, A)
        assert (res.W >= -1e-12).all()
        assert np.abs(res.W.sum(axis=0) - 1.0).max() <= 1e-8

    def test_matches_support_enumeration_oracle(self):
        r = SplitMix64(8)
        for case in range(50):
            k = 2 + case % 5  # up to k = 6
            F = r.normal_matrix(8, k)
            a = 2.0 * r.normal(8)  # generally outside the cone
            res = estimate_abundances(F, a.reshape(-1, 1))
            w_star, obj_star = simplex_lsq_oracle(F, a)
            obj = float(np.sum((F @ res.W[:, 0] - a) ** 2))
            assert obj <= obj_star + 1e-6
            assert np.abs(res.W[:, 0] - w_star).max() <= 1e-4

    def test_no_feasible_descent_direction(self):
        r = SplitMix64(9)
        F = r.uniform(36).reshape(9, 4)
        A = r.normal_matrix(9, 12)
        res = estimate_abundances(F, A)
        obj0 = np.sum((F @ res.W - A) ** 2, axis=0)
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = rng.standard_normal(4)
            d -= d.mean()  # stay on the affine hull of the simplex
            for s in (1e-4, -1e-4):
                W2 = project_rows_to_simplex((res.W + s * d[:, None]).T).T
                obj2 = np.sum((F @ W2 - A) ** 2, axis=0)
                assert (obj2 >= obj0 - 1e-9).all()

    def test_rank_deficient_basis(self):
        F = np.ones((6, 3))
        with pytest.raises(RankDeficientBasisError):
            estimate_abundances(F, np.ones((6, 2)))

    def test_residuals_reported(self):
        F = SplitMix64(10).uniform(20).reshape(5, 4)
        a = F @ np.array([0.25, 0.25, 0.25, 0.25])
        res = estimate_abundances(F, a.reshape(-1, 1))
        assert np.linalg.norm(F @ res.W[:, 0] - a) <= 1e-6

    def test_iteration_cap_raises(self, monkeypatch):
        r = SplitMix64(7)
        F = r.uniform(40).reshape(10, 4)
        A = r.normal_matrix(10, 25)
        assert estimate_abundances(F, A).iterations > 3
        monkeypatch.setattr(metrics, "_MAX_FISTA_ITERS", 3)
        with pytest.raises(NoConvergenceError, match="3 steps"):
            estimate_abundances(F, A)
