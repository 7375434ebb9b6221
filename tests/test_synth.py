import numpy as np
import pytest

from sepnmf.errors import BadShapeError
from sepnmf.linalg import singular_values, spectral_norm
from sepnmf.synth import (
    generate_instance,
    rescale_noise,
    robust_noise_bound,
    sigma_min,
)


def test_reconstruction_is_exact():
    inst = generate_instance(20, 200, 4, 1.5, seed=7)
    cols = np.concatenate([inst.F, inst.F @ inst.H], axis=1)
    M = np.empty((20, 200))
    M[:, inst.permutation] = cols
    assert np.abs(inst.A - (M + inst.N)).max() <= 1e-12


def test_zero_noise_rank_collapse():
    inst = generate_instance(15, 120, 4, 0.0, seed=3)
    s = singular_values(inst.A)
    assert s[4] <= 1e-10 * spectral_norm(inst.A)
    assert np.array_equal(inst.N, np.zeros_like(inst.N))


def test_sigma_k1_bounded_by_delta():
    for seed in (1, 2, 3):
        inst = generate_instance(20, 150, 5, 0.8, seed=seed)
        assert singular_values(inst.A)[5] <= inst.delta + 1e-8


def test_noise_norm_matches_delta():
    inst = generate_instance(25, 300, 5, 2.5, seed=9)
    assert spectral_norm(inst.N) == pytest.approx(2.5, rel=1e-8)


def test_bit_identical_reruns():
    a = generate_instance(20, 200, 4, 1.5, seed=7)
    b = generate_instance(20, 200, 4, 1.5, seed=7)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.F, b.F)
    assert np.array_equal(a.permutation, b.permutation)


def test_doubling_delta_doubles_noise_norm():
    a = generate_instance(18, 140, 4, 0.7, seed=11)
    b = generate_instance(18, 140, 4, 1.4, seed=11)
    ra = spectral_norm(a.N)
    rb = spectral_norm(b.N)
    assert rb == pytest.approx(2.0 * ra, rel=1e-8)
    assert np.array_equal(a.F, b.F)


def test_dirichlet_columns_on_simplex():
    inst = generate_instance(10, 90, 3, 0.0, seed=5)
    assert (inst.H >= 0).all()
    assert np.abs(inst.H.sum(axis=0) - 1.0).max() <= 1e-12
    assert inst.dirichlet_alpha.shape == (3,)
    assert ((inst.dirichlet_alpha > 0) & (inst.dirichlet_alpha <= 1)).all()


def test_true_indices_hold_basis_columns():
    inst = generate_instance(12, 100, 4, 0.0, seed=8)
    got = inst.A[:, inst.true_indices]
    # each true index holds one basis column exactly (order via the permutation)
    order = np.argsort(inst.permutation[:4])
    assert np.abs(got - inst.F[:, order]).max() == 0.0


def test_explicit_alpha_respected():
    alpha = np.array([0.5, 0.5, 1.0])
    inst = generate_instance(10, 50, 3, 0.0, seed=2, alpha=alpha)
    assert np.array_equal(inst.dirichlet_alpha, alpha)
    with pytest.raises(BadShapeError):
        generate_instance(10, 50, 3, 0.0, seed=2, alpha=np.array([0.5, 1.5, 1.0]))


def test_shape_validation():
    with pytest.raises(BadShapeError):
        generate_instance(10, 50, 1, 0.0, seed=1)
    with pytest.raises(BadShapeError):
        generate_instance(10, 4, 5, 0.0, seed=1)
    with pytest.raises(BadShapeError):
        generate_instance(10, 50, 3, -1.0, seed=1)


def test_rescale_noise_consistency():
    base = generate_instance(16, 120, 4, 1.0, seed=13)
    half = rescale_noise(base, 0.5)
    assert spectral_norm(half.N) == pytest.approx(0.5, rel=1e-8)
    zero = rescale_noise(base, 0.0)
    assert singular_values(zero.A)[4] <= 1e-10 * spectral_norm(zero.A)
    with pytest.raises(BadShapeError):
        rescale_noise(zero, 1.0)


def test_noise_bound_and_sigma_min_helpers():
    inst = generate_instance(30, 200, 5, 0.0, seed=17)
    s = singular_values(inst.F)
    assert sigma_min(inst.F) == pytest.approx(s[-1], rel=1e-12)
    kappa = s[0] / s[-1]
    want = min(0.25, 0.5 / np.sqrt(4.0)) * s[-1] / (1.0 + 80.0 * kappa**2)
    assert robust_noise_bound(inst.F) == pytest.approx(want, rel=1e-12)
