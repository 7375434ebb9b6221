"""Noisy-separable instance generation.

A = F [I, H] Pi + N with F uniform(0,1), the columns of H drawn from a
Dirichlet distribution whose parameters are themselves drawn once per
instance from (0.05, 1], Pi a seeded uniform permutation, and N Gaussian
rescaled so its spectral norm equals the requested noise level delta.
The positions the permutation assigns to the identity block are the
ground-truth column indices.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadShapeError, DegenerateBasisError
from .linalg import singular_values, spectral_norm
from .rng import SplitMix64

_MIN_SIGMA_F = 1e-6
_MAX_BASIS_RETRIES = 10
_ALPHA_FLOOR = 0.05


@dataclass
class SyntheticInstance:
    A: np.ndarray
    F: np.ndarray
    H: np.ndarray
    permutation: np.ndarray
    N: np.ndarray
    delta: float
    true_indices: np.ndarray
    seed: int
    dirichlet_alpha: np.ndarray


def generate_instance(d, m, k, delta, seed, alpha=None):
    """Seeded noisy-separable d x m instance with factorization rank k.

    The basis is redrawn (up to 10 times) until sigma_min(F) >= 1e-6 so the
    rank-k structure is genuine. Identical (d, m, k, delta, seed, alpha)
    give bit-identical output; changing only delta rescales the same noise
    matrix.
    """
    if not (2 <= k <= min(d, m)) or m <= k:
        raise BadShapeError(f"need 2 <= k <= min(d, m) and m > k, got d={d} m={m} k={k}")
    if delta < 0:
        raise BadShapeError(f"delta must be >= 0, got {delta}")
    rng = SplitMix64(seed)

    F = None
    for _ in range(_MAX_BASIS_RETRIES):
        cand = rng.uniform(d * k).reshape(d, k)
        if singular_values(cand)[-1] >= _MIN_SIGMA_F:
            F = cand
            break
    if F is None:
        raise DegenerateBasisError(
            f"no basis with sigma_min >= {_MIN_SIGMA_F} in {_MAX_BASIS_RETRIES} draws"
        )

    if alpha is None:
        alpha = 1.0 - rng.uniform(k) * (1.0 - _ALPHA_FLOOR)
    else:
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != (k,) or (alpha <= 0).any() or (alpha > 1).any():
            raise BadShapeError("alpha must be k values in (0, 1]")

    H = rng.dirichlet_columns(alpha, m - k)
    perm = rng.permutation(m)
    cols = np.concatenate([F, F @ H], axis=1)
    M = np.empty((d, m))
    M[:, perm] = cols
    true_indices = np.sort(perm[:k])

    raw = rng.normal_matrix(d, m)
    if delta > 0:
        N = raw * (delta / spectral_norm(raw))
    else:
        N = np.zeros((d, m))

    return SyntheticInstance(
        A=M + N,
        F=F,
        H=H,
        permutation=perm,
        N=N,
        delta=float(delta),
        true_indices=true_indices,
        seed=int(seed),
        dirichlet_alpha=np.asarray(alpha, dtype=np.float64),
    )


def rescale_noise(inst, delta):
    """Same instance with the noise rescaled to spectral norm delta.

    Requires inst.delta > 0 (the unit-norm noise direction must exist).
    Cheap way to sweep a noise grid over one generated instance.
    """
    if inst.delta <= 0:
        raise BadShapeError("rescale_noise needs an instance generated with delta > 0")
    if delta < 0:
        raise BadShapeError(f"delta must be >= 0, got {delta}")
    scale = delta / inst.delta
    N = inst.N * scale
    return replace(inst, A=(inst.A - inst.N) + N, N=N, delta=float(delta))


def robust_noise_bound(F):
    """Largest spectral noise norm under which the selection error bound
    and the rank-k bound suite are guaranteed to apply:
    min(1/(2 sqrt(k-1)), 1/4) * sigma_min(F) / (1 + 80 kappa(F)^2).
    """
    s = singular_values(F)
    k = F.shape[1]
    kappa = s[0] / s[-1]
    lead = min(0.25, 1.0 / (2.0 * np.sqrt(k - 1))) if k >= 2 else 0.25
    return float(lead * s[-1] / (1.0 + 80.0 * kappa**2))


def sigma_min(F):
    """Smallest singular value, for delta-grid calibration."""
    return float(singular_values(F)[-1])
