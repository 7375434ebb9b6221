"""Evaluation metrics: recovery rate, spectral angle distance and
simplex-constrained abundance estimation.

Abundances solve, per pixel a, min ||F w - a||^2 over the probability
simplex with an accelerated projected-gradient loop (step 1/sigma_max^2,
threshold-iteration exact projection, fixed-point KKT stop at 1e-8).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    RankDeficientBasisError,
    SizeMismatchError,
    ZeroVectorError,
)
from .linalg import as_matrix, singular_values

_KKT_TOL = 1e-8
_MAX_FISTA_ITERS = 50_000


def recovery_rate(found, truth):
    """|found ∩ truth| / k with set semantics."""
    found = np.asarray(found).ravel()
    truth = np.asarray(truth).ravel()
    if found.size != truth.size or found.size == 0:
        raise SizeMismatchError(f"index sets differ in size: {found.size} vs {truth.size}")
    return len(set(found.tolist()) & set(truth.tolist())) / truth.size


def spectral_angle_distance(f, fhat):
    """Angle in radians between two spectra (scale invariant, symmetric)."""
    f = np.asarray(f, dtype=np.float64).ravel()
    fhat = np.asarray(fhat, dtype=np.float64).ravel()
    nf = np.linalg.norm(f)
    ng = np.linalg.norm(fhat)
    if nf == 0.0 or ng == 0.0:
        raise ZeroVectorError("spectral angle needs two nonzero vectors")
    cosang = np.clip(float(f @ fhat) / (nf * ng), -1.0, 1.0)
    return float(np.arccos(cosang))


def project_columns_to_simplex(V):
    """Euclidean projection of every column of V onto {w >= 0, sum w = 1}.

    Michelot's threshold iteration (Condat, Math. Program. 2016), at most k
    passes, on the entries less their column maximum, clamped at -1 where
    none can be in the support, so no finite scale or tie leaves the simplex.
    """
    V = np.asarray(V, dtype=np.float64)
    k = V.shape[0]
    with np.errstate(over="ignore"):  # a span past the float range gives -inf, clamped too
        D = np.maximum(V - V.max(axis=0), -1.0)
    theta = np.maximum(-1.0, (D.sum(axis=0) - 1.0) / k)
    mask, size = np.ones(D.shape, dtype=bool), k
    while True:
        mask &= D > theta
        size, last = mask.sum(axis=0, dtype=np.min_scalar_type(k)), size
        theta = (np.einsum("ij,ij->j", D, mask) - 1.0) / size
        if (size == last).all():
            D -= theta
            return np.maximum(D, 0.0, out=D)


def project_rows_to_simplex(V):
    """Euclidean projection of every row of V onto {w >= 0, sum w = 1}."""
    return project_columns_to_simplex(np.transpose(V)).T


@dataclass
class AbundanceResult:
    """Per-pixel simplex weights (columns) and the gradient steps taken."""

    W: np.ndarray
    iterations: int = 0


def estimate_abundances(F, A):
    """Simplex-constrained least-squares weights for every column of A.

    Accelerated projected gradient on all pixels at once; stops when the
    fixed-point residual ||w - proj(w - step * grad)||_inf is at most 1e-8
    for every pixel, and raises NoConvergenceError at the iteration cap.
    """
    F = as_matrix(F, "F")
    A = as_matrix(A)
    d, k = F.shape
    if A.shape[0] != d:
        raise DimensionMismatchError(f"F has {d} rows but A has {A.shape[0]}")
    s = singular_values(F)
    if s[-1] <= 1e-12 * s[0]:
        raise RankDeficientBasisError("basis is numerically rank deficient")
    step = 1.0 / (s[0] * s[0])

    G = F.T @ F
    C = F.T @ A
    W = np.full((k, A.shape[1]), 1.0 / k)
    Y, buf, t_acc = W.copy(), np.empty_like(W), 1.0

    def gradient_step(Z):  # Z - step * (G @ Z - C), in buf
        np.subtract(np.matmul(G, Z, out=buf), C, out=buf)
        return np.subtract(Z, np.multiply(buf, step, out=buf), out=buf)
    for it in range(1, _MAX_FISTA_ITERS + 1):
        W_new = project_columns_to_simplex(gradient_step(Y))
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        # Y = W_new + ((t_acc - 1) / t_new) * (W_new - W), in Y's buffer
        np.add(W_new, np.multiply(np.subtract(W_new, W, out=Y), (t_acc - 1.0) / t_new, out=Y), out=Y)
        W, t_acc = W_new, t_new
        if it % 10 == 0 or it == 1:
            fp = project_columns_to_simplex(gradient_step(W))
            if np.abs(np.subtract(W, fp, out=fp), out=fp).max() <= _KKT_TOL:
                break
    else:
        raise NoConvergenceError(f"abundances: KKT stop not met in {_MAX_FISTA_ITERS} steps")
    return AbundanceResult(W=W, iterations=it)
