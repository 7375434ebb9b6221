"""Evaluation metrics: recovery rate, spectral angle distance and
simplex-constrained abundance estimation.

Abundances solve, per pixel a, min ||F w - a||^2 over the probability
simplex exactly: the fully constrained least squares of Heinz & Chang (IEEE
TGRS 2001), which is Lawson & Hanson's NNLS active set (1974) with the
sum-to-one row, run on all pixels at once on G = F^T F and C = F^T A.
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

# A pixel settles once no reduced gradient is below -_ADMIT_REL sigma_max(F)^2.
# If that leaves out a weight w_j of the exact w (a = F w), the settled z has
# sigma_min^2 w_j^2 <= ||F (z - w)||^2 <= _ADMIT_REL sigma_max^2 w_j, so weights
# up to _ADMIT_REL cond(F)^2 can be missed; refusing cond(F) >= _MAX_COND keeps
# that at 1e-6.
_ADMIT_REL = 1e-12
_MAX_COND = 1e3


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


def _pass_cap(k):
    """Lawson & Hanson's NNLS cap of 3n iterations, for n = k weights."""
    return 3 * k


@dataclass
class AbundanceResult:
    """Per-pixel simplex weights (columns) and the active-set passes taken."""

    W: np.ndarray
    iterations: int = 0


def estimate_abundances(F, A):
    """Simplex-constrained least-squares weights for every column of A.

    F and A are first scaled together by one exact power of two, which
    leaves W unchanged and keeps G and C in range. Every pixel starts at its
    best single vertex. Each pass groups the unsettled pixels by support and
    solves each group's (|S|+1)^2 KKT system once. A pixel whose solution
    leaves the simplex steps to the boundary and drops the first blocking
    weight; any other admits the index with the most negative reduced
    gradient, or settles when none is below -1e-12 sigma_max(F)^2.
    `iterations` counts the passes; pixels still unsettled after 3k passes
    raise NoConvergenceError. A basis with cond(F) >= 1e3 raises
    RankDeficientBasisError: past it the settling test could miss weights
    above 1e-6.
    """
    F, A = as_matrix(F, "F"), as_matrix(A)
    if A.shape[0] != F.shape[0]:
        raise DimensionMismatchError(f"F has {F.shape[0]} rows but A has {A.shape[0]}")
    e = int(np.frexp(max(np.abs(F).max(), A.max(), -A.min()))[1])
    F = np.ldexp(F, -e)
    s = singular_values(F)
    if s[-1] <= s[0] / _MAX_COND:
        raise RankDeficientBasisError(
            f"basis is rank deficient or ill-conditioned: sigma_min <= sigma_max / {_MAX_COND:g}")
    G, C = F.T @ F, np.ldexp(F.T @ A, -e)
    k, n = C.shape
    S = np.arange(k)[:, None] == np.argmin(np.diag(G)[:, None] - 2.0 * C, axis=0)  # supports
    W, todo = S.astype(np.float64), np.ones(n, dtype=bool)
    for passes in range(1, _pass_cap(k) + 1):
        j = np.flatnonzero(todo)
        j = j[np.lexsort(S[:, j])]  # stable: grouped by support, in order within a group
        for p in np.split(j, np.flatnonzero((S[:, j[1:]] != S[:, j[:-1]]).any(axis=0)) + 1):
            idx, pos = np.flatnonzero(S[:, p[0]]), np.arange(p.size)
            kkt = np.pad(G[np.ix_(idx, idx)], (0, 1), constant_values=1.0)
            kkt[-1, -1] = 0.0
            sol = np.linalg.solve(kkt, np.vstack([C[np.ix_(idx, p)], np.ones(p.size)]))
            z, w = sol[:-1], W[np.ix_(idx, p)]  # sum-to-one multipliers in sol[-1]
            ratio = np.where(z <= 0.0, w / np.where(z < w, w - z, 1.0), np.inf)
            b = ratio.argmin(axis=0)
            out = ratio[b, pos] < np.inf  # z left the simplex: step to the boundary, drop b
            w = np.where(out, w + np.where(out, ratio[b, pos], 0.0) * (z - w), z)
            w[b[out], pos[out]] = 0.0
            W[np.ix_(idx, p)] = np.maximum(w, 0.0)
            S[idx[b[out]], p[out]] = False
            # pixels whose z stayed inside solve their support: admit an index or settle
            red = np.where(S[:, p], 0.0, G[:, idx] @ z - C[:, p] + sol[-1])
            i = red.argmin(axis=0)
            admit = ~out & (red[i, pos] < -_ADMIT_REL * s[0] ** 2)
            todo[p[~out & ~admit]] = False
            S[i[admit], p[admit]] = True
        if not todo.any():
            return AbundanceResult(W=W, iterations=passes)
    raise NoConvergenceError(f"abundances: active set not settled in {_pass_cap(k)} passes")
