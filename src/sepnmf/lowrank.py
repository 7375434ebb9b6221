"""Rank-k approximation: one pipeline, three seeds.

approximate(A, k, method, q) runs each engine through the same timed
stages: seed, power (q rounds of stabilized subspace iteration), form_b
(B = Q Q^T A) and error_norm (the measured spectral norm of A - B).
The engines differ only in their seed:

  spa   the k columns picked by successive projection (deterministic);
  rand  A times a seeded Gaussian test matrix with k + oversample
        columns, cut back to rank k after the power stage;
  svd   the truncated SVD, which forms B = U_k S_k V_k^T itself: the
        optimal rank-k reference for the other two.

spa_rank_approx and rand_subspace_approx are shorthands for the first
two. The bound diagnostics (bound_report) evaluate every quantity of
the approximation-error analysis on a concrete spa run.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRankError
from .linalg import as_matrix, orthonormalize, singular_values, spectral_norm, svd_full, svd_truncated
from .reports import stage
from .rng import SplitMix64
from .spa import spa_select

_RANK_B_REL = 1e-10
_SINGULAR_G1_REL = 1e-12
BOUND_MARGIN_CONSTANT = 20164.0  # = 142^2, the squared margin constant of the error bound

# method -> timing key of its seed stage
_SEED_STAGE = {"spa": "spa", "rand": "sample", "svd": "svd"}
APPROX_NAMES = tuple(_SEED_STAGE)


@dataclass
class RankKApprox:
    """Projector basis Q, approximation B = Q Q^T A, and bookkeeping."""

    Q: np.ndarray
    B: np.ndarray
    q: int
    error2: float
    seed_indices: np.ndarray | None = None
    rank_collapsed: bool = False
    timings: dict = field(default_factory=dict)


@dataclass
class BoundReport:
    """Error-bound quantities evaluated on one approximation run."""

    sigma_k: float
    sigma_k1: float
    sigma_min_AI: float
    rho: float
    g1_min: float
    g2_max: float
    error_bound: float
    margin_bound: float
    quadratic_rhs: float | None
    achieved_error: float
    rank_b: int
    q: int
    singular_z1: bool = False


def subspace_basis(A, start, q):
    """Orthonormal basis of range((A A^T)^q @ start), stabilized.

    Re-orthonormalizes after every multiplication by A or A^T (2q+1 times
    in total), which keeps the iterate representable for large q. The
    column count can shrink if the iterate loses rank.
    """
    return power_rounds(A, orthonormalize(start), q)


def power_rounds(A, Q, q):
    """q more rounds of subspace_basis's iteration on an orthonormal Q. Q is
    not re-orthonormalized, so p rounds then q - p more reproduce q rounds."""
    for _ in range(q):
        Z = orthonormalize(A.T @ Q)
        Q = orthonormalize(A @ Z)
    return Q


def approximate(A, k, method, q, oversample=0, seed=0):
    """Rank-k approximation of A by the engine `method`, one of APPROX_NAMES.

    Stage times go to `timings` under the seed's key (`spa`, `sample` or
    `svd`), `power`, `form_b` and `error_norm`. oversample and seed shape
    the rand sketch only; svd ignores q. A rank collapse during iteration
    is flagged in rank_collapsed, not raised.
    """
    if method not in _SEED_STAGE:
        raise ValueError(f"unknown approximation {method!r}; expected one of {APPROX_NAMES}")
    A = as_matrix(A)
    d, m = A.shape
    if method == "spa" and q < 0:
        raise BadRankError(f"q must be >= 0, got {q}")
    if method == "rand":
        if q < 0 or oversample < 0:
            raise BadRankError("q and oversample must be >= 0")
        if not (1 <= k <= min(d, m)) or k + oversample > min(d, m):
            raise BadRankError(
                f"need 1 <= k and k + oversample <= {min(d, m)}, got k={k}, oversample={oversample}"
            )
    timings, idx = {}, None
    with stage(timings, _SEED_STAGE[method]):
        if method == "spa":
            idx = spa_select(A, k)
            start = np.ascontiguousarray(A[:, idx])
        elif method == "rand":
            start = A @ SplitMix64(seed).normal_matrix(m, k + oversample)
        else:
            f = svd_truncated(A, k)
            Q, B = f.U, f.U @ (f.S[:, None] * f.V.T)
    if method != "svd":
        with stage(timings, "power"):
            Q = subspace_basis(A, start, q)
            if Q.shape[1] > k:
                # truncate the oversampled sketch back to rank k (top-k SVD of Q^T A)
                Q = np.ascontiguousarray(Q @ svd_truncated(Q.T @ A, k).U)
        with stage(timings, "form_b"):
            B = Q @ (Q.T @ A)
    with stage(timings, "error_norm"):
        err = spectral_norm(A - B)
    return RankKApprox(
        Q=Q,
        B=B,
        q=q,
        error2=err,
        seed_indices=idx,
        rank_collapsed=Q.shape[1] < k,
        timings=timings,
    )


def spa_rank_approx(A, k, q):
    """Rank-k approximation seeded by the k successively projected columns."""
    return approximate(A, k, "spa", q)


def rand_subspace_approx(A, k, q, oversample=0, seed=0):
    """Gaussian-seeded randomized subspace iteration, reproducible by seed."""
    return approximate(A, k, "rand", q, oversample, seed)


def bound_report(A, approx):
    """Evaluate the error-bound quantities for a seeded-column run.

    From the full SVD of A: the singular values around the split,
    sigma_min(A(I)), the margin rho, the extreme singular values of the
    blocks of G = U^T A(I), the two bound values, the quadratic bound
    right-hand side and the numerical rank of B. Only A, A(I), G_1 and Q^T A
    need the Jacobi SVD (relative accuracy or the whole spectrum); sigma_max
    of G_2 and of H S_1 are spectral norms. The achieved error is
    approx.error2, so A must be the matrix approx was built from. When G_1
    is numerically singular the fields that depend on H = Z_2 Z_1^{-1} are
    left unset and singular_z1 is flagged.
    """
    A = as_matrix(A)
    if approx.seed_indices is None:
        raise ValueError("bound_report requires an approximation with seed_indices")
    idx = np.asarray(approx.seed_indices)
    k = idx.size
    q = approx.q
    d, m = A.shape

    res = svd_full(A)
    s = np.zeros(d)
    s[: res.S.size] = res.S
    sigma_k = float(s[k - 1])
    sigma_k1 = float(s[k]) if k < d else 0.0

    AI = np.ascontiguousarray(A[:, idx])
    s_ai = singular_values(AI)
    sigma_min_ai = float(s_ai[-1])
    rho = sigma_min_ai - sigma_k1

    G = res.U.T @ AI  # r x k; conceptual rows beyond r are exactly zero
    G1 = G[:k, :]
    G2 = G[k:, :]
    r1 = svd_full(G1)
    s_g1 = r1.S
    g1_min = float(s_g1[-1])
    g2_max = spectral_norm(G2) if G2.shape[0] else 0.0

    if sigma_k1 == 0.0:
        err_bound = 0.0
        mrg_bound = 0.0 if rho > 0 else float("nan")
    else:
        # numpy scalar power overflows to inf (q = 0 makes the exponent
        # negative, and the ratio can be arbitrarily small)
        with np.errstate(over="ignore", divide="ignore"):
            ratio_pow = np.float64(sigma_k1 / sigma_k) ** (4 * q - 2)
            err_bound = sigma_k1 * np.sqrt(1.0 + ratio_pow / BOUND_MARGIN_CONSTANT)
            mrg_bound = (
                sigma_k1 * np.sqrt(1.0 + (sigma_k1 / rho) ** 2 * ratio_pow)
                if rho > 0
                else float("nan")
            )

    singular_z1 = sigma_k <= 0.0 or g1_min < _SINGULAR_G1_REL * float(s_g1[0])
    quadratic_rhs = None
    if not singular_z1:
        g1_inv = (r1.V / r1.S) @ r1.U.T
        G21 = G2 @ g1_inv
        # H S_1 = S_2^{2q} (G_2 G_1^{-1}) S_1^{1-2q}, evaluated through the
        # bounded ratios (s_{k+i}/s_j)^{2q} * s_j to avoid overflow
        tail = s[k : k + G2.shape[0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                tail[:, None] > 0.0,
                (tail[:, None] / s[None, :k]) ** (2 * q) * s[None, :k],
                0.0,
            )
        hs1 = G21 * scale
        hs1_norm = spectral_norm(hs1) if hs1.size else 0.0
        quadratic_rhs = hs1_norm**2 + sigma_k1**2

    s_b = singular_values(approx.Q.T @ A)  # B = Q Q^T A has the same nonzero sigmas
    rank_b = int(np.sum(s_b > _RANK_B_REL * s_b[0])) if s_b[0] > 0 else 0

    return BoundReport(
        sigma_k=sigma_k,
        sigma_k1=sigma_k1,
        sigma_min_AI=sigma_min_ai,
        rho=rho,
        g1_min=g1_min,
        g2_max=g2_max,
        error_bound=float(err_bound),
        margin_bound=float(mrg_bound),
        quadratic_rhs=quadratic_rhs,
        achieved_error=approx.error2,
        rank_b=rank_b,
        q=q,
        singular_z1=singular_z1,
    )
