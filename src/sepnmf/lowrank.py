"""Rank-k approximation: one pipeline, three seeds.

RankK(A, k).approximate(method, q) runs each engine through the same
timed stages: seed, power (q rounds of subspace iteration), form_b
(B = Q Q^T A) and error_norm (error2 = ||A - B||_2); approximate(A, k,
method, q) runs one engine on its own RankK. The engines differ only in
their seed:

  spa   the k columns picked by successive projection (deterministic);
  rand  A times a seeded Gaussian test matrix with k + oversample
        columns, cut back to rank k after the power stage;
  svd   the truncated SVD, which forms B = U_k S_k V_k^T itself: the
        optimal rank-k reference for the other two.

The power stage is subspace_basis. A power round maps Q to an
orthonormal basis of A A^T Q. On a wide d x m A (d <= m, carries_gram)
with q >= 1, RankK forms G = A A^T once (gram_matrix) and hands it in
for the rounds to multiply by; a tall A gets no G and takes the chain,
which multiplies by A^T and then by A and orthonormalizes after each. G carries roundoff of order
eps * sigma_1^2, so it loses the directions whose sigma_j / sigma_1 falls
below about sqrt(eps) (Halko, Martinsson & Tropp, SIAM Rev. 2011, 4.5):
when the Gram rounds drop a column or leave the top k unresolved, the
rounds start over on the chain from the orthonormalized start.

A wide approximation reads its error from the same G: A - B = P A for
P = I - Q Q^T, so error2^2 = lambda_max(P G P) and no d x m residual is
formed, unless _residual_norm's accuracy guard refuses.

spa_rank_approx and rand_subspace_approx are shorthands for the first
two. The bound diagnostics (bound_report) evaluate every quantity of
the approximation-error analysis on a concrete spa run. The same G gives
the selectors A's top-k factors (RankK._top_factors, by gram_resolves).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadRankError, NonFiniteError, RankDeficientError
from .kernels import spa_core
from .linalg import (
    as_matrix,
    orthonormalize,
    pow2_scaled,
    singular_values,
    spectral_norm,
    svd_full,
    svd_truncated,
)
from .reports import stage
from .rng import SplitMix64

_RANK_B_REL = 1e-10
_RITZ_REL = 1e-10  # G resolves the top k when lambda_k >= this * lambda_1 (gram_resolves)
# error2 is read from G when lambda_max(P G P) >= this * ||G||_F (a cheaper and
# stricter bar than lambda_max(G)): G's roundoff of a few eps ||G|| then moves
# error2 by about eps / (2 * 1e-6) = 1e-10 relative. approx-wide sits at
# lambda / lambda_max(G) = 8.7e-6, so a bar much above 1e-6 loses its gain.
_GRAM_ERR_REL = 1e-6
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
    margin_bound: float | None
    quadratic_rhs: float | None
    achieved_error: float
    rank_b: int
    q: int
    singular_z1: bool = False


def subspace_basis(A, start, q, G):
    """Orthonormal basis of range((A A^T)^q @ start), stabilized.

    Orthonormalizes the start, then runs q power rounds from it: on G, the
    gram_matrix(A) a RankK hands in when A carries_gram (None otherwise),
    while the Gram rounds' guard holds, else on the alternating chain.
    Orthonormalizing once per Gram round (q + 1 times in total) or after
    every multiplication by A or A^T on the chain (2q + 1 times) keeps the
    iterate representable for large q; its column count can shrink.
    """
    Q = orthonormalize(start)
    if q and G is not None:
        Z = _gram_rounds(G, Q, q)
        if Z is not None:
            return Z
    for _ in range(q):
        Z = orthonormalize((Q.T @ A).T)  # = A^T Q, reading A in its own order
        Q = orthonormalize(A @ Z)
    return Q


def carries_gram(A):
    """Whether A is wide (d <= m), so that its stages share one gram_matrix(A):
    the power rounds (q >= 1), the selectors' svd stage and the error norm.
    A tall A forms no G."""
    return A.shape[0] <= A.shape[1]


def gram_matrix(S):
    """G = S S^T of an S already pow2_scaled, so G neither overflows nor underflows."""
    return S @ S.T


def _gram_rounds(G, Q, q):
    """q rounds Q <- orthonormalize(G @ Q), or None when one drops a column or
    the Ritz values of Q^T G Q end below _RITZ_REL of the largest."""
    k = Q.shape[1]
    for _ in range(q):
        Q = orthonormalize(G @ Q)
        if Q.shape[1] < k:
            return None
    return Q if gram_resolves(np.linalg.eigvalsh(Q.T @ G @ Q)) else None


def gram_resolves(lam):
    """Whether the ascending eigenvalues lam of a k x k section of G = A A^T
    resolve A's top k: lam[0] >= _RITZ_REL * lam[-1] > 0. G's roundoff is of
    order eps * lambda_1, so below that bar its eigenpairs stop standing for
    A's singular triples."""
    return lam[0] >= _RITZ_REL * lam[-1] > 0


class RankK:
    """One matrix A at rank k, validated and scaled once: it runs as 2**-e A
    (pow2_scaled), and error2, norm2 and B are scaled back. Each stage is
    computed when first asked for, so the engines and q run on one RankK, and
    select.Analysis's selectors, share one SPA seed, one G and one basis per q."""

    def __init__(self, A, k):
        self.A, self.e = pow2_scaled(as_matrix(A))
        if not (1 <= k <= min(self.A.shape)):
            raise BadRankError(f"k must satisfy 1 <= k <= {min(self.A.shape)}, got {k}")
        self.k = k
        self._stages = {}

    def _memo(self, key, compute):
        if key not in self._stages:
            self._stages[key] = compute()
        return self._stages[key]

    def _seed(self):
        """First-pass picks I0 = spa_select(A, k): spa_core on the checked, scaled A."""
        return self._memo("seed", lambda: spa_core(self.A, self.k))

    def _gram(self):
        """gram_matrix(A) once when A carries_gram (is wide), else None."""
        return self._memo("gram", lambda: gram_matrix(self.A) if carries_gram(self.A) else None)

    def _top_factors(self):
        """(U_k, S_k, P = U_k^T A = S_k V_k^T) for the svd stage: eigh(G) on a wide A
        whose G resolves the top k (gram_resolves), else svd_truncated(A, k)."""
        A, k, G = self.A, self.k, self._gram()
        if G is not None:
            lam, U = np.linalg.eigh(G)
            if gram_resolves(lam[-k:]):
                U, lam = U[:, :-k - 1:-1], lam[:-k - 1:-1]
                return U, np.sqrt(lam), U.T @ A
        f = svd_truncated(A, k)
        return f.U, f.S, np.ascontiguousarray(f.S[:, None] * f.V.T)

    def _rounds(self, start, q):
        """subspace_basis(A, start, q) on the shared G, formed only for q >= 1."""
        return subspace_basis(self.A, start, q, self._gram() if q else None)

    def _basis(self, q):
        """subspace_basis(A, A(I0), q), once per q."""
        return self._memo(("basis", q), lambda: self._rounds(
            np.ascontiguousarray(self.A[:, self._seed()]), q))

    def norm2(self):
        """||A||_2: sqrt(lambda_max(G)) on a wide A, else spectral_norm(A)."""
        G = self._gram()
        s = spectral_norm(self.A) if G is None else np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0))
        return float(np.ldexp(s, self.e))

    def approximate(self, method, q, oversample=0, seed=0):
        """Rank-k approximation of A by the engine `method`, one of APPROX_NAMES.

        Stage times go to `timings` under the seed's key (`spa`, `sample`
        or `svd`), `power`, `form_b` and `error_norm`; a stage this RankK
        already holds adds ~0. oversample and seed shape the rand sketch
        only; svd ignores q. A rank collapse during iteration is flagged in
        rank_collapsed, not raised.
        """
        if method not in _SEED_STAGE:
            raise ValueError(f"unknown approximation {method!r}; expected one of {APPROX_NAMES}")
        A, k = self.A, self.k
        if method == "spa" and q < 0:
            raise BadRankError(f"q must be >= 0, got {q}")
        if method == "rand":
            if q < 0 or oversample < 0:
                raise BadRankError("q and oversample must be >= 0")
            if k + oversample > min(A.shape):
                raise BadRankError(f"need 1 <= k and k + oversample <= {min(A.shape)}, "
                                   f"got k={k}, oversample={oversample}")
        timings, idx = {}, None
        with stage(timings, _SEED_STAGE[method]):
            if method == "spa":
                idx = self._seed().copy()
            elif method == "rand":
                start = A @ SplitMix64(seed).normal_matrix(A.shape[1], k + oversample)
            else:
                f = svd_truncated(A, k)
                if f.S[0] == 0.0:
                    raise RankDeficientError(f"A is zero: it has rank 0 < k={k}")
                Q, B = f.U, f.U @ (f.S[:, None] * f.V.T)
        if method != "svd":
            with stage(timings, "power"):
                Q = self._basis(q).copy() if method == "spa" else self._rounds(start, q)
                if Q.shape[1] > k:
                    # truncate the oversampled sketch back to rank k (top-k SVD of Q^T A)
                    Q = np.ascontiguousarray(Q @ svd_truncated(Q.T @ A, k).U)
            with stage(timings, "form_b"):
                B = Q @ (Q.T @ A)
        with stage(timings, "error_norm"):
            err = _residual_norm(A, B, Q, self._gram())
        return RankKApprox(
            Q=Q,
            B=np.ldexp(B, self.e) if self.e else B,
            q=q,
            error2=float(np.ldexp(err, self.e)),
            seed_indices=idx,
            rank_collapsed=Q.shape[1] < k,
            timings=timings,
        )


def approximate(A, k, method, q, oversample=0, seed=0):
    """One engine on its own RankK: RankK(A, k).approximate(method, q, ...)."""
    return RankK(A, k).approximate(method, q, oversample, seed)


def _residual_norm(A, B, Q, G):
    """||A - B||_2 for B = Q Q^T A, Q orthonormal: sqrt(lambda_max(P G P))
    from G = A A^T when that clears _GRAM_ERR_REL * ||G||_F, else (and for
    tall A, G None) the spectral norm of the explicit residual."""
    if G is not None:
        P = np.eye(Q.shape[0]) - Q @ Q.T
        lam = float(np.linalg.eigvalsh(P @ G @ P)[-1])
        if lam >= _GRAM_ERR_REL * float(np.linalg.norm(G)):
            return float(np.sqrt(lam))
    return spectral_norm(A - B)


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
    left unset and singular_z1 is flagged; margin_bound is None when
    rho <= 0.
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

    # sigma_{k+1} sqrt(1 + (sigma_{k+1}/sigma_k)^(4q-2) / c) = hypot(sigma_{k+1}, t / sqrt(c))
    # with t = sigma_{k+1} (sigma_{k+1}/sigma_k)^(2q-1): sigma_k at q = 0, at most
    # sigma_{k+1} after, so no power of the ratio overflows; both bounds are 0
    # when sigma_{k+1} is. The margin bound exists only for rho > 0; None (JSON
    # null) otherwise.
    t = 0.0 if sigma_k1 == 0.0 else (
        sigma_k if q == 0 else sigma_k1 * (sigma_k1 / sigma_k) ** (2 * q - 1))
    err_bound = math.hypot(sigma_k1, t / math.sqrt(BOUND_MARGIN_CONSTANT))
    mrg_bound = math.hypot(sigma_k1, t * (sigma_k1 / rho)) if rho > 0 else None

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
        with np.errstate(over="ignore"):
            quadratic_rhs = float(np.float64(hs1_norm) ** 2 + np.float64(sigma_k1) ** 2)
        if quadratic_rhs == np.inf:
            raise NonFiniteError("bound_report: the quadratic bound's right-hand side overflows")

    s_b = singular_values(approx.Q.T @ A)  # B = Q Q^T A has the same nonzero sigmas
    rank_b = int(np.sum(s_b > _RANK_B_REL * s_b[0])) if s_b[0] > 0 else 0

    return BoundReport(
        sigma_k=sigma_k,
        sigma_k1=sigma_k1,
        sigma_min_AI=sigma_min_ai,
        rho=rho,
        g1_min=g1_min,
        g2_max=g2_max,
        error_bound=err_bound,
        margin_bound=mrg_bound,
        quadratic_rhs=quadratic_rhs,
        achieved_error=approx.error2,
        rank_b=rank_b,
        q=q,
        singular_z1=singular_z1,
    )
