"""Dense linear-algebra backbone: spectral norm, SVD, orthonormalization
and the symmetric PSD square root. LAPACK does the bulk; a one-sided
Jacobi polishes where relative accuracy counts.

The SVD reduces a wide d x m input (tall ones transposed) to the d x d
triangular factor X of a Householder QR of A^T, rotates X by the
eigenvectors of X X^T (Veselic & Hari, Numer. Math. 1989; Drmac &
Veselic, SIMAX 2008) and runs the Jacobi sweeps on the rows, which then
start orthogonal up to roundoff: one or two sweeps polish them (only the k
leading rows for a truncated SVD) and decide convergence, so every singular
value keeps high relative accuracy, which the bound diagnostics rely on
(tiny sigma_{k+1} against 1e-10 absolute slacks). A long A^T is factored
in row tiles that fit in cache, their stacked R factors once more (TSQR).
The long-side factor is the QR's Q applied to the columns the caller
needs only, its reflectors in compact-WY blocks of 16, so both the
reduction and the application run as matrix-matrix products. Both
factors come out orthonormal to machine precision.

spectral_norm (sigma_max of the short-side Gram matrix), orthonormalize
(a Householder Q, rotated by the SVD of its R when that shows rank
deficiency) and the symmetric eigenproblems behind psd_sqrt and the
ellipsoid inverse go to LAPACK outright: their answers are read against
floors relative to the norm, so absolute accuracy suffices there.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadRankError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
)

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60
_SAFE_EXP = 100  # inputs with max |entry| within 2**±100 keep their scale
_SYM_TOL = 1e-10  # relative asymmetry eigh_sym accepts
_RANK_REL_TOL = 1e-12  # relative singular value below which orthonormalize drops a direction
_TILE_ROWS = 2048  # least rows of a QR tile; tiles also have at least 8 r rows
_WY_BLOCK = 16  # Householder reflectors applied as one compact-WY block
_LOWER = np.tri(_WY_BLOCK, k=-1, dtype=bool)  # strictly lower triangle of a block


def as_matrix(A, name="A"):
    """Validate and return a C-contiguous float64 2-D array."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise BadRankError(f"{name} must be a nonempty 2-D matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return A


def pow2_scaled(A):
    """(2**-e * A, e), exact, with e the binary exponent of max |A| when that
    lies outside 2**±_SAFE_EXP, else (A, 0): LAPACK's dlascl idiom, so the
    Jacobi test's squared norms and a lowrank.RankK's stages (its G, engines
    and selectors; it undoes e on error2, norm2 and B) neither overflow nor
    underflow. max and -min avoid np.abs(A), a copy."""
    e = int(np.frexp(max(A.max(), -A.min()))[1])
    return (np.ldexp(A, -e), e) if abs(e) > _SAFE_EXP else (A, 0)


@dataclass
class SvdResult:
    """Factors A ~= U @ diag(S) @ V.T with S nonincreasing and >= 0."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def spectral_norm(A):
    """Largest singular value: the square root of LAPACK's top eigenvalue of
    the short-side Gram matrix (A A^T when A is wide, A^T A when tall), so
    A is not copied unless its scale needs rescaling."""
    A, e = pow2_scaled(as_matrix(A))
    G = A.T @ A if A.shape[0] > A.shape[1] else A @ A.T
    return float(np.ldexp(np.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0)), e))


def _tiled_qr(M):
    """Householder QR of the tall n x r matrix M by row tiles (TSQR; Demmel,
    Grigori, Hoemmen & Langou, SISC 2012): each tile of at least
    max(_TILE_ROWS, 8 r) rows is factored on its own, in cache, and the
    stacked R factors of the tiles once more. Returns (X, top, tiles): X = R^T
    for M = Q R, top the raw (h, tau) of the stack (None for one tile, which
    is the single QR of M) and tiles each tile's raw (h, tau)."""
    n, r = M.shape
    t = n // max(_TILE_ROWS, 8 * r)
    if t <= 1:
        h, tau = np.linalg.qr(M, mode="raw")
        return np.tril(h[:, :r]), None, [(h, tau)]
    tiles = [np.linalg.qr(T, mode="raw") for T in np.array_split(M, t)]
    stack = np.concatenate([np.tril(h[:, :r]) for h, _ in tiles], axis=1).T
    top = np.linalg.qr(stack, mode="raw")
    return np.tril(top[0][:, :r]), top, tiles


def _apply_reflectors(h, tau, Z):
    """Q @ Z for the Q of numpy.linalg.qr(..., mode="raw") output (h, tau),
    Z padded with zero rows. The reflectors go in blocks of _WY_BLOCK, the
    last block first, block b as I - V_b^T T_b V_b (Schreiber & Van Loan,
    SISC 1989): V_b holds the block's reflectors as rows and
    T_b = (I + diag(tau_b) striu(V_b V_b^T))^-1 diag(tau_b), so no n x n or
    n x r Q is formed."""
    r, n = h.shape
    out = np.zeros((n, Z.shape[1]))
    out[: Z.shape[0]] = Z
    for j0 in range((r - 1) // _WY_BLOCK * _WY_BLOCK, -1, -_WY_BLOCK):
        j1 = min(j0 + _WY_BLOCK, r)
        low = _LOWER[: j1 - j0, : j1 - j0]
        V = h[j0:j1, j0:].copy()  # left of the unit diagonal the rows hold R
        V[:, : j1 - j0][low] = 0.0
        np.fill_diagonal(V, 1.0)
        tau_b = tau[j0:j1]
        T = (V @ V.T) * tau_b[:, None]
        T[low] = 0.0
        np.fill_diagonal(T, 1.0)
        T = np.linalg.solve(T, np.diag(tau_b))
        w = out[j0:]
        w -= V.T @ (T @ (V @ w))
    return out


def _apply_q(top, tiles, Z):
    """Q @ Z for the Q of _tiled_qr: the stack's reflectors first, then each
    tile's reflectors on its r rows of the result."""
    if top is None:
        return _apply_reflectors(*tiles[0], Z)
    Z = np.split(_apply_reflectors(*top, Z), len(tiles))
    return np.concatenate([_apply_reflectors(h, tau, z) for (h, tau), z in zip(tiles, Z)])


def _jacobi_svd(A, k):
    """SVD core. Returns (U, S, V): all r = min(d, m) singular values and the
    leading k singular vector pairs (k = 0 returns S alone)."""
    transposed = A.shape[0] > A.shape[1]
    A, e = pow2_scaled(A)
    Y = A.T if transposed else A  # r x n with r <= n
    r = Y.shape[0]
    # Y^T = Q T (Householder, column-wise backward stable), so Y = X Q^T
    # with X = T^T, and the Jacobi sweeps rotate r x r rows instead of r x n
    X, top, tiles = _tiled_qr(Y.T)
    # X <- V^T X and R = V^T for the eigenvectors V of X X^T, descending
    lam, R = np.linalg.eigh(X @ X.T)
    R = R[:, ::-1].T.copy()
    X = R @ X
    # rows at or below 1e-15 of the total norm are numerically zero
    floor2 = (1e-15 * float(np.linalg.norm(X))) ** 2
    # polish only the k leading rows when the top-k eigenspace stands apart
    lead = k if 0 < k < r and lam[-k] - lam[-k - 1] > 1e-8 * lam[-1] else r
    kernels.svd_jacobi_rows(X, R, _JACOBI_TOL, floor2, _JACOBI_MAX_SWEEPS, lead)
    s = np.sqrt(np.einsum("ij,ij->i", X, X))
    order = np.argsort(-s, kind="stable")
    S = np.ldexp(s[order], e)
    if k == 0:
        return None, S, None
    short = np.ascontiguousarray(R[order[:k]].T)
    # right singular vectors of X; where s is numerically zero, complete
    # them to an orthonormal basis of R^r instead
    live = int(np.count_nonzero(s * s > floor2))
    W = X[order].T
    W[:, :live] /= s[order[:live]]
    if live < r:
        W[:, live:] = np.linalg.qr(W[:, :live], mode="complete")[0][:, live:]
    long = _apply_q(top, tiles, W[:, :k])
    if transposed:
        return long, S, short
    return short, S, long


def svd_full(A):
    """Full SVD with r = min(d, m) singular triples."""
    A = as_matrix(A)
    return SvdResult(*_jacobi_svd(A, min(A.shape)))


def svd_truncated(A, k):
    """Top-k truncated SVD; the residual spectral norm equals sigma_{k+1}.

    With a well-separated top-k eigenspace only the k leading rows are
    polished; the tail rows' norms are not singular values, never returned.
    """
    A = as_matrix(A)
    t = min(A.shape)
    if not (1 <= k <= t):
        raise BadRankError(f"k must satisfy 1 <= k <= {t}, got {k}")
    U, s, V = _jacobi_svd(A, k)
    return SvdResult(U, s[:k].copy(), V)


def singular_values(A):
    """All singular values, nonincreasing."""
    A = as_matrix(A)
    return _jacobi_svd(A, 0)[1]


def eigh_sym(S):
    """Eigendecomposition of a symmetric matrix by numpy.linalg.eigh.

    Returns (eigenvalues, eigenvectors) ordered by decreasing |eigenvalue|
    (ties keep eigh's ascending order), column i of the eigenvectors
    belonging to eigenvalue i; errors are of order eps * ||S||.
    """
    S = as_matrix(S, "S")
    if S.shape[1] != S.shape[0]:
        raise NotSymmetricError(f"matrix is {S.shape}, not square")
    if np.abs(S - S.T).max() > _SYM_TOL * np.abs(S).max():
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], V[:, order]


def orthonormalize(Y):
    """Orthonormal basis Q of range(Y), one column per independent direction.

    The Householder Q of Y when the singular values of its k x k R show full
    rank (sigma_min > _RANK_REL_TOL * sigma_max); R's diagonal does not reveal
    rank (Kahan's matrix). Otherwise Q @ U_R[:, :rank], from the SVD
    R = U_R S V^T, with rank the number of singular values above
    _RANK_REL_TOL = 1e-12 times the largest. Q has rank(Y) columns and
    QQ^T Y = Y up to roundoff.
    """
    Y = as_matrix(Y, "Y")
    d, k = Y.shape
    if d < k:
        raise BadRankError(f"Y must be tall (d >= k), got {Y.shape}")
    Q, T = np.linalg.qr(Y)
    sv = np.linalg.svd(T, compute_uv=False)
    if sv[-1] > _RANK_REL_TOL * sv[0]:
        return Q
    U, sv, _ = np.linalg.svd(T)
    rank = int(np.count_nonzero(sv > _RANK_REL_TOL * sv[0]))
    if rank == 0:
        raise BadRankError("Y has no nonzero column")
    return Q @ U[:, :rank]


def psd_sqrt(L):
    """Unique symmetric PSD square root C with C @ C = L.

    Eigenvalues in [-1e-10 * ||L||_2, 0) are clamped to zero; anything more
    negative raises NotPsd. A reconstruction check (|C C - L| within
    1e-8 ||L||_2 entrywise) guards the eigendecomposition.
    """
    L = as_matrix(L, "L")
    lam, V = eigh_sym(L)
    norm2 = float(lam[0]) if lam.size else 0.0
    floor = -1e-10 * max(norm2, 0.0)
    if lam.min(initial=0.0) < floor:
        raise NotPsdError(f"eigenvalue {lam.min():.3e} below PSD tolerance {floor:.3e}")
    lam = np.maximum(lam, 0.0)
    C = (V * np.sqrt(lam)) @ V.T
    C = 0.5 * (C + C.T)
    err = np.abs(C @ C - L).max()
    if err > 1e-8 * norm2:
        raise NotPsdError("square-root reconstruction failed; input is not PSD")
    return C
