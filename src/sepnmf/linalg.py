"""Dense linear-algebra backbone: spectral norm, SVD, orthonormalization
and the symmetric PSD square root.

The SVD is a self-contained one-sided Jacobi. A wide d x m input (tall
ones transposed) is first reduced to the d x d triangular factor of a
Householder QR of A^T, and the Jacobi sweeps run on that factor (Drmac &
Veselic, SIMAX 2008). The QR is backward stable column by column, so the
SVD stays deterministic with high relative accuracy on every singular
value, which the bound diagnostics rely on (tiny sigma_{k+1} against
1e-10 absolute slacks). The long-side factor is formed once, from the
QR's reflectors and only for the columns the caller needs. Both factors
come out orthonormal to machine precision.

spectral_norm reduces a wide input through its d x d Gram matrix A A^T
instead: squaring loses only the small singular values, and sigma_max is
the only one read from it, while a QR would copy the input.

The symmetric eigenproblems (eigh_sym, behind psd_sqrt and the ellipsoid
inverse) go to LAPACK: their callers clamp the spectrum at floors
relative to its norm, so absolute accuracy suffices there.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    BadRankError,
    NoConvergenceError,
    NonFiniteError,
    NotPsdError,
    NotSymmetricError,
)

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 60
_POWER_MAX_ITERS = 10000
_SYM_TOL = 1e-10  # relative asymmetry eigh_sym accepts
_MGS_REL_TOL = 1e-12  # relative pivot below which orthonormalize drops a direction


def as_matrix(A, name="A"):
    """Validate and return a C-contiguous float64 2-D array."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise BadRankError(f"{name} must be a nonempty 2-D matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return A


@dataclass
class SvdResult:
    """Factors A ~= U @ diag(S) @ V.T with S nonincreasing and >= 0."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def spectral_norm(A, tol=1e-10):
    """Largest singular value by power iteration on A^T A.

    Deterministic: starts from the normalized all-ones vector v (or, when
    A v = 0, from the unit vector that picks A's largest-norm column) and
    stops when successive Rayleigh quotients differ by less than tol times
    the current value; only the zero matrix gives 0.0. The iteration runs
    on the short side: in w = A v with G = A A^T when A is wide (in v with
    G = A^T A when tall), so each step costs O(min(d, m)^2) and A is never
    copied. Raises NoConvergenceError after _POWER_MAX_ITERS steps.
    """
    A = as_matrix(A)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d, m = A.shape
    tall = d > m
    v = np.full(m, 1.0 / np.sqrt(m))
    if not (A @ v).any():
        # rows summing to zero (e.g. centred data) are orthogonal to the all-ones start
        v = np.eye(1, m, np.argmax(np.einsum("ij,ij->j", A, A)))[0]
    G = A.T @ A if tall else A @ A.T
    x = v if tall else A @ v
    lam = 0.0
    for _ in range(_POWER_MAX_ITERS):
        g = G @ x
        xg = float(x @ g)
        # Rayleigh quotient |A v|^2: v^T G v when tall, |w|^2 when wide
        lam_new = xg if tall else float(x @ x)
        if lam_new == 0.0:
            return 0.0
        x = g / (np.linalg.norm(g) if tall else np.sqrt(xg))
        if abs(lam_new - lam) < tol * lam_new:
            return float(np.sqrt(lam_new))
        lam = lam_new
    raise NoConvergenceError(
        f"spectral_norm: no convergence in {_POWER_MAX_ITERS} power steps (tol={tol:g})"
    )


def _apply_q(h, tau, Z):
    """Q @ Z for the Q of numpy.linalg.qr(..., mode="raw") output (h, tau),
    applying the Householder reflectors to Z padded with zero rows, so the
    long n x r factor Q is never formed."""
    out = np.zeros((h.shape[1], Z.shape[1]))
    out[: Z.shape[0]] = Z
    for j in range(tau.size - 1, -1, -1):
        v = h[j, j:].copy()
        v[0] = 1.0
        out[j:] -= np.outer(tau[j] * v, v @ out[j:])
    return out


def _jacobi_svd(A, k):
    """SVD core. Returns (U, S, V): all r = min(d, m) singular values and the
    leading k singular vector pairs (k = 0 returns S alone)."""
    transposed = A.shape[0] > A.shape[1]
    Y = A.T if transposed else A  # r x n with r <= n
    r = Y.shape[0]
    # Y^T = Q T (Householder, column-wise backward stable), so Y = X Q^T
    # with X = T^T, and the Jacobi sweeps rotate r x r rows instead of
    # r x n. The kernel rotates X in place; np.tril copies out of h.
    h, tau = np.linalg.qr(Y.T, mode="raw")
    X = np.tril(h[:, :r])
    R = np.eye(r)
    # rows at or below 1e-15 of the total norm are numerically zero
    floor2 = (1e-15 * float(np.linalg.norm(X))) ** 2
    # sweep cap + 1 runs only when the last allowed sweep still rotated
    sweeps = kernels.svd_jacobi_rows(X, R, _JACOBI_TOL, floor2, _JACOBI_MAX_SWEEPS + 1)
    if sweeps > _JACOBI_MAX_SWEEPS:
        raise NoConvergenceError(f"Jacobi SVD: rotations left after {_JACOBI_MAX_SWEEPS} sweeps")
    s = np.sqrt(np.einsum("ij,ij->i", X, X))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    if k == 0:
        return None, s, None
    short = np.ascontiguousarray(R[order[:k]].T)
    # right singular vectors of X; where s is numerically zero, complete
    # them to an orthonormal basis of R^r instead
    live = int(np.count_nonzero(s * s > floor2))
    W = X[order].T
    W[:, :live] /= s[:live]
    if live < r:
        W[:, live:] = np.linalg.qr(W[:, :live], mode="complete")[0][:, live:]
    long = _apply_q(h, tau, W[:, :k])
    if transposed:
        return long, s, short
    return short, s, long


def svd_full(A):
    """Full SVD with r = min(d, m) singular triples."""
    A = as_matrix(A)
    return SvdResult(*_jacobi_svd(A, min(A.shape)))


def svd_truncated(A, k):
    """Top-k truncated SVD; the residual spectral norm equals sigma_{k+1}."""
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
    scale = max(1.0, float(np.abs(S).max()))
    if np.abs(S - S.T).max() > _SYM_TOL * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    order = np.argsort(-np.abs(lam), kind="stable")
    return lam[order], V[:, order]


def orthonormalize(Y):
    """Orthonormal basis Q of range(Y), one column per independent direction.

    Pivoted Gram-Schmidt with reorthogonalization; a direction is dropped
    when its pivot (residual norm) falls below _MGS_REL_TOL = 1e-12 times
    the first pivot. Q has rank(Y) columns and QQ^T Y = Y up to roundoff.
    """
    Y = as_matrix(Y, "Y")
    d, k = Y.shape
    if d < k:
        raise BadRankError(f"Y must be tall (d >= k), got {Y.shape}")
    W = Y.T.copy()  # the kernel orthogonalizes rows in place; never alias Y
    order = np.zeros(k, np.int64)
    rank = kernels.mgs_rows(W, _MGS_REL_TOL, order)
    if rank == 0:
        raise BadRankError("Y has no nonzero column")
    keep = np.sort(order[:rank])
    return np.ascontiguousarray(W[keep].T)


def psd_sqrt(L):
    """Unique symmetric PSD square root C with C @ C = L.

    Eigenvalues in [-1e-10 * ||L||_2, 0) are clamped to zero; anything more
    negative raises NotPsd. A reconstruction check (|C C - L| within
    1e-8 max(1, ||L||_2) entrywise) guards the eigendecomposition.
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
    if err > 1e-8 * max(1.0, norm2):
        raise NotPsdError("square-root reconstruction failed; input is not PSD")
    return C
