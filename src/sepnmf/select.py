"""Preconditioned and preprocessed separable-NMF selectors.

Every selector is successive projection on a transformed matrix, built in
three stages:

  compress  svd       P = Sigma_k V_k^T from the truncated SVD of A.
            subspace  P = Q^T A, Q the subspace-iteration basis seeded by
                      successive projection (power exponent q).
            seed-svd  SVD of the d x k submatrix A(I0) of the first-pass
                      picks I0; avoids any SVD of the full matrix.
  whiten    mvee      C = square root of the minimum-volume enclosing
                      ellipsoid of P's columns, applied to P.
            sigma     C = Sigma^{-1} U^T from the compress stage's SVD,
                      applied to A.
  pick      spa       successive projection on the whitened matrix.
            boundary  ellipsoid boundary points as candidates, successive
                      projection on P as the tie-break among them.

SELECTORS names each method's stages: plain `spa` uses none, `pspa` is
svd + mvee + spa, and its modification `mpspa` swaps the SVD for the
subspace basis; `erspa` / `merspa` are the same two with boundary picks;
`prewhiten` is svd + sigma and `spaspa` seed-svd + sigma. `select(A, k,
method)` runs any of them; the `*_select` functions are its shorthands.

Selection indices always refer to columns of the original matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRankError, RankDeficientError
from .linalg import as_matrix, psd_sqrt, svd_full, svd_truncated
from .lowrank import BoundReport, bound_report, spa_rank_approx, subspace_basis
from .mvee import DEFAULT_EPS, ellipsoid_support, solve_mvee
from .reports import stage
from .spa import spa_select

DEFAULT_BOUNDARY_TOL = 1e-3
DEFAULT_Q = 10

# method -> (compress, whiten, pick)
SELECTORS = {
    "spa": (None, None, "spa"),
    "pspa": ("svd", "mvee", "spa"),
    "mpspa": ("subspace", "mvee", "spa"),
    "erspa": ("svd", "mvee", "boundary"),
    "merspa": ("subspace", "mvee", "boundary"),
    "prewhiten": ("svd", "sigma", "spa"),
    "spaspa": ("seed-svd", "sigma", "spa"),
}
SELECTOR_NAMES = tuple(SELECTORS)


@dataclass
class SelectorResult:
    indices: np.ndarray
    method: str
    q: int | None = None
    preconditioner: np.ndarray | None = None
    diagnostics: BoundReport | None = None
    timing: dict = field(default_factory=dict)
    notes: tuple = ()


def resolve_q(method, q=None):
    """The power exponent `method` runs with: DEFAULT_Q for a subspace method given None."""
    if q is None and SELECTORS[method][0] == "subspace":
        return DEFAULT_Q
    return q


def _boundary_pick(P, ell, C, k, boundary_tol, notes):
    cand = np.flatnonzero(np.abs(ellipsoid_support(ell, P) - 1.0) <= boundary_tol)
    if cand.size < k:
        # too few boundary points: degrade to selection on the whitened data
        notes.append(f"only {cand.size} boundary points; fell back to whitened selection")
        return spa_select(np.ascontiguousarray(C @ P), k)
    if cand.size == k:
        return np.sort(cand)
    return cand[spa_select(np.ascontiguousarray(P[:, cand]), k)]


def select(A, k, method, q=None, eps=DEFAULT_EPS, boundary_tol=DEFAULT_BOUNDARY_TOL,
           diagnostics=False):
    """Run the selector named `method` (a key of SELECTORS) on A.

    q is the power exponent of the subspace methods (DEFAULT_Q when None);
    the other methods ignore it. With diagnostics=True the subspace methods
    form the full rank-k approximation and attach its bound report.

    k = 1 bypasses the ellipsoid methods' preconditioning (the conditioning
    analysis assumes k >= 2) and falls back to plain selection, flagged in
    notes. Raises RankDeficient when the iterated basis collapses below k
    columns (the ellipsoid problem would have no solution).
    """
    if method not in SELECTORS:
        raise ValueError(f"unknown selector {method!r}; expected one of {SELECTOR_NAMES}")
    A = as_matrix(A)
    if not (1 <= k <= min(A.shape)):
        raise BadRankError(f"{method}: k must satisfy 1 <= k <= {min(A.shape)}, got {k}")
    compress, whiten, pick = SELECTORS[method]
    q = resolve_q(method, q) if compress == "subspace" else None
    if q is not None and q < 0:
        raise BadRankError(f"{method}: q must be >= 0, got {q}")
    timing, notes, report = {}, [], None
    if k == 1 and whiten == "mvee":
        compress, whiten, pick, q = None, None, "spa", None
        notes.append("k=1: preconditioning bypassed")

    # compress: P holds A's columns in k coordinates, f the SVD sigma whitens by
    if compress == "svd":
        with stage(timing, "svd"):
            f = svd_truncated(A, k)
            if whiten == "mvee":
                P = np.ascontiguousarray(f.S[:, None] * f.V.T)
    elif compress == "subspace":
        with stage(timing, "subspace"):
            if diagnostics:
                approx = spa_rank_approx(A, k, q)
                Q = approx.Q
                report = bound_report(A, approx)
            else:
                Q = subspace_basis(A, np.ascontiguousarray(A[:, spa_select(A, k)]), q)
        if Q.shape[1] < k:
            raise RankDeficientError(f"{method}: iterated basis has rank {Q.shape[1]} < k={k}")
        P = np.ascontiguousarray(Q.T @ A)
    elif compress == "seed-svd":
        with stage(timing, "spa_seed"):
            idx0 = spa_select(A, k)
        with stage(timing, "svd"):
            f = svd_full(np.ascontiguousarray(A[:, idx0]))

    # whiten: the pick stage works on C @ X
    C, X, preconditioner = None, A, None
    if whiten == "mvee":
        with stage(timing, "mvee"):
            ell = solve_mvee(P, eps)
        with stage(timing, "sqrt"):
            C = psd_sqrt(ell.L)
        X, preconditioner = P, C
    elif whiten == "sigma":
        with stage(timing, "svd"):
            if f.S[-1] <= 1e-12 * f.S[0]:
                raise BadRankError(
                    f"{method}: sigma_{k} is numerically zero" if compress == "svd"
                    else f"{method}: seed submatrix is numerically rank deficient"
                )
            C = np.ascontiguousarray(f.U.T / f.S[:, None])
        # k x k symmetric record of the conditioning applied (C C^T form)
        preconditioner = np.diag(1.0 / (f.S * f.S))

    if pick == "spa":
        with stage(timing, "spa"):
            idx = spa_select(A if C is None else np.ascontiguousarray(C @ X), k)
    else:
        with stage(timing, "boundary"):
            idx = _boundary_pick(P, ell, C, k, boundary_tol, notes)
    return SelectorResult(
        indices=idx,
        method=method,
        q=q,
        preconditioner=preconditioner,
        diagnostics=report,
        timing=timing,
        notes=tuple(notes),
    )


def pspa_select(A, k, eps=DEFAULT_EPS):
    """Selection on the ellipsoid-whitened truncated-SVD coordinates."""
    return select(A, k, "pspa", eps=eps)


def mpspa_select(A, k, q, eps=DEFAULT_EPS, diagnostics=False):
    """pspa with the truncated SVD replaced by the subspace-iteration basis."""
    return select(A, k, "mpspa", q, eps, diagnostics=diagnostics)


def erspa_select(A, k, eps=DEFAULT_EPS, boundary_tol=DEFAULT_BOUNDARY_TOL):
    """Ellipsoid-boundary candidates, successive projection as tie-break."""
    return select(A, k, "erspa", eps=eps, boundary_tol=boundary_tol)


def merspa_select(A, k, q, eps=DEFAULT_EPS, boundary_tol=DEFAULT_BOUNDARY_TOL):
    """erspa with the subspace-iteration compression in place of the SVD."""
    return select(A, k, "merspa", q, eps, boundary_tol)


def prewhiten_spa_select(A, k):
    """Selection on Sigma_k^{-1} U_k^T A (whitened top-k coordinates)."""
    return select(A, k, "prewhiten")


def spaspa_select(A, k):
    """First-pass picks whiten the data: selection on Sigma^{-1} U^T A from A(I0)."""
    return select(A, k, "spaspa")
