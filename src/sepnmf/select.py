"""Preconditioned and preprocessed separable-NMF selectors.

Every selector is successive projection on a transformed matrix, built
from stages that an Analysis(A, k, eps), a lowrank.RankK, computes once
per matrix and shares between the methods run on it:

  compress  svd       P = U_k^T A = Sigma_k V_k^T, A's top k singular pairs
                      (RankK._top_factors): from eigh of the shared G = A A^T
                      when G resolves them, else svd_truncated(A, k).
            subspace  P = Q^T A, Q the subspace-iteration basis seeded by
                      the first-pass picks I0 = spa_select(A, k) (power
                      exponent q; on a wide A the rounds run on G).
            seed-svd  SVD of the d x k submatrix A(I0); avoids any SVD of
                      the full matrix.
  whiten    mvee      C = square root of the minimum-volume enclosing
                      ellipsoid of P's columns, applied to P.
            sigma     C = Sigma^{-1} U^T from the compress stage's SVD,
                      applied to A.
  pick      spa       successive projection on the whitened matrix.
            boundary  ellipsoid boundary points as candidates, successive
                      projection on P as the tie-break among them.

SELECTORS names each method's stages: plain `spa` uses none (its picks
are I0), `pspa` is svd + mvee + spa, and its modification `mpspa` swaps
the SVD for the subspace basis; `erspa` / `merspa` are the same two with
boundary picks; `prewhiten` is svd + sigma and `spaspa` seed-svd + sigma.
So pspa, erspa and prewhiten share one SVD, and pspa and erspa one
ellipsoid, as do mpspa and merspa at equal q; on a wide A the svd stage
and the power rounds at every q >= 1 share one G. `select(A, k, method)`
runs one method on its own Analysis; the `*_select` functions are shorthands.

Indices refer to columns of the original matrix and do not depend on its scale.
For spaspa, pspa and mpspa the index set is the contract, not its order:
spaspa's whitening maps the k seed columns to exactly unit norm, and so
does the ellipsoid whitening when the optimal ellipsoid is supported on the
k picks its solver starts from (near-separable data), so roundoff orders them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRankError, RankDeficientError
from .kernels import spa_core
from .linalg import psd_sqrt, svd_full
from .lowrank import RankK
from .mvee import DEFAULT_EPS, ellipsoid_support, solve_mvee
from .reports import stage

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
    timing: dict = field(default_factory=dict)
    notes: tuple = ()


def power_exponent(method, k, q=None):
    """The q `method` runs its power rounds with at rank k when asked for q
    (DEFAULT_Q when None); None when it runs none, as every method at k = 1."""
    if SELECTORS[method][0] != "subspace" or k == 1:
        return None
    return DEFAULT_Q if q is None else q


def _boundary_pick(P, ell, C, k, boundary_tol, notes):
    cand = np.flatnonzero(np.abs(ellipsoid_support(ell, P) - 1.0) <= boundary_tol)
    if cand.size < k:
        # too few boundary points: degrade to selection on the whitened data
        notes.append(f"only {cand.size} boundary points; fell back to whitened selection")
        return spa_core(np.ascontiguousarray(C @ P), k)
    if cand.size == k:
        return np.sort(cand)
    return cand[spa_core(np.ascontiguousarray(P[:, cand]), k)]


class Analysis(RankK):
    """The selection stages of one matrix A at rank k (a RankK: 2**j * A
    picks as A does), each computed the first time a method asks for it; eps
    is the ellipsoid tolerance. Results are bit-identical to select() in any
    order of methods; a stage already computed adds ~0 to a method's timing."""

    def __init__(self, A, k, eps=DEFAULT_EPS):
        super().__init__(A, k)
        self.eps = eps

    def select(self, method, q=None, boundary_tol=DEFAULT_BOUNDARY_TOL):
        """Run the selector named `method` (a key of SELECTORS) on A.

        q is the power exponent of the subspace methods (DEFAULT_Q when
        None); the other methods ignore it. The result's q is the exponent
        the power rounds ran with, None when none ran.

        k = 1 bypasses the ellipsoid methods' preconditioning (the
        conditioning analysis assumes k >= 2) and falls back to plain
        selection, flagged in notes. Raises RankDeficient when the iterated
        basis collapses below k columns (the ellipsoid problem would have
        no solution).
        """
        if method not in SELECTORS:
            raise ValueError(f"unknown selector {method!r}; expected one of {SELECTOR_NAMES}")
        A, k = self.A, self.k
        compress, whiten, pick = SELECTORS[method]
        if compress == "subspace" and q is not None and q < 0:
            raise BadRankError(f"{method}: q must be >= 0, got {q}")
        q = power_exponent(method, k, q)
        timing, notes = {}, []
        if k == 1 and whiten == "mvee":
            compress, whiten, pick = None, None, "spa"
            notes.append("k=1: preconditioning bypassed")

        # compress: P holds A's columns in k coordinates, (U, S) the factors sigma whitens by
        if compress == "svd":
            with stage(timing, "svd"):
                U, S, P = self._memo("svd", self._top_factors)
        elif compress == "subspace":
            with stage(timing, "subspace"):
                Q = self._basis(q)
            if Q.shape[1] < k:
                raise RankDeficientError(f"{method}: iterated basis has rank {Q.shape[1]} < k={k}")
            P = self._memo(("P", compress, q), lambda: np.ascontiguousarray(Q.T @ A))
        elif compress == "seed-svd":
            with stage(timing, "spa_seed"):
                idx0 = self._seed()
            with stage(timing, "svd"):
                f = self._memo("seed-svd", lambda: svd_full(np.ascontiguousarray(A[:, idx0])))
            U, S = f.U, f.S

        # whiten: the pick stage works on C @ X
        C, X = None, A
        if whiten == "mvee":
            with stage(timing, "mvee"):
                ell = self._memo(("mvee", compress, q), lambda: solve_mvee(P, self.eps))
            with stage(timing, "sqrt"):
                C = self._memo(("sqrt", compress, q), lambda: psd_sqrt(ell.L))
            X = P
        elif whiten == "sigma":
            with stage(timing, "svd"):
                if S[-1] <= 1e-12 * S[0]:
                    raise BadRankError(
                        f"{method}: sigma_{k} is numerically zero" if compress == "svd"
                        else f"{method}: seed submatrix is numerically rank deficient"
                    )
                C = np.ascontiguousarray(U.T / S[:, None])

        if pick == "spa":
            with stage(timing, "spa"):
                # plain selection on A is the first pass itself
                idx = self._seed().copy() if C is None else spa_core(
                    np.ascontiguousarray(C @ X), k)
        else:
            with stage(timing, "boundary"):
                idx = _boundary_pick(P, ell, C, k, boundary_tol, notes)
        return SelectorResult(
            indices=idx,
            method=method,
            q=q,
            timing=timing,
            notes=tuple(notes),
        )


def select(A, k, method, q=None, eps=DEFAULT_EPS, boundary_tol=DEFAULT_BOUNDARY_TOL):
    """Run the selector named `method` on A alone: Analysis(A, k, eps).select(...)."""
    return Analysis(A, k, eps).select(method, q, boundary_tol)


def pspa_select(A, k):
    """Selection on the ellipsoid-whitened truncated-SVD coordinates."""
    return select(A, k, "pspa")


def mpspa_select(A, k, q):
    """pspa with the truncated SVD replaced by the subspace-iteration basis."""
    return select(A, k, "mpspa", q)


def erspa_select(A, k):
    """Ellipsoid-boundary candidates, successive projection as tie-break."""
    return select(A, k, "erspa")


def merspa_select(A, k, q):
    """erspa with the subspace-iteration compression in place of the SVD."""
    return select(A, k, "merspa", q)


def prewhiten_spa_select(A, k):
    """Selection on Sigma_k^{-1} U_k^T A (whitened top-k coordinates)."""
    return select(A, k, "prewhiten")


def spaspa_select(A, k):
    """First-pass picks whiten the data: selection on Sigma^{-1} U^T A from A(I0)."""
    return select(A, k, "spaspa")
