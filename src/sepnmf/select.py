"""Preconditioned and preprocessed separable-NMF selectors.

Every selector is successive projection on a transformed matrix, built
from stages that an Analysis(A, k, eps) computes once per matrix and
shares between the methods run on it:

  compress  svd       P = Sigma_k V_k^T from the truncated SVD of A.
            subspace  P = Q^T A, Q the subspace-iteration basis seeded by
                      the first-pass picks I0 = spa_select(A, k) (power
                      exponent q; continues the largest q already run).
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
ellipsoid, as do mpspa and merspa at equal q. `select(A, k, method)` runs
one method on its own Analysis; the `*_select` functions are shorthands.

Indices refer to columns of the original matrix and do not depend on its scale.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRankError, RankDeficientError
from .linalg import as_matrix, pow2_scaled, psd_sqrt, svd_full, svd_truncated
from .lowrank import power_rounds, subspace_basis
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


class Analysis:
    """The selection stages of one matrix A at rank k (validated once), each
    computed the first time a method asks for it; eps is the ellipsoid
    tolerance. Results are bit-identical to select() in any order of
    methods; a stage already computed adds ~0 to a method's timing."""

    def __init__(self, A, k, eps=DEFAULT_EPS):
        self.A = pow2_scaled(as_matrix(A))[0]  # 2**j * A runs as A does
        if not (1 <= k <= min(self.A.shape)):
            raise BadRankError(f"k must satisfy 1 <= k <= {min(self.A.shape)}, got {k}")
        self.k = k
        self.eps = eps
        self._stages = {}
        self._chain = {}  # q -> subspace basis Q_q

    def _memo(self, key, compute):
        if key not in self._stages:
            self._stages[key] = compute()
        return self._stages[key]

    def _seed(self):
        """First-pass picks I0 = spa_select(A, k)."""
        return self._memo("seed", lambda: spa_select(self.A, self.k))

    def _basis(self, q):
        """subspace_basis(A, A(I0), q), continued from the largest q' <= q computed."""
        done = max((p for p in self._chain if p <= q), default=None)
        if done is None:
            start = np.ascontiguousarray(self.A[:, self._seed()])
            self._chain[q] = subspace_basis(self.A, start, q)
        elif done < q:
            self._chain[q] = power_rounds(self.A, self._chain[done], q - done)
        return self._chain[q]

    def select(self, method, q=None, boundary_tol=DEFAULT_BOUNDARY_TOL):
        """Run the selector named `method` (a key of SELECTORS) on A.

        q is the power exponent of the subspace methods (DEFAULT_Q when
        None); the other methods ignore it.

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
        q = resolve_q(method, q) if compress == "subspace" else None
        if q is not None and q < 0:
            raise BadRankError(f"{method}: q must be >= 0, got {q}")
        timing, notes = {}, []
        if k == 1 and whiten == "mvee":
            compress, whiten, pick, q = None, None, "spa", None
            notes.append("k=1: preconditioning bypassed")

        # compress: P holds A's columns in k coordinates, f the SVD sigma whitens by
        if compress == "svd":
            with stage(timing, "svd"):
                f = self._memo("svd", lambda: svd_truncated(A, k))
                P = self._memo(("P", compress, q), lambda: np.ascontiguousarray(f.S[:, None] * f.V.T))
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
                if f.S[-1] <= 1e-12 * f.S[0]:
                    raise BadRankError(
                        f"{method}: sigma_{k} is numerically zero" if compress == "svd"
                        else f"{method}: seed submatrix is numerically rank deficient"
                    )
                C = np.ascontiguousarray(f.U.T / f.S[:, None])

        if pick == "spa":
            with stage(timing, "spa"):
                # plain selection on A is the first pass itself
                idx = self._seed().copy() if C is None else spa_select(
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


def erspa_select(A, k, boundary_tol=DEFAULT_BOUNDARY_TOL):
    """Ellipsoid-boundary candidates, successive projection as tie-break."""
    return select(A, k, "erspa", boundary_tol=boundary_tol)


def merspa_select(A, k, q):
    """erspa with the subspace-iteration compression in place of the SVD."""
    return select(A, k, "merspa", q)


def prewhiten_spa_select(A, k):
    """Selection on Sigma_k^{-1} U_k^T A (whitened top-k coordinates)."""
    return select(A, k, "prewhiten")


def spaspa_select(A, k):
    """First-pass picks whiten the data: selection on Sigma^{-1} U^T A from A(I0)."""
    return select(A, k, "spaspa")
