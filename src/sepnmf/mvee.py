"""Minimum-volume origin-centered enclosing ellipsoid.

Solves  minimize -log det(L)  s.t.  p^T L p <= 1 for every point p,
L positive definite, through the dual D-optimal design: ascend
log det M(u) over the weight simplex (Wolfe-Atwood coordinate steps with
away steps) on a working set that starts as the 10k largest-norm points.
One loop alternates ascent bursts of at most _REFRESH_EVERY steps with a
refresh that inverts M(u) on the working set once. L = M(u)^{-1} / k
gives each point's violation p^T L p - 1; these serve the certificate
and admit up to k of the worst violators outside the working set, and
the same inverse starts the next burst when none joins. The
Kiefer-Wolfowitz gap certifies log det(L) >= log det(L_opt) - k log(1+eps).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatchError, NoConvergenceError, RankDeficientError
from .linalg import as_matrix, eigh_sym, orthonormalize

DEFAULT_EPS = 1e-6
MAX_INNER_ITERS = 100_000
_REFRESH_EVERY = 1000
_SUPPORT_TOL = 1e-8
_EIG_FLOOR_REL = 1e-14


@dataclass
class Ellipsoid:
    """Solution of the enclosing-ellipsoid problem plus its certificate."""

    L: np.ndarray
    weights: np.ndarray
    support: np.ndarray
    max_violation: float
    iterations: int


def _inv_psd(M):
    lam, V = eigh_sym(M)
    floor = _EIG_FLOOR_REL * float(lam.sum())
    lam = np.maximum(lam, max(floor, 1e-300))
    return (V / lam) @ V.T


def _inv_moment(Pw, u):
    return _inv_psd((Pw * u[:, None]).T @ Pw)


def solve_mvee(P, eps=DEFAULT_EPS):
    """Ellipsoid for the columns of the k x m point matrix P.

    Requires rank(P) = k and eps in (0, 0.5). Deterministic. Raises
    NoConvergence (carrying the last iterate) if the iteration budget is
    exhausted before the certificate holds.
    """
    P = as_matrix(P, "P")
    k, m = P.shape
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    if m < k:
        raise RankDeficientError(f"need at least k={k} points, got {m}")
    if orthonormalize(P.T).shape[1] < k:
        raise RankDeficientError(f"points span fewer than k={k} dimensions")

    pts = np.ascontiguousarray(P.T)  # one point per row
    if k == 1:
        return _solve_1d(pts[:, 0])

    norms = np.einsum("ij,ij->i", pts, pts)
    order = np.argsort(-norms, kind="stable")
    ws = np.sort(order[: min(10 * k, m)])
    Pw = np.ascontiguousarray(pts[ws])
    u = np.full(ws.size, 1.0 / ws.size)
    u = u / u.sum()  # as after each admission: n terms of 1/n need not sum to 1
    u_full = np.zeros(m)
    minv = _inv_moment(Pw, u)
    iters = 0
    # every pass takes ascent steps or grows the working set, so the step
    # budget bounds the loop
    while iters < MAX_INNER_ITERS:
        kappa = np.einsum("ij,jl,il->i", Pw, minv, Pw)
        status, done = kernels.mvee_ascent(
            Pw, u, minv, kappa, eps, min(_REFRESH_EVERY, MAX_INNER_ITERS - iters)
        )
        iters += done
        minv = _inv_moment(Pw, u)  # the burst updated minv in place; start afresh
        L = minv / k
        L = 0.5 * (L + L.T)
        viol = np.einsum("ij,jl,il->i", pts, L, pts) - 1.0
        u_full[ws] = u
        support = np.flatnonzero(u_full > _SUPPORT_TOL)
        ell = Ellipsoid(L, u_full, support, float(viol.max()), iters)
        # admit the worst violators outside the working set, at most k per pass
        out = np.setdiff1d(np.flatnonzero(viol > eps), ws)
        if out.size:
            ws = np.union1d(ws, out[np.argsort(-viol[out], kind="stable")][:k])
            Pw = np.ascontiguousarray(pts[ws])
            u = np.maximum(u_full[ws], 1e-12)
            u = u / u.sum()
            minv = _inv_moment(Pw, u)
        elif status == 0:
            return ell
    raise NoConvergenceError(
        f"ellipsoid ascent hit {MAX_INNER_ITERS} iterations "
        f"(violation {ell.max_violation:.3e})",
        ellipsoid=ell,
    )


def _solve_1d(xs):
    j = int(np.argmax(np.abs(xs)))
    top = xs[j] * xs[j]
    if top <= 0.0:
        raise RankDeficientError("all points are zero")
    u = np.zeros(xs.size)
    u[j] = 1.0
    L = np.array([[1.0 / top]])
    viol = float((xs * xs / top).max() - 1.0)
    return Ellipsoid(
        L=L,
        weights=u,
        support=np.array([j]),
        max_violation=viol,
        iterations=0,
    )


def ellipsoid_support(L, P):
    """Quadratic form p^T L p for every column p of P.

    Accepts either an Ellipsoid or a bare k x k matrix.
    """
    Lm = L.L if isinstance(L, Ellipsoid) else np.asarray(L, dtype=np.float64)
    P = as_matrix(P, "P")
    if Lm.shape[0] != Lm.shape[1] or Lm.shape[0] != P.shape[0]:
        raise DimensionMismatchError(
            f"L is {Lm.shape} but points have dimension {P.shape[0]}"
        )
    return np.einsum("ji,jl,li->i", P, Lm, P)
