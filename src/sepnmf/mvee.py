"""Minimum-volume origin-centered enclosing ellipsoid.

Solves  minimize -log det(L)  s.t.  p^T L p <= 1 for every point p,
L positive definite, through the dual D-optimal design: ascend
log det M(u) over the weight simplex (Wolfe-Atwood coordinate steps with
away steps). The weights start uniform on the k successive-projection
picks of the points, on a working set of those picks and the 10k
largest-norm points; on near-separable data the picks are the optimal
support, so that start is optimal and certifies at zero steps (core-set
starts after Kumar & Yildirim, JOTA 2005). One loop alternates ascent
bursts of at most _REFRESH_EVERY steps with a refresh that inverts M(u)
on the working set once. L = M(u)^{-1} / k gives each point's violation
p^T L p - 1; these serve the certificate and admit up to k of the worst
violators outside the working set, and the same inverse starts the next
burst when none joins. The Kiefer-Wolfowitz gap certifies
log det(L) >= log det(L_opt) - k log(1+eps).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatchError, NoConvergenceError, RankDeficientError
from .linalg import as_matrix, eigh_sym, pow2_scaled

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
    if lam.min() <= max(_EIG_FLOOR_REL * float(lam.sum()), 1e-300):
        raise RankDeficientError(f"points span fewer than k={M.shape[0]} dimensions")
    return (V / lam) @ V.T


def _inv_moment(Pw, u):
    return _inv_psd((Pw * u[:, None]).T @ Pw)


def solve_mvee(P, eps=DEFAULT_EPS):
    """Ellipsoid for the columns of the k x m point matrix P.

    Requires rank(P) = k and eps in (0, 0.5). Deterministic. Raises
    RankDeficient when P spans fewer than k directions (successive
    projection runs out of residual, or M(u) is numerically singular), and
    NoConvergence (carrying the last iterate) when the ascent stops before
    the certificate holds: at the iteration budget, or when a fresh
    inverse refutes a burst that took no step.
    """
    P = as_matrix(P, "P")
    k, m = P.shape
    if not (0.0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 0.5), got {eps}")
    if m < k:
        raise RankDeficientError(f"need at least k={k} points, got {m}")
    picks = kernels.spa_core(pow2_scaled(P)[0], k)

    pts = np.ascontiguousarray(P.T)  # one point per row
    norms = np.einsum("ij,ij->i", pts, pts)
    order = np.argsort(-norms, kind="stable")
    ws = np.union1d(order[: min(10 * k, m)], picks)
    Pw = np.ascontiguousarray(pts[ws])
    u = np.where(np.isin(ws, picks), 1.0 / k, 0.0)
    u = u / u.sum()  # as after each admission: k terms of 1/k need not sum to 1
    u_full = np.zeros(m)
    minv = _inv_moment(Pw, u)
    iters = 0
    # every pass takes ascent steps, grows the working set or ends the loop,
    # so the step budget bounds it
    while iters < MAX_INNER_ITERS:
        kappa = np.einsum("ij,ij->i", Pw @ minv, Pw)
        status, done = kernels.mvee_ascent(
            Pw, u, minv, kappa, eps, min(_REFRESH_EVERY, MAX_INNER_ITERS - iters)
        )
        iters += done
        minv = _inv_moment(Pw, u)  # the burst updated minv in place; start afresh
        L = minv / k
        L = 0.5 * (L + L.T)
        viol = np.einsum("ij,ij->i", pts @ L, pts) - 1.0
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
        elif status == 0 and ell.max_violation <= eps:
            return ell
        elif done == 0:
            break  # no step on a state the fresh inverse refutes: the next burst would match
    raise NoConvergenceError(
        f"ellipsoid ascent stopped after {iters} iterations "
        f"(violation {ell.max_violation:.3e})",
        ellipsoid=ell,
    )


def ellipsoid_support(ell, P):
    """Quadratic form p^T L p for every column p of P, with L = ell.L of an
    Ellipsoid; 1 marks a point on its boundary."""
    P = as_matrix(P, "P")
    if ell.L.shape != (P.shape[0],) * 2:
        raise DimensionMismatchError(f"L is {ell.L.shape} but points have dimension {P.shape[0]}")
    return np.einsum("ij,ij->j", ell.L @ P, P)
