"""Hot numeric kernels: one-sided Jacobi SVD sweeps, pivoted row
Gram-Schmidt, the successive-projection selection loop, and the
ellipsoid dual-ascent loop.

Each kernel returns its result and raises the package's typed errors
itself. Work on many vectors at once is one array operation: a round of
Jacobi pairs, or SPA's pivot projected off all its picks.
"""

import functools
import math

import numpy as np

from .errors import NoConvergenceError, RankDeficientError

REL_DEGENERATE_TOL = 1e-12  # spa_core's residual floor, relative to ||A||_F
JACOBI_TOL = 1e-14  # svd_jacobi_rows rotates a pair while |cos| of its rows exceeds this
JACOBI_MAX_SWEEPS = 60  # svd_jacobi_rows raises when this many sweeps still rotate


@functools.lru_cache(maxsize=128)
def _round_robin(r, lead):
    # Brent-Luk schedule by the circle method: r - 1 rounds (r for odd r,
    # where slot r is a bye) of floor(r/2) disjoint pairs (i < j), each pair
    # once; only pairs with i < lead are kept. Cached: read-only.
    slots = list(range(r + r % 2))
    n = len(slots)
    rounds = []
    for _ in range(n - 1):
        pairs = np.array([sorted((slots[p], slots[n - 1 - p])) for p in range(n // 2)], dtype=np.intp)
        pairs = pairs[(pairs[:, 1] < r) & (pairs[:, 0] < lead)].T.copy()
        if pairs.size:
            pairs.flags.writeable = False
            rounds.append(tuple(pairs))
        slots = slots[:1] + slots[-1:] + slots[1:-1]
    return tuple(rounds)


def svd_jacobi_rows(X, R, floor2, lead):
    # Orthogonalize the rows of X in place by plane rotations, accumulating
    # the same rotations in R (so original X = R.T @ final X). Rows whose
    # squared norm is at or below floor2 count as numerically zero and are
    # left alone. A sweep visits once, in round-robin rounds of disjoint pairs,
    # every pair touching one of the first lead rows (all at lead = rows of X)
    # and rotates it while |cos| > JACOBI_TOL. Returns the number of sweeps;
    # a sweep with no rotations converges, and NoConvergenceError is raised
    # when sweep JACOBI_MAX_SWEEPS still rotated.
    n = X.shape[1]
    XR = np.concatenate([X, R], axis=1)  # one gather/scatter rotates both
    rounds = _round_robin(X.shape[0], lead)
    sweeps = 0
    for _sweep in range(JACOBI_MAX_SWEEPS):
        norms2 = np.einsum("ij,ij->i", XR[:, :n], XR[:, :n])
        rotated = 0
        for I, J in rounds:
            a = norms2[I]
            b = norms2[J]
            xi = XR[I]
            xj = XR[J]
            c = np.einsum("ij,ij->i", xi[:, :n], xj[:, :n])
            # |cos| > tol, with no product of squared norms to overflow or underflow
            live = (np.minimum(a, b) > floor2) & (np.abs(c) > JACOBI_TOL * np.sqrt(a) * np.sqrt(b))
            if not live.all():
                if not live.any():
                    continue
                I, J, a, b, c, xi, xj = I[live], J[live], a[live], b[live], c[live], xi[live], xj[live]
            rotated += I.size
            zeta = (b - a) / (2.0 * c)
            t = np.copysign(1.0 / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)), zeta)
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            cs, sn = cs[:, None], sn[:, None]
            XR[I] = cs * xi - sn * xj
            XR[J] = sn * xi + cs * xj
            tc = t * c
            norms2[I] = np.maximum(a - tc, 0.0)
            norms2[J] = np.maximum(b + tc, 0.0)
        sweeps += 1
        if rotated == 0:
            break
    else:
        raise NoConvergenceError(f"Jacobi SVD: rotations left after {JACOBI_MAX_SWEEPS} sweeps")
    X[:] = XR[:, :n]
    R[:] = XR[:, n:]
    return sweeps


def mgs_rows(W, rel_tol, order):
    # No caller in the package: kept only because the benchmark's tracer
    # pins this name; it goes with the next benchmark change.
    # Pivoted modified Gram-Schmidt on the rows of W (modified in place).
    # Pivot = residual row norm; a row is dependent once its pivot falls
    # below rel_tol times the first pivot. Selected, normalized rows end up
    # at W[order[:rank]]. Returns rank.
    kk = W.shape[0]
    norms2 = np.empty(kk)
    for i in range(kk):
        norms2[i] = np.dot(W[i], W[i])
    active = np.ones(kk, np.bool_)
    first_pivot = 0.0
    rank = 0
    for _step in range(kk):
        best = -1
        bestv = -1.0
        for i in range(kk):
            if active[i] and norms2[i] > bestv:
                bestv = norms2[i]
                best = i
        if best < 0:
            break
        piv = math.sqrt(max(bestv, 0.0))
        if rank == 0:
            if piv <= 0.0:
                break
            first_pivot = piv
        elif piv < rel_tol * first_pivot:
            break
        v = W[best].copy()
        for r in range(rank):
            q = W[order[r]]
            v -= np.dot(q, v) * q
        nv = math.sqrt(np.dot(v, v))
        if rank > 0 and nv < rel_tol * first_pivot:
            active[best] = False
            norms2[best] = 0.0
            continue
        v /= nv
        W[best] = v
        order[rank] = best
        active[best] = False
        rank += 1
        for i in range(kk):
            if active[i]:
                proj = np.dot(v, W[i])
                W[i] = W[i] - proj * v
                norms2[i] = np.dot(W[i], W[i])
    return rank


def _project_out(X, U):
    # (I - U^T U) X for orthonormal rows U by block products, projected out
    # twice: classical Gram-Schmidt twice is enough (Giraud, Langou &
    # Rozloznik, Comput. Math. Appl. 2005)
    X = X.copy()
    for _rep in range(2):
        X -= U.T @ (U @ X)
    return X


def spa_core(A, k):
    # Greedy max-norm column picks with the incremental squared-norm
    # downdate sq[j] -= (u . a_j)^2, u the unit residual of the pivot.
    # Ties at the argmax go to the smallest column index. The floor is
    # REL_DEGENERATE_TOL times ||A||_F, read off the squared column norms
    # summed below (A finite, C-ordered and pow2_scaled). The pivot's
    # residual is _project_out of its column. The downdate cancels to
    # noise once residuals fall below ~1e-8 of their column norms, so a round
    # that finds no residual above the floor recomputes the norms exactly, as
    # _project_out of A, and retakes its pick before it gives up. Returns the
    # k picks in order; raises RankDeficientError when residuals run out.
    d, m = A.shape
    sq = np.einsum("ij,ij->j", A, A)
    norm_floor = REL_DEGENERATE_TOL * math.sqrt(sq.sum())
    U = np.empty((k, d))
    idx = np.zeros(k, np.int64)
    floor2 = norm_floor * norm_floor
    for r in range(k):
        for exact in (False, True):
            if exact:
                R = _project_out(A, U[:r])
                sq = np.einsum("ij,ij->j", R, R)
            j = int(np.argmax(sq))
            nv = 0.0
            if sq[j] > floor2:
                v = _project_out(A[:, j], U[:r])
                nv = math.sqrt(np.dot(v, v))
            if nv > norm_floor:
                break
        else:
            raise RankDeficientError(f"residual norms exhausted after {r} of {k} rounds")
        v /= nv
        U[r] = v
        dots = np.dot(v, A)
        sq = np.maximum(sq - dots * dots, 0.0)
        idx[r] = j
    return idx


def mvee_ascent(P, u, minv, kappa, eps, max_iter):
    # Dual D-optimal-design ascent with Wolfe away steps over the points in
    # the rows of P. u, minv (= M(u)^-1) and kappa (= p_i^T minv p_i) are
    # updated in place via rank-one identities. Returns (status, iters):
    # status 0 converged, 1 after max_iter steps without convergence.
    mw, kk = P.shape
    kf = float(kk)
    hi = kf * (1.0 + eps)
    lo = kf * (1.0 - eps)
    iters = 0
    while iters < max_iter:
        jmax = int(np.argmax(kappa))
        kmax = kappa[jmax]
        masked = np.where(u > 0.0, kappa, np.inf)
        jmin = int(np.argmin(masked))
        kmin = kappa[jmin]
        if kmax <= hi and kmin >= lo:
            return 0, iters
        dropped = False
        if (kmax - kf) >= (kf - kmin):
            j = jmax
            kap = kmax
            beta = (kap - kf) / (kf * (kap - 1.0))
        else:
            j = jmin
            kap = kmin
            bmin = -u[j] / (1.0 - u[j]) if u[j] < 1.0 else -1e300
            denom = kf * (kap - 1.0)
            beta = (kap - kf) / denom if denom > 0.0 else bmin
            if beta <= bmin:
                beta = bmin
                dropped = True
        c = 1.0 - beta
        p = P[j]
        mp = np.dot(minv, p)
        gamma = beta / (c * (c + beta * kap))
        w = np.dot(P, mp)
        u *= c
        u[j] += beta
        if dropped or u[j] < 0.0:
            u[j] = 0.0
        kappa[:] = kappa / c - gamma * (w * w)
        minv[:, :] = minv / c - gamma * (mp.reshape(kk, 1) * mp.reshape(1, kk))
        iters += 1
    return 1, iters
