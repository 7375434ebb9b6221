"""Hot numeric kernels: one-sided Jacobi SVD sweeps, pivoted row
Gram-Schmidt, the successive-projection selection loop, and the
ellipsoid dual-ascent loop.

All loops operate on rows of C-ordered arrays so every inner np.dot sees
contiguous memory.
"""

import math

import numpy as np


def svd_jacobi_rows(X, R, tol, floor2, max_sweeps):
    # Orthogonalize the rows of X in place by plane rotations, accumulating
    # the same rotations in R (so original X = R.T @ final X). Rows whose
    # squared norm is at or below floor2 count as numerically zero and are
    # left alone. Returns the number of sweeps used; a sweep with no
    # rotations means convergence.
    r = X.shape[0]
    norms2 = np.empty(r)
    sweeps = 0
    for _sweep in range(max_sweeps):
        for i in range(r):
            norms2[i] = np.dot(X[i], X[i])
        rotated = 0
        for i in range(r - 1):
            for j in range(i + 1, r):
                a = norms2[i]
                b = norms2[j]
                if a <= floor2 or b <= floor2:
                    continue
                xi = X[i]
                xj = X[j]
                c = np.dot(xi, xj)
                if abs(c) <= tol * math.sqrt(a * b):
                    continue
                rotated += 1
                zeta = (b - a) / (2.0 * c)
                if zeta >= 0.0:
                    t = 1.0 / (zeta + math.sqrt(1.0 + zeta * zeta))
                else:
                    t = -1.0 / (-zeta + math.sqrt(1.0 + zeta * zeta))
                cs = 1.0 / math.sqrt(1.0 + t * t)
                sn = cs * t
                tmp = cs * xi - sn * xj
                X[j] = sn * xi + cs * xj
                X[i] = tmp
                norms2[i] = max(a - t * c, 0.0)
                norms2[j] = max(b + t * c, 0.0)
                ri = R[i].copy()
                R[i] = cs * ri - sn * R[j]
                R[j] = sn * ri + cs * R[j]
        sweeps += 1
        if rotated == 0:
            break
    return sweeps


def mgs_rows(W, rel_tol, order):
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


def spa_core(A, k, norm_floor, idx):
    # Greedy max-norm column picks with the incremental squared-norm
    # downdate sq[j] -= (u . a_j)^2, u the unit residual of the pivot.
    # Ties at the argmax go to the smallest column index. Returns
    # (rounds_completed, status); status 1 = degenerate residuals.
    d, m = A.shape
    sq = np.zeros(m)
    for i in range(d):
        sq += A[i] * A[i]
    U = np.empty((k, d))
    floor2 = norm_floor * norm_floor
    for r in range(k):
        j = int(np.argmax(sq))
        if sq[j] <= floor2:
            return r, 1
        v = A[:, j].copy()
        for _rep in range(2):
            for rr in range(r):
                v -= np.dot(U[rr], v) * U[rr]
        nv = math.sqrt(np.dot(v, v))
        if nv <= norm_floor:
            return r, 1
        v /= nv
        U[r] = v
        dots = np.dot(v, A)
        sq = np.maximum(sq - dots * dots, 0.0)
        idx[r] = j
    return k, 0


def mvee_ascent(P, u, minv, kappa, eps, max_iter, refresh_every):
    # Dual D-optimal-design ascent with Wolfe away steps over the points in
    # the rows of P. u, minv (= M(u)^-1) and kappa (= p_i^T minv p_i) are
    # updated in place via rank-one identities. Returns (status, iters):
    # status 0 converged, 1 refresh requested, 2 iteration budget spent.
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
        if iters % refresh_every == 0:
            return 1, iters
    return 2, iters
