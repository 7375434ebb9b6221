"""Independent reference implementations used only by the tests.

These deliberately take the slow, obvious route so they share no code
path with the production implementations they check: the selection
oracle materializes full projectors, the quadratic forms p^T L p are one
three-operand einsum, the ellipsoid oracle runs plain
coordinate ascent on the complete point set to near-exact precision, the
abundance oracle enumerates every support pattern, and the simplex
projection oracle sorts each row (Held, Wolfe & Crowder 1974).
project_rows_to_simplex, Michelot's sort-free projection, serves the
abundance KKT check; its own tests check it against that sort.
"""

import itertools

import numpy as np


def naive_spa(A, k):
    """Selection by explicit projector deflation, O(d^2 m k)."""
    S = np.array(A, dtype=float)
    d = S.shape[0]
    idx = []
    for _ in range(k):
        norms = (S * S).sum(axis=0)
        j = int(np.argmax(norms))
        idx.append(j)
        t = S[:, j].copy()
        P = np.eye(d) - np.outer(t, t) / float(t @ t)
        S = P @ S
    return np.asarray(idx)


def quadratic_forms(P, L):
    """p^T L p for every column p of P, as one three-operand einsum."""
    return np.einsum("ji,jl,li->i", P, L, P)


def khachiyan_logdet(P, eps=1e-10, max_iter=500_000):
    """High-precision dual ascent on the full point set.

    Frank-Wolfe steps with away steps, periodic from-scratch refresh of the
    inverse to keep the incremental updates honest. Returns (log det L, L,
    u, gap): gap = k log(max_i kappa_i / k) is the Kiefer-Wolfowitz bound on
    log det L_opt - log det L at the final weights, computed afresh, so a
    run that stops at max_iter still says how far from optimal it is.
    """
    pts = np.array(P.T, dtype=float)
    mw, k = pts.shape
    u = np.full(mw, 1.0 / mw)

    def refresh():
        M = (pts * u[:, None]).T @ pts
        minv = np.linalg.inv(M)
        kappa = quadratic_forms(pts.T, minv)
        return minv, kappa

    minv, kappa = refresh()
    for it in range(max_iter):
        jmax = int(np.argmax(kappa))
        masked = np.where(u > 0, kappa, np.inf)
        jmin = int(np.argmin(masked))
        if kappa[jmax] <= k * (1 + eps) and kappa[jmin] >= k * (1 - eps):
            break
        if kappa[jmax] - k >= k - kappa[jmin]:
            j, kap = jmax, kappa[jmax]
            beta = (kap - k) / (k * (kap - 1.0))
        else:
            j, kap = jmin, kappa[jmin]
            bmin = -u[j] / (1.0 - u[j])
            beta = (kap - k) / (k * (kap - 1.0)) if kap > 1.0 else bmin
            beta = max(beta, bmin)
        c = 1.0 - beta
        mp = minv @ pts[j]
        w = pts @ mp
        gamma = beta / (c * (c + beta * kap))
        u *= c
        u[j] = max(u[j] + beta, 0.0)
        kappa = kappa / c - gamma * w * w
        minv = minv / c - gamma * np.outer(mp, mp)
        if (it + 1) % 500 == 0:
            minv, kappa = refresh()
    minv, kappa = refresh()
    L = minv / k
    sign, logdet = np.linalg.slogdet(L)
    assert sign > 0
    return logdet, L, u, k * np.log(kappa.max() / k)


def simplex_lsq_oracle(F, a):
    """argmin ||F w - a||^2 over the simplex by support enumeration."""
    k = F.shape[1]
    best_obj = np.inf
    best_w = None
    for r in range(1, k + 1):
        for support in itertools.combinations(range(k), r):
            S = list(support)
            FS = F[:, S]
            G = FS.T @ FS
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = G
            kkt[:r, r] = 1.0
            kkt[r, :r] = 1.0
            rhs = np.concatenate([FS.T @ a, [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            w_s = sol[:r]
            if w_s.min() < -1e-12:
                continue
            w = np.zeros(k)
            w[S] = np.clip(w_s, 0.0, None)
            w /= w.sum()
            obj = float(np.sum((F @ w - a) ** 2))
            if obj < best_obj:
                best_obj = obj
                best_w = w
    return best_w, best_obj


def sort_simplex_projection(V):
    """Projection of every row of V onto {w >= 0, sum w = 1} by sorting:
    theta = (sum of the rho largest - 1) / rho for the largest rho whose
    rho-th entry stays above it."""
    V = np.asarray(V, dtype=np.float64)
    n, k = V.shape
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    j = np.arange(1, k + 1)
    cond = U * j > css
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def project_rows_to_simplex(V):
    """Euclidean projection of every row of V onto {w >= 0, sum w = 1}.

    Michelot's threshold iteration (Condat, Math. Program. 2016), at most k
    passes, on the entries less their row maximum, clamped at -1 where none
    can be in the support, so no finite scale or tie leaves the simplex.
    """
    V = np.asarray(V, dtype=np.float64)
    k = V.shape[1]
    with np.errstate(over="ignore"):  # a span past the float range gives -inf, clamped too
        D = np.maximum(V - V.max(axis=1, keepdims=True), -1.0)
    theta = np.maximum(-1.0, (D.sum(axis=1, keepdims=True) - 1.0) / k)
    mask, size = np.ones(D.shape, dtype=bool), k
    while True:
        mask &= D > theta
        size, last = mask.sum(axis=1, keepdims=True, dtype=np.min_scalar_type(k)), size
        theta = (np.einsum("ij,ij->i", D, mask)[:, None] - 1.0) / size
        if (size == last).all():
            D -= theta
            return np.maximum(D, 0.0, out=D)


def projector_approx(Y, A):
    """B = Y (Y^T Y)^{-1} Y^T A via the normal equations."""
    G = Y.T @ Y
    return Y @ np.linalg.solve(G, Y.T @ A)


def splitmix64_reference(seed, n):
    """Pure-Python splitmix64 (sequential form) for cross-checking."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out
