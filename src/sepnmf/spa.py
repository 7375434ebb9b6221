"""Successive projection: greedy max-norm column selection.

Each round picks the column whose residual (after projecting out all
previous picks) has the largest squared norm, then downdates every
squared norm by the identity ||(I - uu^T) s||^2 = ||s||^2 - (u^T s)^2,
giving an O(dmk) loop overall. Ties break to the smallest column index.
A round whose downdated norms all fall at or below the degeneracy floor
recomputes them exactly before it declares the input degenerate.
"""

import numpy as np

from . import kernels
from .errors import BadRankError
from .linalg import as_matrix, pow2_scaled

REL_DEGENERATE_TOL = 1e-12


def spa_select(A, k):
    """Indices of k successively projected max-norm columns, in pick order.

    Raises DegenerateInput when some round finds all residual norms at or
    below 1e-12 times the Frobenius norm of A (fewer than k independent
    directions). A runs as pow2_scaled(A), so 2**j * A gives the same picks.
    """
    A = pow2_scaled(as_matrix(A))[0]
    d, m = A.shape
    if not (1 <= k <= min(d, m)):
        raise BadRankError(f"k must satisfy 1 <= k <= {min(d, m)}, got {k}")
    floor = REL_DEGENERATE_TOL * float(np.linalg.norm(A))
    return kernels.spa_core(A, k, floor)

