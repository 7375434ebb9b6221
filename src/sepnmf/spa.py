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
from .errors import BadRankError, DegenerateInputError
from .linalg import as_matrix

REL_DEGENERATE_TOL = 1e-12


def spa_select(A, k):
    """Indices of k successively projected max-norm columns, in pick order.

    Raises DegenerateInput when some round finds all residual norms at or
    below 1e-12 times the Frobenius norm of A (fewer than k independent
    directions).
    """
    A = as_matrix(A)
    d, m = A.shape
    if not (1 <= k <= min(d, m)):
        raise BadRankError(f"k must satisfy 1 <= k <= {min(d, m)}, got {k}")
    floor = REL_DEGENERATE_TOL * float(np.linalg.norm(A))
    idx = np.zeros(k, np.int64)
    rounds, status = kernels.spa_core(A, k, floor, idx)
    if status != 0:
        raise DegenerateInputError(
            f"residual norms exhausted after {rounds} of {k} rounds"
        )
    return idx

