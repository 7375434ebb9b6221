"""Separable NMF toolkit.

Greedy column selection by successive projection, ellipsoid-based
preconditioning, subspace-iteration rank-k approximation, and a seeded
synthetic benchmark harness with error-bound diagnostics.
"""

__version__ = "0.1.0"

from .errors import SepnmfError


def active_backend() -> str:
    """Name of the backend the kernels run on: always plain numpy."""
    return "numpy"


__all__ = ["__version__", "active_backend", "SepnmfError"]
