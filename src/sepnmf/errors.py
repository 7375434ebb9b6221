"""Typed error hierarchy for the toolkit.

Every failure mode that callers are expected to branch on has its own
exception class; all derive from SepnmfError so CLI code can map them to
a single exit code.
"""


class SepnmfError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteError(SepnmfError):
    """Input matrix contains NaN or Inf entries."""


class BadRankError(SepnmfError):
    """Requested rank k is out of range for the input."""


class BadShapeError(SepnmfError):
    """Input dimensions are invalid or inconsistent."""


class InputFileError(SepnmfError):
    """An input file is missing or cannot be opened."""


class DimensionMismatchError(SepnmfError):
    """Operand dimensions do not agree."""


class NotSymmetricError(SepnmfError):
    """Matrix expected to be symmetric is not, beyond tolerance."""


class NotPsdError(SepnmfError):
    """Matrix expected positive semidefinite has a significantly negative eigenvalue."""


class RankDeficientError(SepnmfError):
    """Point set (or matrix) spans fewer directions than the requested rank or picks."""


class NoConvergenceError(SepnmfError):
    """Iterative solver hit its iteration cap.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, message, ellipsoid=None):
        super().__init__(message)
        self.ellipsoid = ellipsoid


class SizeMismatchError(SepnmfError):
    """Index sets being compared have different sizes."""


class ZeroVectorError(SepnmfError):
    """A vector that must be nonzero has zero norm."""


class RankDeficientBasisError(SepnmfError):
    """Basis matrix for abundance estimation is numerically rank deficient."""


class DegenerateBasisError(SepnmfError):
    """Could not draw a full-rank basis within the retry budget."""

