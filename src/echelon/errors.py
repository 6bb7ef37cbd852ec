"""Exception types shared across the toolkit.

Out-of-range indices and division by zero use the Python builtins
(IndexError, ZeroDivisionError); everything else gets a named type here.
"""

__all__ = [
    "EchelonError", "FieldMismatchError", "InconsistentSystemError", "InvalidOperationError",
    "ParseError", "ShapeError"
]


class EchelonError(Exception):
    """Base class for toolkit-specific errors."""


class FieldMismatchError(EchelonError):
    """Operands belong to different fields."""


class ShapeError(EchelonError):
    """Dimensions do not line up."""


class ParseError(EchelonError):
    """Malformed scalar, matrix, system, or row-operation text."""


class InvalidOperationError(EchelonError):
    """A row operation that is never legal: zero scale, or a self swap."""


class InconsistentSystemError(EchelonError):
    """An inconsistent system was given where a consistent one is required."""
