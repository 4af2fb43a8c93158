"""Exception types shared across the package.

Each class marks a distinct failure mode so callers (the CLI in
particular) can map errors to exit codes without string matching.
"""

__all__ = [
    "EmptySampleError",
    "DegenerateTailError",
    "ModelViolationError",
    "NumericError",
]


class EmptySampleError(ValueError):
    """Raised when truncation rejects every generated pair."""


class DegenerateTailError(ValueError):
    """Raised when a sample is too small or too flat to estimate a tail."""


class ModelViolationError(ValueError):
    """Raised when estimates contradict the model assumptions.

    The main case: the truncation tail looks heavier than the target
    tail (gamma2 <= gamma1), which leaves the limiting variance
    undefined.
    """


class NumericError(RuntimeError):
    """Raised when a numeric routine cannot return a finite answer."""
