"""Exception types shared across the package."""

from __future__ import annotations


class BayesRelocError(Exception):
    """Base class for all library-specific failures."""


class DegenerateQuaternion(BayesRelocError):
    """Quaternion norm too small to define an orientation."""


class DegenerateMean(BayesRelocError):
    """Hemisphere-aligned quaternion samples average out to (nearly) zero."""


class InvalidArchitecture(BayesRelocError):
    """Layer widths do not chain, or the output head is malformed."""


class ShapeMismatch(BayesRelocError):
    """An input vector or dropout mask does not match the network layout,
    or a sample set's position and quaternion rows do not match."""


class NonFiniteLoss(BayesRelocError):
    """Training loss became NaN or infinite."""


class NonPositiveValue(BayesRelocError):
    """A value that must be strictly positive was zero or negative."""


class InsufficientPopulation(BayesRelocError):
    """Too few values to fit a distribution reliably."""


class InsufficientVariance(BayesRelocError):
    """Values are (nearly) identical; there is no spread to fit."""


class NoConvergence(BayesRelocError):
    """An iterative solver exhausted its iteration budget."""


class InvalidSpec(BayesRelocError):
    """A scene specification or generation request is malformed."""


class ParseError(BayesRelocError):
    """A data file could not be parsed.

    ``line`` carries the 1-based offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
