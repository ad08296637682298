"""Exception types shared across the package."""

from __future__ import annotations


class BellSeriesError(Exception):
    """Base class for all domain errors raised by this package."""


class PreconditionError(BellSeriesError):
    """An operation was called on data that does not meet its preconditions."""


class ParseError(BellSeriesError):
    """A file or stream could not be decoded.

    Carries the 1-based line number when the problem is local to a line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class StructuralError(BellSeriesError):
    """Decoded data is syntactically fine but structurally inconsistent."""


class BudgetExceeded(BellSeriesError):
    """An exhaustive sweep would visit more cases than the configured budget.

    ``required`` is the number of tables the refused sweep would have to
    enumerate, or None when that number is too large to be worth building.
    """

    def __init__(self, message: str, required: int | None):
        super().__init__(message)
        self.required = required
