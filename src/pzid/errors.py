"""Exception types shared across the toolkit."""


class PzidError(Exception):
    """Base class for toolkit errors."""


class NumericError(PzidError):
    """A numerical procedure failed (singular system, defective eigenproblem, ...)."""


class UsageError(PzidError):
    """Inputs violate a documented precondition."""


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
