"""Shared exception types."""


class FieldError(ValueError):
    """Bad field construction or cross-field arithmetic."""


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ScanBudgetExceeded(RuntimeError):
    """An exhaustive scan would exceed its element-count budget."""


class ExtensionCapExceeded(RuntimeError):
    """A search exhausted the allowed field-extension degrees."""


class MonadError(ValueError):
    """A monad failed validation or degree bookkeeping."""


class IntegrityError(RuntimeError):
    """An internal cross-check failed; indicates a bug or bad input."""
