"""Shared exception types."""


class ParseError(ValueError):
    """Input permpat refuses: malformed text, or an argument outside the
    domain of the operation it is passed to."""


class BudgetExceeded(RuntimeError):
    """An exact search was refused because it would exceed its size guard."""
