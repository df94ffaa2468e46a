"""Shared exception types and the one work limit of the exact searches."""

# Most units of work one request may spend in the count engine
# (transitions) or the census walk (visited row sequences).  On Python
# 3.11.7 (2 vCPUs) counts refused at the limit take 1.1-3.4 s and
# censuses 0.3-0.9 s.
WORK_LIMIT = 200_000


class ParseError(ValueError):
    """Input permpat refuses: malformed text, or an argument outside the
    domain of the operation it is passed to."""


class BudgetExceeded(RuntimeError):
    """An exact search was refused because it would exceed its size guard
    or its work limit."""
