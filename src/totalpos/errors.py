"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = ["ScanBudgetError", "EnumerationBudgetError", "SearchExhaustedError"]


class ScanBudgetError(RuntimeError):
    """A minor scan would exceed its configured size guard, or the largest
    subset count that sampled mode can draw from."""


class EnumerationBudgetError(RuntimeError):
    """A path-collection enumeration or search would exceed its budget."""


class SearchExhaustedError(RuntimeError):
    """Constant search ran out of candidates; carries the partial result."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
