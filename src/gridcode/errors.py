"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured work budget.

    Raised instead of silently switching to an approximation: callers that
    hit this must either shrink the instance or raise the budget explicitly.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class CapacityError(RuntimeError):
    """A greedy point-packing ran out of candidates before reaching its target."""
