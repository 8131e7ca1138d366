"""Shared exception types and the one budget check of every exhaustive step."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its configured work budget.

    Raised instead of silently switching to an approximation: callers that
    hit this must either shrink the instance or raise the budget explicitly.
    """

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def check_budget(totals, budget: int, what: str, name: str = "more than 10^100") -> None:
    """Raise BudgetExceededError if a count passes ``budget``.

    ``totals`` yields the count's running totals in increasing order and is
    read up to the first one past both ``budget`` and 10^100.  The message
    is ``what`` with ``{count}`` replaced by the count, or by ``name`` past
    10^100 (Python prints no int past 4,300 digits), then the budget.
    """
    total = 0
    for total in totals:
        if total > budget and total > 10**100:
            break
    if total > budget:
        required = total if total <= 10**100 else None
        count = name if required is None else required
        raise BudgetExceededError(f"{what.format(count=count)} (budget {budget})",
                                  required=required, budget=budget)


class CapacityError(RuntimeError):
    """A greedy point-packing ran out of candidates before reaching its target."""
