import pytest

from gridcode.errors import BudgetExceededError, check_budget


def test_a_count_of_10_to_100_is_printed_and_one_more_is_named():
    with pytest.raises(BudgetExceededError) as caught:
        check_budget([10**100], 5, "needs {count} steps")
    assert str(caught.value) == f"needs {10**100} steps (budget 5)"
    assert caught.value.required == 10**100 and caught.value.budget == 5
    with pytest.raises(BudgetExceededError) as caught:
        check_budget([10**100 + 1], 5, "needs {count} steps", name="N")
    assert str(caught.value) == "needs N steps (budget 5)"
    assert caught.value.required is None and caught.value.budget == 5


def test_a_count_equal_to_the_budget_passes():
    check_budget([1, 5, 7], 7, "needs {count} steps")
    check_budget([], 0, "needs {count} steps")
    with pytest.raises(BudgetExceededError) as caught:
        check_budget([1, 5, 8], 7, "needs {count} steps")
    assert caught.value.required == 8


def test_totals_are_not_read_past_the_first_above_the_budget_and_10_to_100():
    def totals():
        yield 10
        yield 10**100  # past the budget, not past 10^100: read on
        yield 10**100 + 1
        raise AssertionError("read past the first total above both")

    with pytest.raises(BudgetExceededError, match=r"^needs more than 10\^100 steps "
                                                  r"\(budget 3\)$"):
        check_budget(totals(), 3, "needs {count} steps")

    # a budget past 10^100 is read up to: the first total above both names the count
    def large():
        yield 10**101
        yield 10**102
        raise AssertionError("read past the first total above both")

    with pytest.raises(BudgetExceededError) as caught:
        check_budget(large(), 10**101 + 1, "needs {count} steps")
    assert caught.value.required is None and caught.value.budget == 10**101 + 1
