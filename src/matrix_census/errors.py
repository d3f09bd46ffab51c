"""Exception types shared across the package."""


class BudgetError(Exception):
    """An operation would exceed its configured enumeration or size budget."""


class TableCapError(BudgetError):
    """An extension field above the fixed log-table cap, which no budget
    argument raises."""


class ParseError(ValueError):
    """Malformed polynomial or matrix text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SingularMatrixError(ValueError):
    """A matrix that was required to be invertible is singular."""


def within_budget(base: int, exp: int, budget: int, message: str) -> int:
    """base**exp, or BudgetError when it exceeds budget.  message has two
    fields, the size as "base^exp" (with " = value" once computed) and the
    budget.  base**exp >= 2**(exp * (bits of base - 1)), so a size that
    bound puts past 2**64 * budget is refused without computing it: it can
    be too long to print or even to hold."""
    size = f"{base}^{exp}"
    if exp * (base.bit_length() - 1) >= budget.bit_length() + 64:
        raise BudgetError(message.format(size, budget))
    value = base ** exp
    if value > budget:
        raise BudgetError(message.format(f"{size} = {value}", budget))
    return value
