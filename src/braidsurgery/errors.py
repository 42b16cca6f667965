"""The library's errors, each with the exit code the CLI gives it.

Every error derives from :class:`BraidsurgeryError` and keeps its builtin
base, ``ValueError`` or ``RuntimeError``.  Its class attribute ``code`` is
the CLI's exit code: 2 for a parse or usage error, 3 for a hypothesis
violation and 4 for a numeric precondition or a budget.  An error raised
at a cap also carries ``budget``, the name of the constant or parameter
that sets the cap, ``cap``, its value, and ``needed``, the size checked
against it (a lower bound where that size is not counted to its end).
"""

import sys

# The caps of cfrac, limits, a parsed rational's digits and the word length
# raise errors that exit 2, the other budgets 4.  Whether a cap on the size
# of the input is a usage error or a budget is left open; a change to any
# code here is a change to the CLI's contract.
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_NUMERIC = 4


class BraidsurgeryError(Exception):
    """Base of the library's errors; ``code`` is the CLI's exit code, 2
    unless the class sets its own."""

    code = EXIT_PARSE
    budget = cap = needed = None

    def __init__(self, *args, budget=None, cap=None, needed=None):
        super().__init__(*args)
        if budget is not None:
            self.budget, self.cap, self.needed = budget, cap, needed


class UsageError(BraidsurgeryError, ValueError):
    """The argv does not fit the command-line grammar."""


class BraidError(BraidsurgeryError, ValueError):
    """Malformed braid text or out-of-range braid data."""


class CFracError(BraidsurgeryError, ValueError):
    """Value outside the domain of negative continued fractions."""


class LimitsError(BraidsurgeryError, ValueError):
    """Invalid stream/tuple data for the block model."""


class LegendrianError(BraidsurgeryError, ValueError):
    """Unrealizable stabilization target or invalid Legendrian data."""


class SurgeryError(BraidsurgeryError, ValueError):
    """Ill-formed diagram or inapplicable Kirby move."""


class HypothesisError(BraidsurgeryError, ValueError):
    """The braid fails a checkable hypothesis required by an operation."""

    code = EXIT_HYPOTHESIS


class SingularityError(SurgeryError):
    """A computation required an invertible linking matrix."""

    code = EXIT_NUMERIC


class ReductionBudgetExceeded(BraidsurgeryError, RuntimeError):
    """Handle reduction hit its step or work cap before reaching a reduced word."""

    code = EXIT_NUMERIC


class ComponentBudgetExceeded(BraidsurgeryError, RuntimeError):
    """An expansion would build more than ``MAX_COMPONENTS`` components."""

    code = EXIT_NUMERIC


class MenuBudgetExceeded(BraidsurgeryError, RuntimeError):
    """The unknot menus of an enumeration would hold too many unknots."""

    code = EXIT_NUMERIC


class TupleBudgetExceeded(BraidsurgeryError, RuntimeError):
    """An all-tuples sweep would visit more tuples than its budget."""

    code = EXIT_NUMERIC


class DigitLimitExceeded(BraidsurgeryError, RuntimeError):
    """An output integer has more digits than Python converts to text.

    Its cap is ``sys.get_int_max_str_digits()`` when raised, and ``needed``
    is one digit more: the integer's own length is not counted."""

    code = EXIT_NUMERIC

    def __init__(self, *args):
        limit = sys.get_int_max_str_digits()
        super().__init__(
            *args, budget="int_max_str_digits", cap=limit, needed=limit + 1
        )

    def __str__(self):
        return f"an output integer is over Python's {self.cap}-digit limit"
