"""Exception hierarchy shared by all cyclokit modules, the one form of a
guardrail refusal, and the checked text forms of the integers and exact
rationals that certificates and the CLI print.

The CLI maps these onto exit codes: input/domain problems exit 2,
internal invariant violations exit 3.
"""

import sys
from fractions import Fraction


def check_guardrail(what: str, value: int, name: str, limit: int) -> None:
    """Raise ResourceError("<what> <value> exceeds the guardrail <name> = <limit>")
    when value > limit; the caller reads limit from its module at call time."""
    if value > limit:
        raise ResourceError(f"{what} {int_str(value)} exceeds the guardrail {name} = {limit}")


def check_printable(what: str, digits: int) -> None:
    """check_guardrail for a decimal digit count against the interpreter's
    int-to-str limit, when it has one."""
    limit = sys.get_int_max_str_digits()
    if limit:
        check_guardrail(what, digits, "sys.get_int_max_str_digits()", limit)


def int_str(n: int) -> str:
    """str(n), refused with ResourceError past the interpreter's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        # the digit count is d or d + 1, from log10(2) rounded down
        a = abs(n)
        d = (a.bit_length() - 1) * 3010299956 // 10 ** 10 + 1
        check_printable("a printed value's digit count", d + (a >= 10 ** d))
        raise


def rat_str(x) -> str:
    """x as "num/den" in lowest terms, also for an integer x; checked as int_str."""
    f = Fraction(x)
    return f"{int_str(f.numerator)}/{int_str(f.denominator)}"


class CyclokitError(Exception):
    """Base class for all cyclokit errors."""


class InputError(CyclokitError):
    """Malformed or out-of-contract input (bad parse, failed precondition)."""


class DomainError(CyclokitError):
    """The requested value is undefined on this input (domain restriction)."""


class PoleError(DomainError):
    """Evaluation at a zero of the denominator of a logarithmic derivative."""


class ResourceError(CyclokitError):
    """Input exceeds a configured size guardrail."""


class ConstructionError(CyclokitError):
    """A semigroup construction precondition failed; names the condition."""

    def __init__(self, condition: str, message: str = ""):
        self.condition = condition
        super().__init__(message or f"construction precondition failed: {condition}")


class InvariantError(CyclokitError):
    """An internal consistency check that must never fire did fire."""
