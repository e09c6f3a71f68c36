"""Exception hierarchy shared by all cyclokit modules, and the "num/den" text
form of an exact rational that certificates and the CLI print.

The CLI maps these onto exit codes: input/domain problems exit 2,
internal invariant violations exit 3.
"""

from fractions import Fraction


def rat_str(x) -> str:
    """x as "num/den" in lowest terms, also for an integer x."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


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
