"""Exception hierarchy shared by every lihex module, and the rule that
requests apply to their integer fields."""

__all__ = [
    "LihexError",
    "DivergenceError",
    "DomainError",
    "PrecisionError",
    "PoleError",
    "GuardExhausted",
    "UnsupportedArgument",
    "UnknownName",
    "UndefinedOrder",
    "RankDeficient",
    "IllConditionedError",
]


class LihexError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LihexError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(LihexError, ValueError):
    """A precision request is out of range, or a result could not be
    resolved to the required accuracy."""


class PoleError(LihexError, ArithmeticError):
    """Evaluation was requested at (or unusably close to) a pole."""


class DivergenceError(LihexError, ArithmeticError):
    """The defining series does not converge for these parameters."""


class GuardExhausted(LihexError, ArithmeticError):
    """Digit extraction stayed ambiguous after the maximum number of
    guard-bit retries."""


class UnsupportedArgument(LihexError, ValueError):
    """The argument is not in the closed set an operation supports."""


class UnknownName(LihexError, KeyError):
    """A catalog lookup used a name that does not exist."""


class UndefinedOrder(LihexError, ValueError):
    """A ladder was requested at an order where it is not defined."""


class RankDeficient(LihexError, ArithmeticError):
    """A linear system did not determine the requested quantities."""


class IllConditionedError(LihexError, ArithmeticError):
    """A numerical solve lost too many bits to certify its output."""


def _require_int(name: str, x) -> None:
    """DomainError unless x is an int; a bool is not one."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{name} must be an int, not {x!r}")
