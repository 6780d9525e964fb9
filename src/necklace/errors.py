"""Shared exception and warning types, and the checks of counted, real and
typed inputs."""
import math
import numbers


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class UnsupportedError(ValueError):
    """Requested a variant/order combination that is deliberately not provided."""


class NotFoundError(RuntimeError):
    """A bracketing or search operation found nothing."""


class AccuracyError(RuntimeError):
    """A quadrature or refinement failed to meet its tolerance.

    The best available estimate is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class RegimeWarning(UserWarning):
    """An asymptotic formula was evaluated outside its intended regime."""


class NearPoleWarning(UserWarning):
    """Evaluation close to an analytically cancelling pole pair."""


_PARITY = {None: "an integer", 0: "an even integer", 1: "an odd integer"}


def counted(name: str, value, lo: int, hi: int, parity=None, owner=None) -> int:
    """``value``, a Python or NumPy integer from lo to hi, of ``parity`` 0 or 1
    if given, as an int, which replaces a NumPy integer in the field ``name`` of
    the frozen dataclass ``owner``; a bool, a float or anything else is a DomainError."""
    if type(value) is int and lo <= value <= hi and (parity is None or value % 2 == parity):
        return value
    if type(value) is not int and isinstance(value, numbers.Integral) \
            and not isinstance(value, bool):
        value = counted(name, int(value), lo, hi, parity)
        if owner is not None:
            object.__setattr__(owner, name, value)
        return value
    rule = (f"at most {hi}" if type(value) is int and value > hi
            else f"{_PARITY[parity]} >= {lo}")
    raise DomainError(f"{name} must be {rule}, got {value}")


def real(name: str, value, positive: bool = False, owner=None) -> float:
    """``value``, a real number but a bool whose float is finite (and > 0 if
    ``positive``), as a float, which replaces another type in the field
    ``name`` of the frozen dataclass ``owner``; else a DomainError."""
    x = value
    if type(x) is not float:
        try:
            x = (float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool)
                 else math.nan)
        except OverflowError:
            x = math.inf
        if owner is not None:
            object.__setattr__(owner, name, x)
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        rule = "a finite real number > 0" if positive else "a finite real number"
        raise DomainError(f"{name} must be {rule}, got {value}")
    return x


def typed(name: str, value, kind: type):
    """``value``, the parameter ``name``, if it is a ``kind``; else a DomainError."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value
