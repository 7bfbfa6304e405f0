"""Exception types shared across the package."""

from __future__ import annotations


class CauchyLUError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CauchyLUError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


def require_at_least(minimum: int | None, **named: int) -> None:
    """Raise DomainError naming the first argument that is not an int >= ``minimum``.

    ``minimum=None`` admits every int.
    """
    for name, value in named.items():
        if not isinstance(value, int):
            raise DomainError(f"{name} must be an int, got {value!r}")
        if minimum is not None and value < minimum:
            raise DomainError(f"{name} must be >= {minimum}, got {value}")


class DivisionByZero(CauchyLUError, ZeroDivisionError):
    """Division by an exact zero (rational, polynomial, or rational function)."""


class PoleAtPoint(DivisionByZero):
    """A rational function was evaluated where its denominator vanishes."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"denominator vanishes at t = {point}")


class DimensionMismatch(CauchyLUError, ValueError):
    """Matrix operands have incompatible shapes."""

    def __init__(self, shape_a: tuple[int, int], shape_b: tuple[int, int]):
        self.shape_a = shape_a
        self.shape_b = shape_b
        super().__init__(f"incompatible shapes {shape_a} and {shape_b}")


class SingularEntry(CauchyLUError):
    """A matrix entry or closed-form factor has a vanishing denominator.

    ``positions`` holds the offending 1-based index pairs; ``t`` is the scalar
    that triggered the collision, when there is one.
    """

    def __init__(self, positions, t=None, note: str | None = None):
        self.positions = list(positions)
        self.t = t
        self.note = note
        where = ", ".join(f"({i}, {l})" for i, l in self.positions)
        msg = f"vanishing denominator at {where}"
        if t is not None:
            msg += f" for t = {t}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)


class ZeroPivot(CauchyLUError):
    """Elimination hit a zero pivot: a leading principal minor vanishes."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"zero pivot at elimination step {step}")


class SizeCapExceeded(CauchyLUError):
    """A deliberately capped operation was asked for more than its cap."""

    def __init__(self, size: int, cap: int, what: str = "size"):
        self.size = size
        self.cap = cap
        super().__init__(f"{what} {size} exceeds cap {cap}")


class RetriesExhausted(CauchyLUError):
    """Rejection sampling failed to find an acceptable value."""

    def __init__(self, attempts: int):
        self.attempts = attempts
        super().__init__(f"no acceptable sample found in {attempts} attempts")
