"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input: a family spec, element, design file or out-of-range argument."""


class FamilyMismatchError(ValueError):
    """Two elements from different family specs were combined."""


class NonIntegralError(ArithmeticError):
    """An exact-division identity failed; signals inconsistent inputs."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search exceeded its case budget."""

    def __init__(self, message: str, *, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


class VerificationError(Exception):
    """A declared design property failed re-verification.

    Carries a concrete witness: two rank-t elements covered by unequal
    numbers of design members.
    """

    def __init__(self, message: str, *, witness=None):
        super().__init__(message)
        self.witness = witness
