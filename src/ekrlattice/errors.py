"""Exception types shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input: a family spec, element, design file or out-of-range argument."""


class FamilyMismatchError(ValueError):
    """Two elements from different family specs were combined."""


class NonIntegralError(ArithmeticError):
    """An exact-division identity failed; signals inconsistent inputs."""


class BudgetExceededError(RuntimeError):
    """Work refused before it is done, because it needs more than a budget or cap allows.

    The one refusal rule: the message reads "<what> needs <need> <unit>, above
    the cap of <cap>", and `context` holds the sizes `need` is computed from,
    then `need` and `cap`.
    """

    def __init__(self, what: str, need: int, unit: str, cap: int, **sizes):
        super().__init__(f"{what} needs {_decimal(need)} {unit}, above the cap of {_decimal(cap)}")
        self.context = {**sizes, "need": need, "cap": cap}


def _decimal(n: int) -> str:
    """`str(n)`, also for an integer longer than the interpreter's int-to-str limit."""
    low = ""
    while True:
        try:
            return f"{n}{low}"
        except ValueError:  # sys.set_int_max_str_digits allows no limit below 640 digits
            n, chunk = divmod(n, 10**600)
            low = f"{chunk:0600d}{low}"


class VerificationError(Exception):
    """A declared design strength failed re-verification.

    `context["witness"]` holds two rank-t elements covered by unequal numbers
    of design members: `element_1`, `count_1`, `element_2`, `count_2`.
    """

    def __init__(self, t: int, witness):
        (z1, c1), (z2, c2) = witness
        super().__init__(f"not a {t}-design: {z1} is covered {c1} times but {z2} is covered {c2} times")
        self.context = {"witness": {"element_1": z1, "count_1": c1, "element_2": z2, "count_2": c2}}
