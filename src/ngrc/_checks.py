"""The value rules of the library's parameters, each spelled once.

A checker returns None when its value holds, else a message naming the field.
``reject`` raises all the messages of one object together, so a caller with
two bad fields hears of both.
"""

from math import inf

import numpy as np


class ConfigError(ValueError):
    """Invalid parameters; carries one message per offending field."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def reject(*problems) -> None:
    """Raise a ConfigError with every problem that is not None or False."""
    if any(problems):
        raise ConfigError([problem for problem in problems if problem])


def _whole(value) -> bool:
    # NaN and the infinities are not whole, and int() of them would raise
    return -inf < value < inf and int(value) == value


def integer(name: str, value, least: int):
    """A whole number of any numeric type, at least ``least``."""
    if not _whole(value):
        return f"{name} must be an integer, got {value}"
    return f"{name} must be >= {least}, got {value}" if value < least else None


def integers(name: str, values, least: int):
    """A sequence of whole numbers, each at least ``least``."""
    if not all(map(_whole, values)):
        return f"{name} must be integers, got {values}"
    if min(values, default=least) < least:
        return f"{name} must all be >= {least}, got {values}"
    return None


def number(name: str, value, low=-inf, high=inf, open_low=False, rule=None):
    """A finite number in [low, high], or in (low, high] if ``open_low``.

    An interval with no upper end starts at 0 or -inf. ``rule`` replaces the
    interval's description in the message.
    """
    if -inf < value < inf and (low < value if open_low else low <= value) and value <= high:
        return None
    if rule is None:
        rule = (f"in {'(' if open_low else '['}{low:g}, {high:g}]" if high < inf
                else "finite" if low == -inf
                else ("positive" if open_low else "nonnegative") + " and finite")
    return f"{name} must be {rule}, got {value}"


def entries(name: str, values: np.ndarray, positive=False):
    """A non-empty array of finite entries, all positive if ``positive``."""
    if values.size and np.isfinite(values).all() and (not positive or (values > 0).all()):
        return None
    return f"{name} must be {'positive and ' * positive}finite, got {values}"


def one_of(name: str, value, options: tuple):
    return None if value in options else f"{name} must be one of {options}, got {value!r}"
