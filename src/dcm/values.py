"""The base of the engine's immutable value types, and the checks of their scalar inputs.

Every value type in the package, the scenario types included, is a
``collections.namedtuple`` subclass with ``Value`` first among its bases and
``__slots__ = ()``; a type with checks makes them in ``__new__`` and builds
its instance with ``tuple.__new__``.  Creating such a class generates one
small function, where a frozen dataclass generates several, and building an
instance sets no attribute, so both cost a fraction of a frozen dataclass's.
"""

from __future__ import annotations

from datetime import date
from math import isfinite

from .errors import DomainError

# the ints float() can hold: from this magnitude on, an int rounds to 2**1024, past the largest float
_FLOAT_INT_BOUND = 2**1024 - 2**970


def require_number(name: str, value) -> float:
    """``value`` as a float; DomainError naming ``name`` unless it is a finite int or float.

    A bool and text are not numbers; NaN, infinity and an int beyond float range are not finite.
    """
    cls = value.__class__
    if cls is float:
        if isfinite(value):
            return value
    elif cls is int or (cls is not bool and isinstance(value, (int, float))):  # a JSON number, not true or "5"
        try:
            number = float(value)
        except OverflowError:
            raise _past_float_range(name, value) from None
        if isfinite(number):
            return number
    else:
        raise DomainError(f"{name} must be a number, got {value!r}")
    raise DomainError(f"{name} must be finite, got {value!r}")


def require_integer(name: str, value) -> int:
    """``value`` as a plain int; DomainError naming ``name`` unless it is an int that ``float()`` can hold.

    A bool, a float (even a whole one), text and None are not integers; an int beyond float range is not finite.
    """
    if value.__class__ is not int:
        if value.__class__ is bool or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        value = int(value)  # an int subclass
    if -_FLOAT_INT_BOUND < value < _FLOAT_INT_BOUND:
        return value
    raise _past_float_range(name, value)


def _past_float_range(name: str, value: int) -> DomainError:
    """The refusal of an int beyond float range, which names its size: past 4,300 digits, ``repr`` refuses it."""
    sign = "a negative" if value < 0 else "an"
    return DomainError(f"{name} must be finite, got {sign} int of {value.bit_length()} bits")


def require_date(name: str, value) -> date:
    """``value``, which must be exactly a date: a datetime, whose isoformat is not a date's, is not one."""
    if value.__class__ is date:
        return value
    raise DomainError(f"{name} must be a date, got {value!r}")


class Value:
    """Equality by type and fields, and copies that go through the type's own checks.

    A bare namedtuple equals any tuple with the same items, and its ``_make``
    and ``_replace`` build instances without calling ``__new__``.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        value = type(self)(*map(changes.pop, self._fields, self))  # the fields are the constructor's arguments
        if changes:
            raise ValueError(f"got unexpected field names: {list(changes)!r}")
        return value
