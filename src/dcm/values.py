"""The base of the engine's immutable value types, and the one place that decides what a caller's value may be.

Every value type in the package, the scenario types included, is a
``collections.namedtuple`` subclass with ``Value`` first among its bases and
``__slots__ = ()``; a type with checks makes them in ``__new__`` and builds
its instance with ``tuple.__new__``.  Creating such a class generates one
small function, where a frozen dataclass generates several, and building an
instance sets no attribute, so both cost a fraction of a frozen dataclass's.

Each scalar a caller gives is read here: by ``require_number``, ``require_integer``, ``require_date``,
``require_text`` or ``iso_date`` (a date or its YYYY-MM-DD text).  Every refusal that echoes a caller's
value shows it by ``shown``.
"""

from __future__ import annotations

from datetime import date
from math import isfinite

from .errors import DomainError

# the ints float() can hold: from this magnitude on, an int rounds to 2**1024, past the largest float
_FLOAT_INT_BOUND = 2**1024 - 2**970
_fromisoformat = date.fromisoformat


def shown(value) -> str:
    """``value`` as a refusal shows it: its repr, but an int beyond float range (whose repr fails past 4,300
    digits) by its sign and size, and a value whose repr raises ValueError (a list of such ints) by its type."""
    if isinstance(value, int) and not -_FLOAT_INT_BOUND < value < _FLOAT_INT_BOUND:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a value of type {type(value).__name__}"


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
            if isfinite(number := float(value)):
                return number
        except OverflowError:  # an int beyond float range
            pass
    else:
        raise DomainError(f"{name} must be a number, got {shown(value)}")
    raise DomainError(f"{name} must be finite, got {shown(value)}")


def require_integer(name: str, value) -> int:
    """``value`` as a plain int; DomainError naming ``name`` unless it is an int that ``float()`` can hold.

    A bool, a float (even a whole one), text and None are not integers; an int beyond float range is not finite.
    """
    if value.__class__ is not int:
        if value.__class__ is bool or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer, got {shown(value)}")
        value = int(value)  # an int subclass
    if -_FLOAT_INT_BOUND < value < _FLOAT_INT_BOUND:
        return value
    raise DomainError(f"{name} must be finite, got {shown(value)}")


def require_date(name: str, value) -> date:
    """``value``, which must be exactly a date: a datetime, whose isoformat is not a date's, is not one."""
    if value.__class__ is date:
        return value
    raise DomainError(f"{name} must be a date, got {shown(value)}")


def require_text(name: str, value, *, non_empty: bool = False) -> str:
    """``value``, which must be a str, and not empty where ``non_empty``; DomainError naming ``name`` otherwise."""
    if isinstance(value, str) and (value or not non_empty):
        return value
    raise DomainError(f"{name} must be a {'non-empty ' if non_empty else ''}string, got {shown(value)}")


def iso_date(value) -> date:
    """``value`` if it is exactly a date, else the date its text writes in ``date.isoformat()``'s form, YYYY-MM-DD.

    Other text, such as the "20200101" and "2020-W01-3" that Python 3.11+ also reads, is a ValueError with 3.10's
    message, and a value that is neither text nor a date a TypeError."""
    if value.__class__ is date:
        return value
    day = _fromisoformat(value)
    if day.isoformat() != value:
        raise ValueError(f"Invalid isoformat string: {value!r}")
    return day


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
