"""The base of the engine's immutable value types.

Every value type in the package, the scenario types included, is a
``collections.namedtuple`` subclass with ``Value`` first among its bases and
``__slots__ = ()``; a type with checks makes them in ``__new__`` and builds
its instance with ``tuple.__new__``.  Creating such a class generates one
small function, where a frozen dataclass generates several, and building an
instance sets no attribute, so both cost a fraction of a frozen dataclass's.
"""

from __future__ import annotations


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
        # __getnewargs__ holds the constructor's arguments, which are the leading fields
        value = type(self)(*map(changes.pop, self._fields, self.__getnewargs__()))
        if changes:
            raise ValueError(f"got unexpected field names: {list(changes)!r}")
        return value
