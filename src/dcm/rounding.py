"""Half-even rounding of binary floats for display and settlement dockets.

Quantities are computed in double precision throughout the engine and only
quantized where a number is printed or settled.  Quantization goes through the
shortest round-tripping decimal form of the float, then rounds half-even.

The quantum of each ``places`` from 0 to 28 is built once, at import; every
other ``places`` is checked by ``require_integer`` and its quantum built per
call, so ``places`` is refused as before: ``True``, ``2.0``, ``'2'`` and ``[2]``
are no integer, and a negative one is below 0.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation, getcontext

from .errors import DomainError
from .values import Value, require_integer


# 10**-places for each places a value below 1 can be rounded to in the default context's 28 digits
_QUANTA = {places: Decimal(1).scaleb(-places) for places in range(29)}


def quantize(value: float, places: int) -> Decimal:
    """Round ``value`` half-even to ``places`` decimal digits."""
    # looked up for an exact int alone: True and 2.0 hash as 1 and 2, and [2] does not hash
    quantum = _QUANTA.get(places) if places.__class__ is int else None
    if quantum is None:
        if require_integer("places", places) < 0:
            raise DomainError("places must be >= 0")
        quantum = Decimal(1).scaleb(-places)
    try:
        return Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_EVEN)
    except InvalidOperation:  # the result needs more digits than the decimal context holds
        raise DomainError(f"cannot round {value!r} to {places} places in {getcontext().prec} digits") from None


def quantize_to_float(value: float, places: int) -> float:
    return float(quantize(value, places))


def fmt(value: float, places: int) -> str:
    """Fixed-point string with exactly ``places`` decimals (half-even)."""
    return str(quantize(value, places))


class RoundingProfile(Value, namedtuple("RoundingProfile", "weight_places money_places")):
    """Display precision for reports.

    ``weight_places`` doubles as the settlement-docket precision: cash legs
    settle on weights quantized to this many decimals.
    """

    __slots__ = ()

    def __new__(cls, weight_places: int = 4, money_places: int = 4):
        weight_places = require_integer("weight_places", weight_places)
        money_places = require_integer("money_places", money_places)
        if weight_places < 0 or money_places < 0:
            raise DomainError("rounding places must be >= 0")
        return tuple.__new__(cls, (weight_places, money_places))

    def weight(self, value: float) -> str:
        return fmt(value, self.weight_places)

    def money(self, value: float) -> str:
        return fmt(value, self.money_places)
