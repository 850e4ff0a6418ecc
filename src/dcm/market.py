"""Dated market quotations with carry-forward lookup."""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from collections import namedtuple
from datetime import date
from math import isfinite
from pathlib import Path

from .errors import ConfigError, DomainError, NoQuoteError, ParseError, ValidationError
from .ledger import iso_date
from .values import Value, require_number


def read_text(path: Path, what: str) -> str:
    """The UTF-8 text of a file; one that cannot be read, or holds a byte that is not UTF-8, is a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what} {path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


class PriceSeries(Value, namedtuple("PriceSeries", "material currency points dates")):
    """Ordered quotations for one material in one currency.

    ``dates`` is not an argument: it holds the points' dates, for lookup.
    """

    __slots__ = ()

    def __new__(cls, material: str, currency: str, points: tuple[tuple[date, float], ...]):
        dates = tuple(d for d, _ in points)
        _check_monotone_dates(dates)
        for d, price in points:  # each price is kept as given: an int stays an int
            if require_number("price", price) <= 0:
                raise ValidationError(f"price at {d.isoformat()} must be > 0")
        return tuple.__new__(cls, (material, currency, points, dates))

    def __getnewargs__(self):
        return self[:3]  # the constructor's arguments, for copies and _replace: dates is derived

    def __repr__(self):
        return f"PriceSeries(material={self.material!r}, currency={self.currency!r}, points={self.points!r})"


def _check_monotone_dates(dates: tuple[date, ...]) -> None:
    for previous, current in zip(dates, dates[1:]):
        if current == previous:
            raise ValidationError(f"duplicate date {current.isoformat()}")
        if current < previous:
            raise ValidationError(f"dates not increasing at {current.isoformat()}")


def load_series(text: str, *, material: str = "", currency: str = "") -> PriceSeries:
    """Parse ``date,price`` CSV text: header required, ISO dates strictly increasing, finite prices > 0."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ParseError("missing header row", lineno=1)
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["date", "price"]:
        raise ParseError("expected header 'date,price'", lineno=1)
    points: list[tuple[date, float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", lineno=lineno)
        raw_date, raw_value = row[0].strip(), row[1].strip()
        try:
            when = iso_date(raw_date)
        except ValueError:
            raise ParseError(f"bad ISO date {raw_date!r}", lineno=lineno) from None
        try:
            value = float(raw_value)
        except ValueError:
            raise ParseError(f"bad number {raw_value!r}", lineno=lineno) from None
        if not isfinite(value):
            raise DomainError(f"line {lineno}: price must be finite, got {value!r}")
        if value <= 0:
            raise ValidationError(f"line {lineno}: price at {when.isoformat()} must be > 0")
        if points:
            if when == points[-1][0]:
                raise ValidationError(f"line {lineno}: duplicate date {raw_date}")
            if when < points[-1][0]:
                raise ValidationError(f"line {lineno}: dates not increasing")
        points.append((when, value))
    if not points:
        raise ValidationError("empty series: no data rows")
    # built directly: every row's date order and price were checked above
    return tuple.__new__(PriceSeries, (material, currency, tuple(points), tuple(d for d, _ in points)))


def quote_at(series: PriceSeries, when: date) -> float:
    """Latest quotation on or before ``when``: carry-forward steps, no interpolation."""
    i = bisect_right(series.dates, when)
    if i == 0:
        raise NoQuoteError(f"no {series.material or 'price'} quotation on or before {when.isoformat()}")
    return series.points[i - 1][1]
