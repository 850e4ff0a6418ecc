"""Dated market quotations with carry-forward lookup."""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
from collections import namedtuple
from datetime import date
from operator import itemgetter
from pathlib import Path

from .errors import ConfigError, NoQuoteError, ParseError, ValidationError
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


class PriceSeries(Value, namedtuple("PriceSeries", "material currency points")):
    """Ordered quotations for one material in one currency."""

    __slots__ = ()

    def __new__(cls, material: str, currency: str, points: tuple[tuple[date, float], ...]):
        previous = None
        for when, price in points:  # each price is kept as given: an int stays an int
            _check_quotation(previous, when, price)
            previous = when
        return tuple.__new__(cls, (material, currency, points))


def _check_quotation(previous: date | None, when: date, price) -> None:
    """Refuse a price that is not a finite number > 0, or a date that does not follow ``previous``, the one before."""
    if require_number("price", price) <= 0:
        raise ValidationError(f"price at {when.isoformat()} must be > 0")
    if previous is not None and when <= previous:
        if when == previous:
            raise ValidationError(f"duplicate date {when.isoformat()}")
        raise ValidationError(f"dates not increasing at {when.isoformat()}")


def load_series(text: str, *, material: str = "", currency: str = "") -> PriceSeries:
    """Parse ``date,price`` CSV text: header required, ISO dates strictly increasing, finite prices > 0."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # a field past csv.field_size_limit(), which is the whole process's to set
        raise ParseError(str(exc), lineno=reader.line_num) from None
    if not rows:
        raise ParseError("missing header row", lineno=1)
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["date", "price"]:
        raise ParseError("expected header 'date,price'", lineno=1)
    points: list[tuple[date, float]] = []
    previous = None
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
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
        try:
            _check_quotation(previous, when, value)
        except ValidationError as exc:  # a DomainError for a price that is not finite
            raise type(exc)(f"line {lineno}: {exc}") from None
        points.append((when, value))
        previous = when
    if not points:
        raise ValidationError("empty series: no data rows")
    # built directly: each point was checked as the type checks it
    return tuple.__new__(PriceSeries, (material, currency, tuple(points)))


def read_series(path: Path, *, material: str = "", currency: str = "") -> PriceSeries:
    """``load_series`` of the file at ``path``; a refusal of its text or of a row names the file."""
    text = read_text(path, "price series")
    try:
        return load_series(text, material=material, currency=currency)
    except ValidationError as exc:  # the same error, with its ``line N:`` text
        exc.args = (f"price series {path}: {exc}",)
        raise


def quote_at(series: PriceSeries, when: date) -> float:
    """Latest quotation on or before ``when``: carry-forward steps, no interpolation."""
    i = bisect_right(series.points, when, key=itemgetter(0))
    if i == 0:
        raise NoQuoteError(f"no {series.material or 'price'} quotation on or before {when.isoformat()}")
    return series.points[i - 1][1]
