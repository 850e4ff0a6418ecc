"""Price series parsing, carry-forward lookup, and round-trip serialization."""

from __future__ import annotations

import csv
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcm import (
    ConfigError,
    DomainError,
    NoQuoteError,
    ParseError,
    PriceSeries,
    ValidationError,
    load_series,
    quote_at,
)
from dcm.market import read_series

COPPER_CSV = "date,price\n2020-07-01,5000\n2021-01-01,5500\n"


def _csv(series: PriceSeries) -> str:
    """The ``date,price`` CSV text of ``series``, each price in its round-tripping ``repr`` form."""
    return "date,price\n" + "".join(f"{d.isoformat()},{price!r}\n" for d, price in series.points)


class TestLoadSeries:
    def test_two_point_reference_series(self):
        series = load_series(COPPER_CSV, material="copper", currency="USD")
        assert series.points == (
            (date(2020, 7, 1), 5000.0),
            (date(2021, 1, 1), 5500.0),
        )

    def test_empty_body_is_rejected(self):
        with pytest.raises(ValidationError, match="empty series"):
            load_series("date,price\n")

    def test_missing_header_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1"):
            load_series("2020-07-01,5000\n")
        with pytest.raises(ParseError) as excinfo:
            load_series("")
        assert str(excinfo.value) == "line 1: missing header row"

    def test_blank_rows_are_skipped(self):
        assert load_series("date,price\n\n2020-07-01,5000\n \n2021-01-01,5500\n") == load_series(COPPER_CSV)

    def test_duplicate_date_names_the_line(self):
        text = "date,price\n2020-07-01,5000\n2020-07-01,5100\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_series(text)

    def test_non_monotone_dates_name_the_line(self):
        text = "date,price\n2020-07-01,5000\n2020-06-01,4900\n"
        with pytest.raises(ValidationError, match="line 3"):
            load_series(text)

    def test_malformed_row_names_the_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_series("date,price\nnot-a-date,5000\n")
        with pytest.raises(ParseError, match="line 3"):
            load_series("date,price\n2020-07-01,5000\n2020-08-01,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            load_series("date,price\n2020-07-01\n")

    @pytest.mark.parametrize("quoted", [False, True], ids=["bare", "quoted"])
    def test_a_field_past_the_csv_field_limit_names_its_line(self, quoted):
        field = "9" * (csv.field_size_limit() + 1)
        if quoted:
            field = f'"{field}"'
        with pytest.raises(ParseError) as excinfo:
            load_series(f"date,price\n2020-07-01,5000\n2020-08-01,{field}\n")
        assert str(excinfo.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"

    def test_nonpositive_price_is_rejected(self):
        with pytest.raises(ValidationError):
            load_series("date,price\n2020-07-01,0\n")

    @pytest.mark.parametrize(
        "price, error, message",
        [
            ("nan", DomainError, "line 3: price must be finite, got nan"),
            ("inf", DomainError, "line 3: price must be finite, got inf"),
            ("-inf", DomainError, "line 3: price must be finite, got -inf"),
            ("0", ValidationError, "line 3: price at 2020-08-01 must be > 0"),
            ("-1", ValidationError, "line 3: price at 2020-08-01 must be > 0"),
        ],
    )
    def test_a_bad_price_names_its_line(self, price, error, message):
        with pytest.raises(ValidationError) as excinfo:
            load_series(f"date,price\n2020-07-01,5000\n2020-08-01,{price}\n2020-07-15,5100\n")
        assert (type(excinfo.value), str(excinfo.value)) == (error, message)


class TestReadSeries:
    def test_reads_the_series_of_a_file(self, tmp_path):
        path = tmp_path / "copper.csv"
        path.write_text(COPPER_CSV, encoding="utf-8")
        assert read_series(path, material="copper", currency="USD") == load_series(
            COPPER_CSV, material="copper", currency="USD"
        )

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("date,price\n2020-07-01,5000\n2020-08-01,nan\n", DomainError, "line 3: price must be finite, got nan"),
            ("date,price\n2020-07-01,0\n", ValidationError, "line 2: price at 2020-07-01 must be > 0"),
            ("date,price\n2020-07-01,x\n", ParseError, "line 2: bad number 'x'"),
            ("day,price\n", ParseError, "line 1: expected header 'date,price'"),
            ("date,price\n", ValidationError, "empty series: no data rows"),
        ],
        ids=["not-finite", "not-positive", "not-a-number", "bad-header", "no-rows"],
    )
    def test_a_refusal_of_the_text_names_the_file_and_keeps_its_type(self, tmp_path, text, error, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            read_series(path)
        assert (type(excinfo.value), str(excinfo.value)) == (error, f"price series {path}: {message}")
        if error is ParseError:
            assert excinfo.value.lineno == int(message.split(":")[0].split()[1])

    def test_a_file_that_cannot_be_read_is_named_once(self, tmp_path):
        path = tmp_path / "missing.csv"
        with pytest.raises(ConfigError) as excinfo:
            read_series(path)
        assert str(excinfo.value).startswith(f"cannot read price series {path}: [Errno 2] ")  # not prefixed again


BAD_POINTS = pytest.mark.parametrize(
    "points, error, message",
    [
        (((date(2020, 7, 1), 5000), (date(2020, 8, 1), 0)), ValidationError, "price at 2020-08-01 must be > 0"),
        (((date(2020, 7, 1), -1.5),), ValidationError, "price at 2020-07-01 must be > 0"),
        (((date(2020, 7, 1), 5000), (date(2020, 8, 1), float("nan"))), DomainError, "price must be finite, got nan"),
        (((date(2020, 7, 1), 5000), (date(2020, 7, 1), 5100)), ValidationError, "duplicate date 2020-07-01"),
        (((date(2020, 7, 1), 5000), (date(2020, 6, 1), 4900)), ValidationError, "dates not increasing at 2020-06-01"),
    ],
    ids=["zero-price", "negative-price", "nan-price", "duplicate-date", "decreasing-date"],
)


class TestPriceSeries:
    @BAD_POINTS
    def test_a_bad_point_is_a_validation_error(self, points, error, message):
        with pytest.raises(ValidationError) as excinfo:
            PriceSeries("copper", "USD", points)
        assert (type(excinfo.value), str(excinfo.value)) == (error, message)

    @BAD_POINTS
    def test_load_series_refuses_a_bad_point_by_the_same_rule_naming_its_line(self, points, error, message):
        text = "date,price\n" + "".join(f"{when.isoformat()},{price}\n" for when, price in points)
        with pytest.raises(ValidationError) as excinfo:
            load_series(text)
        assert (type(excinfo.value), str(excinfo.value)) == (error, f"line {len(points) + 1}: {message}")


class TestQuoteAt:
    series = load_series(COPPER_CSV, material="copper", currency="USD")

    def test_exact_date(self):
        assert quote_at(self.series, date(2020, 7, 1)) == 5000.0

    def test_carry_forward_between_points(self):
        assert quote_at(self.series, date(2020, 12, 31)) == 5000.0

    def test_second_point_takes_over(self):
        assert quote_at(self.series, date(2021, 1, 1)) == 5500.0
        assert quote_at(self.series, date(2022, 6, 1)) == 5500.0

    def test_before_first_point_has_no_quote(self):
        with pytest.raises(NoQuoteError):
            quote_at(self.series, date(2019, 12, 31))

    def test_later_points_never_change_earlier_lookups(self):
        # appending a point dated after the query can never change the answer
        extended = PriceSeries(
            material="copper",
            currency="USD",
            points=self.series.points + ((date(2021, 6, 1), 6000.0),),
        )
        for offset in range(0, 330, 7):  # stays before the appended point
            when = date(2020, 7, 1) + timedelta(days=offset)
            assert quote_at(extended, when) == quote_at(self.series, when)


class TestSerializeRoundTrip:
    def test_reference_series_round_trips(self):
        series = load_series(COPPER_CSV, material="copper", currency="USD")
        again = load_series(_csv(series), material="copper", currency="USD")
        assert again == series

    @given(
        start=st.dates(min_value=date(1990, 1, 1), max_value=date(2050, 1, 1)),
        gaps=st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=30),
        prices=st.lists(
            st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False),
            min_size=31,
            max_size=31,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_identity(self, start, gaps, prices):
        points = []
        when = start
        for gap, price in zip([0] + gaps, prices):
            when = when + timedelta(days=gap)
            points.append((when, price))
        series = PriceSeries(material="m", currency="c", points=tuple(points))
        assert load_series(_csv(series), material="m", currency="c") == series

