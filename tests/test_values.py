"""The value-type contract: fields in constructor order, immutable, equal by type and value."""

from __future__ import annotations

from datetime import date, datetime
from decimal import ROUND_HALF_EVEN, Decimal

import pytest

from dcm import (
    AttenuationSpec,
    BuybackResult,
    CertStatus,
    Certificate,
    CifQuote,
    ConfigError,
    DeliveryResult,
    DeliveryRules,
    DomainError,
    EventKind,
    ExpiryResult,
    Ledger,
    LedgerEvent,
    LogisticsParams,
    MarketQuote,
    PriceSeries,
    QuoteResult,
    RegistrySnapshot,
    RoundingProfile,
    ScenarioConfig,
    ScenarioReport,
    ScriptStep,
    StorageTariff,
    ThetaMode,
)
from dcm.decay import residual_weight, wealth_projection
from dcm.registry import Registry
from dcm import rounding
from dcm.rounding import fmt, quantize, quantize_to_float
from dcm.scenario import IssuerTerms
from dcm.values import require_date, require_integer, require_number

DAY = date(2020, 1, 1)
TARIFF = StorageTariff(0.2, 0.1, 0.05)
CIF = CifQuote(5000.0)
EVENT = Ledger().append(EventKind.QUOTE, "X-tin-0001", {"t": 3, "price": 4.5}, DAY)
RULES = DeliveryRules(0.003, 0.002, 1000.0, "warehouse", 365)
THETA = AttenuationSpec(0.99996)
ISSUER = IssuerTerms("LME", "copper", "kg", 0.9999, (1.0, 1000.0), THETA, RULES)
SERIES = PriceSeries("copper", "USD", ((DAY, 40.0),))
ISSUE = ScriptStep(0, "issue", "c1", None, {"face_weight": 1000.0, "owner": "a"})
QUOTE = ScriptStep(3, "quote", "c1")

# each type's fields in constructor order, and one field changed
SAMPLES = {
    LogisticsParams: (
        {
            "ordering_cost": 100.0, "annual_demand": 1000.0, "purchase_price": 5.0, "unit_warehouse_cost": 0.5,
            "transport_cost": 0.1, "transit_days": 10.0, "bank_rate": 0.05, "order_quantity": 200.0,
        },
        {"order_quantity": None},
    ),
    CifQuote: (
        {"price_per_unit": 5000.0, "material": "copper", "location": "Rotterdam", "as_of": DAY},
        {"as_of": None},
    ),
    StorageTariff: (
        {"daily_warehouse_charge": 0.2, "outbound_transfer_charge": 0.1, "bank_rate": 0.05},
        {"bank_rate": 0.0},
    ),
    AttenuationSpec: (
        {"theta_daily": 1.0 - 0.2 / 5000.0, "mode": ThetaMode.WAREHOUSE_ONLY, "tariff": TARIFF, "cif": CIF},
        {"tariff": StorageTariff(0.2)},
    ),
    RoundingProfile: ({"weight_places": 2, "money_places": 3}, {"money_places": 4}),
    PriceSeries: ({"material": "copper", "currency": "USD", "points": ((DAY, 40.0),)}, {"currency": "EUR"}),
    LedgerEvent: (dict(zip(LedgerEvent._fields, EVENT)), {"payload": {}}),
    DeliveryRules: (
        {
            "delivery_charge_ratio": 0.003, "withdrawal_charge_ratio": 0.002, "min_delivery_weight": 1000.0,
            "delivery_location": "warehouse", "validity_days": 365,
        },
        {"validity_days": None},
    ),
    MarketQuote: ({"quotation": 5.0, "premium": -0.1}, {"premium": 0.0}),
    Certificate: (
        {
            "cert_id": "LME-copper-0001", "issuer": "LME", "material": "copper", "face_weight": 1000.0,
            "purity": 0.9999, "issue_date": DAY, "theta": THETA, "rules": RULES, "owner": "client-1",
            "weight_unit": "kg", "status": CertStatus.DELIVERED,
        },
        {"owner": "client-2"},
    ),
    QuoteResult: (
        {
            "cert_id": "X-1", "t": 3, "residual_weight": 9.5, "docket_weight": 9.5, "quotation": 2.0,
            "premium": 0.0, "price": 19.0,
        },
        {"t": 4},
    ),
    DeliveryResult: (
        {"cert_id": "X-1", "t": 3, "residual_weight": 9.5, "delivered_weight": 9.0, "charged_weight": 0.5},
        {"t": 4},
    ),
    BuybackResult: (
        {
            "cert_id": "X-1", "t": 3, "residual_weight": 9.5, "buyback_weight": 9.0, "charged_weight": 0.5,
            "docket_weight": 9.0, "quotation": 2.0, "cash": 18.0,
        },
        {"t": 4},
    ),
    ExpiryResult: ({"cert_id": "X-1", "t": 400, "issuer_accrued_weight": 9.5}, {"t": 401}),
    RegistrySnapshot: (
        {"certificates": {}, "issue_counts": {("LME", "copper"): 1}, "last_seq": 1, "head_hash": EVENT.hash},
        {"last_seq": 2},
    ),
    ScriptStep: ({"dt": 3, "action": "quote", "cert": "c1", "date": DAY, "args": {"premium": 0.5}}, {"date": None}),
    IssuerTerms: (
        {
            "issuer_id": "LME", "material": "copper", "weight_unit": "kg", "purity": 0.9999,
            "denominations": (1.0, 1000.0), "theta": THETA, "rules": RULES,
        },
        {"purity": 1.0},
    ),
    ScenarioConfig: (
        {
            "name": "s", "currency": "USD", "issue_date": DAY, "issuer": ISSUER, "script": (ISSUE, QUOTE),
            "prices": SERIES, "price_per_units": 1000.0, "rounding": RoundingProfile(3, 2),
        },
        {"script": (ISSUE,)},
    ),
    ScenarioReport: ({"scenario": "s", "currency": "USD", "steps": [{"step": 1, "action": "issue"}]}, {"steps": []}),
}
TYPES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def _sample(cls):
    fields, _ = SAMPLES[cls]
    return cls(**fields)


@TYPES
def test_keyword_and_positional_construction_agree(cls):
    fields, _ = SAMPLES[cls]
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert {name: getattr(value, name) for name in fields} == fields
    assert value._fields[: len(fields)] == tuple(fields)


@TYPES
def test_equality_is_by_type_and_value(cls):
    fields, change = SAMPLES[cls]
    value = cls(**fields)
    assert value == cls(**fields)
    assert not value != cls(**fields)
    assert value != cls(**{**fields, **change})
    assert value != tuple(value)
    assert tuple(value) != value


@TYPES
def test_no_attribute_can_be_assigned(cls):
    value = _sample(cls)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@TYPES
def test_replace_builds_a_new_value_and_leaves_the_old_one(cls):
    fields, change = SAMPLES[cls]
    value = cls(**fields)
    assert value._replace(**change) == cls(**{**fields, **change})
    assert value == cls(**fields)


def test_defaults_match_the_documented_ones():
    assert DeliveryRules(0.003, 0.002, 1000) == DeliveryRules(0.003, 0.002, 1000.0, "", None)
    assert AttenuationSpec(0.5) == AttenuationSpec(0.5, ThetaMode.EXPLICIT, None, None)
    assert CifQuote(1.0) == CifQuote(1.0, "", "", None)
    assert StorageTariff(0.1) == StorageTariff(0.1, 0.0, 0.0)
    assert MarketQuote(1.0).premium == 0.0
    assert RoundingProfile() == RoundingProfile(4, 4)
    assert LogisticsParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0).order_quantity is None
    cert = Certificate("X-1", "X", "tin", 5, 1, DAY, THETA, RULES, "a")
    assert (cert.weight_unit, cert.status) == ("kg", CertStatus.ACTIVE)
    assert (type(cert.face_weight), type(cert.purity)) == (float, float)
    assert ScriptStep(0, "issue", "c1") == ScriptStep(0, "issue", "c1", None, {})
    assert ScriptStep(0, "issue", "c1").args is not ScriptStep(0, "issue", "c1").args
    assert ScenarioConfig("s", "", DAY, ISSUER, (ISSUE,)) == ScenarioConfig(
        "s", "", DAY, ISSUER, (ISSUE,), None, 1.0, RoundingProfile()
    )


def test_replace_and_make_run_the_type_checks():
    with pytest.raises(DomainError, match="quotation must be > 0"):
        MarketQuote(5.0)._replace(quotation=-1.0)
    with pytest.raises(DomainError, match="delivery_charge_ratio must lie in"):
        DeliveryRules._make((0.5, 0.0, 1.0, "", None))
    with pytest.raises(ValueError, match="unexpected field names"):
        MarketQuote(5.0)._replace(price=1.0)
    with pytest.raises(ConfigError, match=r"^script step 2 \(quote\): no price series is configured$"):
        _sample(ScenarioConfig)._replace(prices=None)


@pytest.mark.parametrize(
    "tariff, cif", [(StorageTariff(5.0), CifQuote(100.0)), (None, CIF)], ids=["tariff-and-cif", "cif-only"]
)
def test_an_explicit_theta_carries_no_derivation_inputs(tariff, cif):
    with pytest.raises(DomainError) as excinfo:
        AttenuationSpec(0.99, ThetaMode.EXPLICIT, tariff, cif)
    assert str(excinfo.value) == "explicit mode carries no derivation inputs"


@pytest.mark.parametrize(
    "cls, field, value, message",
    [
        (DeliveryRules, "delivery_location", 7, "delivery_location must be a string, got 7"),
        (DeliveryRules, "validity_days", 2.5, "validity_days must be an integer, got 2.5"),
        (DeliveryRules, "validity_days", True, "validity_days must be an integer, got True"),
        (DeliveryRules, "validity_days", "365", "validity_days must be an integer, got '365'"),
        (Certificate, "cert_id", 123, "cert_id 123 must be non-empty and use only [A-Za-z0-9_.:-]"),
        (Certificate, "issuer", 5, "issuer must be a non-empty string, got 5"),
        (Certificate, "issuer", "", "issuer must be a non-empty string, got ''"),
        (Certificate, "material", None, "material must be a non-empty string, got None"),
        (Certificate, "material", "", "material must be a non-empty string, got ''"),
        (Certificate, "weight_unit", 1, "weight_unit must be a string, got 1"),
        (Certificate, "issue_date", "2020-01-01", "issue_date must be a date, got '2020-01-01'"),
        (
            Certificate, "issue_date", datetime(2020, 1, 1),
            "issue_date must be a date, got datetime.datetime(2020, 1, 1, 0, 0)",
        ),
        (RoundingProfile, "weight_places", "4", "weight_places must be an integer, got '4'"),
        (RoundingProfile, "weight_places", 4.5, "weight_places must be an integer, got 4.5"),
        (RoundingProfile, "money_places", True, "money_places must be an integer, got True"),
        (CifQuote, "material", 5, "material must be a string, got 5"),
        (CifQuote, "location", None, "location must be a string, got None"),
        (CifQuote, "as_of", "2020-01-01", "as_of must be a date, got '2020-01-01'"),
        (
            CifQuote, "as_of", datetime(2020, 1, 1),
            "as_of must be a date, got datetime.datetime(2020, 1, 1, 0, 0)",
        ),
    ],
    ids=[
        "location-number", "validity-fraction", "validity-boolean", "validity-text", "cert-id-number", "issuer-number",
        "issuer-empty", "material-none", "material-empty", "weight-unit-number", "issue-date-text",
        "issue-date-datetime", "weight-places-text", "weight-places-fraction", "money-places-boolean",
        "cif-material-number", "cif-location-none", "cif-as-of-text", "cif-as-of-datetime",
    ],
)
def test_a_text_or_integer_field_of_another_type_is_a_domain_error(cls, field, value, message):
    fields, _ = SAMPLES[cls]
    with pytest.raises(DomainError) as excinfo:
        cls(**{**fields, field: value})
    assert str(excinfo.value) == message


# a day count, a number of places or a date given to a function, not a value type: (call, message)
SCALAR_ARGUMENT_REFUSALS = {
    "registry-text-places": (lambda: Registry(weight_places="x"), "weight_places must be an integer, got 'x'"),
    "residual-whole-float-days": (
        lambda: residual_weight(1000.0, 0.99, 2.0), "delta_t must be an integer, got 2.0"
    ),
    "projection-text-horizon": (
        lambda: wealth_projection(1000, 0.99, "3"), "horizon_days must be an integer, got '3'"
    ),
    "ledger-datetime-timestamp": (
        lambda: Ledger().append(EventKind.QUOTE, "X-tin-0001", {"t": 3}, datetime(2020, 1, 1)),
        "timestamp must be a date, got datetime.datetime(2020, 1, 1, 0, 0)",
    ),
}


@pytest.mark.parametrize("case", list(SCALAR_ARGUMENT_REFUSALS))
def test_an_integer_or_date_argument_of_another_type_is_a_domain_error(case):
    call, message = SCALAR_ARGUMENT_REFUSALS[case]
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message


# a places refused, a places rounded to just before it (True and 2.0 hash as 1 and 2), and the refusal
PLACES_REFUSALS = {
    "true-after-1": (True, 1, "must be an integer, got True"),
    "float-after-2": (2.0, 2, "must be an integer, got 2.0"),
    "text": ("2", 2, "must be an integer, got '2'"),
    "list": ([2], 2, "must be an integer, got [2]"),
    "negative": (-1, 1, "must be >= 0"),
}
# each call that takes a places, and the name its refusal gives it
PLACES_CALLS = {
    "quantize": (lambda places: quantize(1.25, places), "places"),
    "fmt": (lambda places: fmt(1.25, places), "places"),
    "quantize-to-float": (lambda places: quantize_to_float(1.25, places), "places"),
    "weight-places": (lambda places: RoundingProfile(weight_places=places), "weight_places"),
    "money-places": (lambda places: RoundingProfile(money_places=places), "money_places"),
}


@pytest.mark.parametrize("call, name", PLACES_CALLS.values(), ids=PLACES_CALLS.keys())
@pytest.mark.parametrize("places, warm, refusal", PLACES_REFUSALS.values(), ids=PLACES_REFUSALS.keys())
def test_places_are_refused_after_their_quantum_is_built(call, name, places, warm, refusal):
    assert fmt(1.25, warm) == str(quantize(1.25, warm))
    with pytest.raises(DomainError) as excinfo:
        call(places)
    if places == -1 and name != "places":
        name = "rounding places"  # RoundingProfile refuses either field below 0 in one message
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == f"{name} {refusal}"


def test_the_quanta_stay_bounded_and_round_as_built_per_call():
    quanta = dict(rounding._QUANTA)
    for places in range(1_000):  # Days(places), an int subclass, is checked and its quantum built per call
        expected = str(Decimal("0.0").quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN))
        assert fmt(0.0, places) == fmt(0.0, Days(places)) == expected
    assert rounding._QUANTA == quanta and len(quanta) == 29
    for value, places in [(0.125, 2), (2.5, 0), (0.0625, 3), (0.314159265358979, 28), (1e-9, 29), (1e-9, 35)]:
        expected = Decimal(repr(value)).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
        assert str(quantize(value, places)) == str(expected)


class Days(int):
    pass


FLOAT_INT_BOUND = 2**1024 - 2**970  # the smallest int that float() rounds past the largest float


@pytest.mark.parametrize(
    "value, result",
    [
        (0, 0), (-3, -3), (Days(3), 3), (FLOAT_INT_BOUND - 1, FLOAT_INT_BOUND - 1),
        (FLOAT_INT_BOUND, "n must be finite, got an int of 1024 bits"),
        (-FLOAT_INT_BOUND, "n must be finite, got a negative int of 1024 bits"),
        (True, "n must be an integer, got True"), (3.0, "n must be an integer, got 3.0"),
        ("3", "n must be an integer, got '3'"), (None, "n must be an integer, got None"),
    ],
    ids=["zero", "negative", "int-subclass", "largest", "beyond-float", "beyond-float-negative", "bool",
         "whole-float", "text", "none"],
)
def test_require_integer_gives_a_plain_int_that_a_float_can_hold(value, result):
    if isinstance(result, str):
        with pytest.raises(DomainError) as excinfo:
            require_integer("n", value)
        assert str(excinfo.value) == result
    else:
        checked = require_integer("n", value)
        assert (checked.__class__, checked) == (int, result)
        float(checked)  # does not overflow


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: require_number("n", 10**5000), "n must be finite, got an int of 16610 bits"),
        (lambda: require_integer("n", -(10**5000)), "n must be finite, got a negative int of 16610 bits"),
        (lambda: DeliveryRules(0.0, 0.0, 1.0, "", 10**5000), "validity_days must be finite, got an int of 16610 bits"),
    ],
    ids=["number", "integer", "validity-days"],
)
def test_an_int_too_long_to_write_is_refused_by_its_size(call, message):
    # past 4,300 digits repr() raises ValueError, so the refusal cannot show the value
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [datetime(2020, 1, 1), "2020-01-01", None, 737425], ids=repr)
def test_require_date_takes_exactly_a_date(value):
    assert require_date("d", DAY) is DAY
    with pytest.raises(DomainError) as excinfo:
        require_date("d", value)
    assert str(excinfo.value) == f"d must be a date, got {value!r}"


def test_a_text_field_may_be_empty_where_it_is_optional():
    assert _sample(DeliveryRules)._replace(delivery_location="").delivery_location == ""
    assert _sample(Certificate)._replace(weight_unit="").weight_unit == ""


def test_a_price_series_holds_only_its_fields():
    series = PriceSeries("copper", "USD", ((DAY, 40.0), (date(2020, 1, 2), 41.0)))
    assert repr(series) == f"PriceSeries(material='copper', currency='USD', points={series.points!r})"
    with pytest.raises(ValueError, match="unexpected field names"):
        series._replace(dates=())


def test_ledger_event_repr_leaves_out_the_line():
    text = repr(EVENT)
    assert text.startswith("LedgerEvent(seq=1, timestamp=datetime.date(2020, 1, 1), kind=<EventKind.QUOTE: 'QUOTE'>, ")
    assert text.endswith(f", hash={EVENT.hash!r})")
    assert "line=" not in text
    assert EVENT.line not in text


def test_repr_names_every_field():
    assert repr(MarketQuote(5.0)) == "MarketQuote(quotation=5.0, premium=0.0)"
