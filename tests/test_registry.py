"""Certificate lifecycle: issuance, pricing, settlement, transfer, replay."""

from __future__ import annotations

import gc
import hashlib
import json
import random
from datetime import date, datetime
from decimal import Decimal

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcm import (
    AttenuationSpec,
    CertStatus,
    Certificate,
    CifQuote,
    DCMError,
    DeliveryRules,
    DerivationError,
    DomainError,
    EventKind,
    ExpiryError,
    IssuanceError,
    LedgerIntegrityError,
    LotSizeError,
    LogisticsParams,
    MarketQuote,
    ParseError,
    PriceSeries,
    Registry,
    StateError,
    StorageTariff,
    ThetaMode,
    attenuation_coefficient,
    bundled_scenario_path,
    export_certificate,
    load_scenario,
    read_events,
    replay,
    residual_weight,
    run_scenario,
)
import dcm.registry
from dcm.checkpoint import LedgerFile
from dcm.ledger import Ledger, LedgerEvent, canonical_payload, parse_line
from conftest import LME_ISSUE_DATE, assert_display_close, forge_sidecar, same_json
from test_acceptance import _random_operations


def shfe_registry_and_cert():
    registry = Registry()
    registry.register_issuer("SHFE", [0.001, 0.1, 1, 100])
    cert = registry.issue(
        issuer="SHFE",
        material="steel",
        face_weight=100,
        purity=1.0,
        issue_date=date(2020, 1, 1),
        theta=AttenuationSpec(theta_daily=0.999945),
        rules=DeliveryRules(
            delivery_charge_ratio=0.005,
            withdrawal_charge_ratio=0.002,
            min_delivery_weight=100,
            delivery_location="Shanghai",
            validity_days=18250,
        ),
        owner="client-1",
        weight_unit="ton",
    )
    return registry, cert


class TestIssue:
    def test_reference_copper_certificate(self, lme_cert):
        assert lme_cert.status is CertStatus.ACTIVE
        assert lme_cert.cert_id == "LME-copper-0001"
        assert lme_cert.face_weight == 1000.0
        assert lme_cert.theta.theta_daily == 0.99996

    def test_reference_steel_certificate_with_validity(self):
        _, cert = shfe_registry_and_cert()
        assert cert.status is CertStatus.ACTIVE
        assert cert.rules.validity_days == 18250
        assert cert.weight_unit == "ton"

    def test_off_denomination_weight_is_rejected(self, lme_registry, lme_rules):
        with pytest.raises(IssuanceError, match="denominations"):
            lme_registry.issue(
                issuer="LME",
                material="copper",
                face_weight=7,
                purity=0.9999,
                issue_date=LME_ISSUE_DATE,
                theta=AttenuationSpec(theta_daily=0.99996),
                rules=lme_rules,
                owner="client-1",
            )

    def test_unregistered_issuer_is_rejected(self, lme_rules):
        registry = Registry()
        with pytest.raises(IssuanceError, match="no registered denomination"):
            registry.issue(
                issuer="COMEX",
                material="gold",
                face_weight=1,
                purity=0.999,
                issue_date=LME_ISSUE_DATE,
                theta=AttenuationSpec(theta_daily=0.99996),
                rules=lme_rules,
                owner="client-1",
            )

    def test_certificate_ids_are_sequential_per_issuer_material(self, lme_registry, lme_rules):
        issue = lambda: lme_registry.issue(
            issuer="LME", material="copper", face_weight=10, purity=0.9999,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=lme_rules, owner="x",
        )
        assert issue().cert_id == "LME-copper-0001"
        assert issue().cert_id == "LME-copper-0002"

    def test_generated_ids_of_different_pairs_collide_and_the_second_is_refused(self, lme_rules):
        registry = Registry()
        registry.register_issuer("A-b", [1])
        registry.register_issuer("A", [1])
        issue = lambda issuer, material: registry.issue(
            issuer=issuer, material=material, face_weight=1, purity=1.0,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=lme_rules, owner="x",
        )
        assert issue("A-b", "c").cert_id == "A-b-c-0001"
        with pytest.raises(IssuanceError, match="'A-b-c-0001' already exists"):
            issue("A", "b-c")
        assert len(registry.ledger) == 1

    def test_refused_issue_records_nothing(self, lme_registry, lme_cert, lme_rules):
        before = lme_registry.snapshot()
        with pytest.raises(DomainError, match="purity"):
            lme_registry.issue(
                issuer="LME",
                material="copper",
                face_weight=1000,
                purity=1.5,
                issue_date=LME_ISSUE_DATE,
                theta=AttenuationSpec(theta_daily=0.99996),
                rules=lme_rules,
                owner="client-2",
            )
        assert len(lme_registry.ledger) == 1
        assert lme_registry.snapshot() == before

    @pytest.mark.parametrize("owner", [None, "", ["a", 1]], ids=["none", "empty", "list"])
    def test_owner_that_is_not_a_non_empty_string_is_refused_and_records_nothing(self, lme_registry, lme_rules, owner):
        before = lme_registry.snapshot()
        with pytest.raises(DomainError, match="owner"):
            lme_registry.issue(
                issuer="LME",
                material="copper",
                face_weight=1000,
                purity=0.9999,
                issue_date=LME_ISSUE_DATE,
                theta=AttenuationSpec(theta_daily=0.99996),
                rules=lme_rules,
                owner=owner,
            )
        assert len(lme_registry.ledger) == 0
        assert lme_registry.snapshot() == before

    @pytest.mark.parametrize("issuer", [5, ""], ids=["number", "empty"])
    def test_an_issuer_that_is_not_a_non_empty_string_is_refused_and_records_nothing(self, lme_rules, issuer):
        # such an issuer would head a sidecar counter that the checkpoint reader refuses
        registry = Registry()
        registry.register_issuer(issuer, [1000])
        with pytest.raises(DomainError) as excinfo:
            registry.issue(
                issuer=issuer, material="copper", face_weight=1000, purity=0.9999, issue_date=LME_ISSUE_DATE,
                theta=AttenuationSpec(theta_daily=0.99996), rules=lme_rules, owner="client-1",
            )
        assert str(excinfo.value) == f"issuer must be a non-empty string, got {issuer!r}"
        assert len(registry.ledger) == 0
        assert registry.issue_counts() == []

    @pytest.mark.parametrize(
        "issue_date", [datetime(2020, 1, 1), "2020-01-01", None], ids=["datetime", "text", "none"]
    )
    def test_an_issue_date_that_is_not_a_date_is_refused_and_records_nothing(self, lme_registry, issue_date):
        with pytest.raises(DomainError) as excinfo:
            lme_registry.issue(
                "LME", "copper", 1000, 0.9999, issue_date, AttenuationSpec(theta_daily=0.99996),
                DeliveryRules(0.003, 0.002, 1000), "client-1",
            )
        assert str(excinfo.value) == f"issue_date must be a date, got {issue_date!r}"
        assert len(lme_registry.ledger) == 0
        assert lme_registry.issue_counts() == []

    def test_issue_appends_an_event(self, lme_registry, lme_cert):
        events = lme_registry.ledger.events
        assert len(events) == 1
        assert events[0].kind.value == "ISSUE"
        assert events[0].cert_id == lme_cert.cert_id


class TestQuote:
    def test_reference_copper_price(self, lme_registry, lme_cert):
        result = lme_registry.quote_transaction_price(
            lme_cert.cert_id, MarketQuote(quotation=5.0), 183
        )
        # stated figure 4963.5331; settlement on the 4-decimal docket weight
        # gives 4963.5330, one display unit away
        assert_display_close(result.price, 4, "4963.5331", tol="0.0001")
        assert_display_close(result.residual_weight, 4, "992.7066", tol="0.0000")

    def test_reference_steel_price(self):
        registry, cert = shfe_registry_and_cert()
        result = registry.quote_transaction_price(cert.cert_id, MarketQuote(quotation=2500.0), 183)
        assert result.price == pytest.approx(247496, abs=0.5)

    def test_no_decay_no_premium_is_face_times_quotation(self, lme_registry, lme_cert):
        result = lme_registry.quote_transaction_price(lme_cert.cert_id, MarketQuote(quotation=5.0), 0)
        assert result.price == 5.0 * 1000.0

    def test_premium_raises_the_price(self, lme_registry, lme_cert):
        plain = lme_registry.quote_transaction_price(lme_cert.cert_id, MarketQuote(quotation=5.0), 183)
        bumped = lme_registry.quote_transaction_price(
            lme_cert.cert_id, MarketQuote(quotation=5.0, premium=0.25), 183
        )
        assert bumped.price == pytest.approx(plain.price + 0.25 * plain.docket_weight, rel=1e-12)

    def test_quote_past_validity_is_an_expiry_error(self):
        registry, cert = shfe_registry_and_cert()
        with pytest.raises(ExpiryError):
            registry.quote_transaction_price(cert.cert_id, MarketQuote(quotation=2500.0), 18251)

    def test_quote_on_settled_certificate_is_a_state_error(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        with pytest.raises(StateError):
            lme_registry.quote_transaction_price(lme_cert.cert_id, MarketQuote(quotation=5.0), 400)


class TestDelivery:
    def test_reference_copper_delivery(self, lme_registry, lme_cert):
        result = lme_registry.physical_delivery(lme_cert.cert_id, 365)
        assert_display_close(result.delivered_weight, 4, "982.5493", tol="0.0000")
        assert lme_registry.certificate(lme_cert.cert_id).status is CertStatus.DELIVERED

    def test_reference_steel_delivery(self):
        registry, cert = shfe_registry_and_cert()
        result = registry.physical_delivery(cert.cert_id, 365)
        assert_display_close(result.delivered_weight, 4, "97.5224", tol="0.0000")

    def test_identity_settlement_at_day_zero_without_charge(self, lme_registry):
        cert = lme_registry.issue(
            issuer="LME", material="copper", face_weight=1000, purity=0.9999,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=DeliveryRules(
                delivery_charge_ratio=0.0, withdrawal_charge_ratio=0.0, min_delivery_weight=1000,
            ),
            owner="client-1",
        )
        result = lme_registry.physical_delivery(cert.cert_id, 0)
        assert result.delivered_weight == 1000.0
        assert result.charged_weight == 0.0

    def test_small_face_weight_fails_the_lot_rule(self, lme_registry, lme_rules):
        cert = lme_registry.issue(
            issuer="LME", material="copper", face_weight=100, purity=0.9999,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=lme_rules, owner="client-1",
        )
        with pytest.raises(LotSizeError):
            lme_registry.physical_delivery(cert.cert_id, 10)

    def test_minimum_lot_judges_face_weight_not_residual(self, lme_registry, lme_cert):
        # after a year the residual is below 1000 but the 1000 kg face stays deliverable
        assert lme_cert.residual_at(365) < lme_cert.rules.min_delivery_weight
        result = lme_registry.physical_delivery(lme_cert.cert_id, 365)
        assert result.delivered_weight > 0

    def test_second_settlement_is_a_state_error(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        with pytest.raises(StateError):
            lme_registry.physical_delivery(lme_cert.cert_id, 400)


class TestBuyback:
    def test_reference_copper_buyback(self, lme_registry, lme_cert):
        result = lme_registry.buyback(lme_cert.cert_id, 365, MarketQuote(quotation=5.5))
        assert_display_close(result.buyback_weight, 4, "983.5348", tol="0.0000")
        assert_display_close(result.cash, 4, "5409.4414", tol="0.0000")
        assert lme_registry.certificate(lme_cert.cert_id).status is CertStatus.BOUGHT_BACK

    def test_reference_steel_buyback(self):
        registry, cert = shfe_registry_and_cert()
        result = registry.buyback(cert.cert_id, 365, MarketQuote(quotation=2600.0))
        assert_display_close(result.buyback_weight, 4, "97.8164", tol="0.0000")
        assert result.cash == pytest.approx(254323, abs=1)

    def test_no_charge_no_decay_pays_face_value(self, lme_registry):
        cert = lme_registry.issue(
            issuer="LME", material="copper", face_weight=1000, purity=0.9999,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=DeliveryRules(
                delivery_charge_ratio=0.0, withdrawal_charge_ratio=0.0, min_delivery_weight=1000,
            ),
            owner="client-1",
        )
        result = lme_registry.buyback(cert.cert_id, 0, MarketQuote(quotation=5.0))
        assert result.cash == 5.0 * 1000.0


class TestTransfer:
    def test_owner_changes_and_weight_does_not(self, lme_registry, lme_cert):
        cert = lme_registry.transfer(lme_cert.cert_id, "buyer-2", 10)
        assert cert.owner == "buyer-2"
        assert cert.face_weight == 1000.0

    def test_quote_is_invariant_under_transfers(self, lme_registry, lme_cert):
        before = lme_registry.quote_transaction_price(lme_cert.cert_id, MarketQuote(quotation=5.0), 183)
        lme_registry.transfer(lme_cert.cert_id, "b", 200)
        lme_registry.transfer(lme_cert.cert_id, "c", 250)
        after = lme_registry.quote_transaction_price(lme_cert.cert_id, MarketQuote(quotation=5.0), 183)
        assert after.price == before.price

    def test_refused_transfer_records_nothing(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        before = lme_registry.snapshot()
        with pytest.raises(StateError):
            lme_registry.transfer(lme_cert.cert_id, "client-2", 400)
        assert len(lme_registry.ledger) == 2
        assert lme_registry.snapshot() == before

    @pytest.mark.parametrize("owner", [["a", 1], "", None], ids=["list", "empty", "none"])
    def test_owner_that_is_not_a_non_empty_string_is_refused_and_records_nothing(self, lme_registry, lme_cert, owner):
        before = lme_registry.snapshot()
        with pytest.raises(DomainError, match="owner"):
            lme_registry.transfer(lme_cert.cert_id, owner, 3)
        assert len(lme_registry.ledger) == 1
        assert lme_registry.snapshot() == before

    def test_transfer_on_settled_certificate_is_a_state_error(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        with pytest.raises(StateError):
            lme_registry.transfer(lme_cert.cert_id, "buyer-2", 400)


class TestImmutableState:
    """A certificate a caller holds is a value: changing the registry goes only through its operations."""

    def test_a_delivered_certificate_cannot_be_set_active_and_delivered_again(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 10)
        with pytest.raises(AttributeError):
            lme_registry.certificate(lme_cert.cert_id).status = CertStatus.ACTIVE
        with pytest.raises(StateError):
            lme_registry.physical_delivery(lme_cert.cert_id, 11)
        assert len(lme_registry.ledger) == 2
        assert replay(read_events(lme_registry.ledger.to_lines())).snapshot() == lme_registry.snapshot()

    def test_a_transfer_leaves_earlier_snapshots_and_certificates_as_they_were(self, lme_registry, lme_cert):
        before = lme_registry.snapshot()
        held = lme_registry.certificate(lme_cert.cert_id)
        moved = lme_registry.transfer(lme_cert.cert_id, "client-2", 10)
        assert before.certificates[lme_cert.cert_id] == held == lme_cert
        assert held.owner == "client-1"
        assert moved == lme_registry.certificate(lme_cert.cert_id) == held._replace(owner="client-2")
        assert lme_registry.snapshot() != before


class TestExpire:
    def test_sweep_after_validity_accrues_to_issuer(self):
        registry, cert = shfe_registry_and_cert()
        result = registry.expire(cert.cert_id, 18251)
        assert registry.certificate(cert.cert_id).status is CertStatus.EXPIRED
        assert result.issuer_accrued_weight == pytest.approx(cert.residual_at(18250), rel=1e-12)

    def test_cannot_expire_inside_the_window(self):
        registry, cert = shfe_registry_and_cert()
        with pytest.raises(StateError):
            registry.expire(cert.cert_id, 100)

    def test_cannot_expire_open_ended_certificates(self, lme_registry, lme_cert):
        with pytest.raises(StateError):
            lme_registry.expire(lme_cert.cert_id, 100000)


def _refusal_registry() -> Registry:
    """LME-copper-0001 open-ended, 0002 valid 100 days, 0003 below the 1000 kg lot, 0004 delivered."""
    registry = Registry()
    registry.register_issuer("LME", [10, 1000])
    for face_weight, validity_days in ((1000, None), (1000, 100), (10, None), (1000, None)):
        registry.issue(
            issuer="LME", material="copper", face_weight=face_weight, purity=0.9999,
            issue_date=LME_ISSUE_DATE, theta=AttenuationSpec(theta_daily=0.99996),
            rules=DeliveryRules(
                delivery_charge_ratio=0.003, withdrawal_charge_ratio=0.002, min_delivery_weight=1000,
                validity_days=validity_days,
            ),
            owner="client-1",
        )
    registry.physical_delivery("LME-copper-0004", 10)
    return registry


OPERATIONS = {
    "quote": lambda registry, cert_id, t: registry.quote_transaction_price(cert_id, MarketQuote(quotation=5.0), t),
    "deliver": lambda registry, cert_id, t: registry.physical_delivery(cert_id, t),
    "buyback": lambda registry, cert_id, t: registry.buyback(cert_id, t, MarketQuote(quotation=5.0)),
    "transfer": lambda registry, cert_id, t: registry.transfer(cert_id, "client-2", t),
    "expire": lambda registry, cert_id, t: registry.expire(cert_id, t),
}
UNKNOWN = (DomainError, "unknown certificate 'LME-copper-0099'")
TERMINAL = (StateError, "certificate LME-copper-0004 is DELIVERED; terminal states are absorbing")
NEGATIVE = (DomainError, "t must be >= 0")
PAST_VALIDITY = (ExpiryError, "certificate LME-copper-0002 expired: day 101 exceeds validity of 100 days")
PAST_CALENDAR = (DomainError, "day 3000000 after 2020-01-01 falls outside the calendar, 0001-01-01 to 9999-12-31")

# (operation, cert_id, t) -> the error type and message a live operation refuses with
LIVE_REFUSALS = {
    **{(op, "LME-copper-0099", 1): UNKNOWN for op in OPERATIONS},
    **{(op, "LME-copper-0004", 20): TERMINAL for op in OPERATIONS},
    **{(op, "LME-copper-0001", -1): NEGATIVE for op in ("quote", "deliver", "buyback", "transfer")},
    **{(op, "LME-copper-0002", 101): PAST_VALIDITY for op in ("quote", "deliver", "buyback")},
    ("deliver", "LME-copper-0003", 1): (LotSizeError, "face weight 10.0 below minimum delivery lot 1000.0"),
    ("deliver", "LME-copper-0003", -1): NEGATIVE,
    ("expire", "LME-copper-0001", -1): (
        StateError, "certificate LME-copper-0001 has not lapsed; cannot expire at day -1"
    ),
    ("expire", "LME-copper-0002", 100): (
        StateError, "certificate LME-copper-0002 has not lapsed; cannot expire at day 100"
    ),
    ("expire", "LME-copper-0002", -1): (
        StateError, "certificate LME-copper-0002 has not lapsed; cannot expire at day -1"
    ),
    ("expire", "LME-copper-0001", 5000): (
        StateError, "certificate LME-copper-0001 has not lapsed; cannot expire at day 5000"
    ),
    # a day is a whole number: a float, even a whole one, and a bool are refused before anything else
    ("transfer", "LME-copper-0001", 2.5): (DomainError, "t must be an integer, got 2.5"),
    ("quote", "LME-copper-0001", 2.0): (DomainError, "t must be an integer, got 2.0"),
    ("deliver", "LME-copper-0001", True): (DomainError, "t must be an integer, got True"),
    # a date past the calendar's last, refused after every other day rule and before any figure is computed
    **{(op, "LME-copper-0002" if op == "expire" else "LME-copper-0001", 3_000_000): PAST_CALENDAR for op in OPERATIONS},
}



def _issue(registry: Registry, face_weight: float = 1000, **changes) -> Certificate:
    terms = {"theta": AttenuationSpec(theta_daily=0.99996), "rules": DeliveryRules(0.003, 0.002, 1000), **changes}
    return registry.issue("LME", "copper", face_weight, 0.9999, LME_ISSUE_DATE, owner="client-1", **terms)


# a library caller's argument that is not of its value type -> the error type and message it is refused with;
# the -after- rows refuse the checks that come first, so the type check keeps its place
LIBRARY_TYPE_REFUSALS = {
    "theta": (lambda registry: _issue(registry, theta=0.9999), DomainError,
              "theta must be an AttenuationSpec, got 0.9999"),
    "rules": (lambda registry: _issue(registry, rules={"delivery_charge_ratio": 0.003}), DomainError,
              "rules must be a DeliveryRules, got {'delivery_charge_ratio': 0.003}"),
    "quote": (lambda registry: registry.quote_transaction_price("LME-copper-0001", 5.0, 3), DomainError,
              "quote must be a MarketQuote, got 5.0"),
    "buyback": (lambda registry: registry.buyback("LME-copper-0001", 3, None), DomainError,
                "quote must be a MarketQuote, got None"),
    "theta-after-denomination": (
        lambda registry: _issue(registry, 7, theta=0.9999), IssuanceError,
        "face weight 7 not offered by LME; denominations: 10.0, 1000.0",
    ),
    "quote-after-legality": (lambda registry: registry.quote_transaction_price("LME-copper-0004", 5.0, 3), *TERMINAL),
    "buyback-after-legality": (lambda registry: registry.buyback("LME-copper-0001", -1, None), *NEGATIVE),
}


class TestLiveRefusals:
    @pytest.mark.parametrize("case", list(LIVE_REFUSALS), ids=lambda case: "-".join(map(str, case)))
    def test_a_refused_operation_raises_its_error_and_records_nothing(self, case):
        registry = _refusal_registry()
        before = registry.snapshot()
        op, cert_id, t = case
        error, message = LIVE_REFUSALS[case]
        with pytest.raises(DCMError) as excinfo:
            OPERATIONS[op](registry, cert_id, t)
        assert (type(excinfo.value), str(excinfo.value)) == (error, message)
        assert len(registry.ledger) == 5
        assert registry.snapshot() == before

    @pytest.mark.parametrize(
        "op, timestamp",
        [("quote", datetime(2020, 1, 4, 12, 30)), ("quote", "2020-01-05"), ("transfer", datetime(2020, 1, 4))],
        ids=["quote-datetime", "quote-text", "transfer-datetime"],
    )
    def test_a_timestamp_that_is_not_a_date_is_refused_and_records_nothing(self, op, timestamp):
        # a datetime would be sealed with its time, which a reader refuses as a bad timestamp
        registry = _refusal_registry()
        before = registry.snapshot()
        with pytest.raises(DomainError) as excinfo:
            if op == "quote":
                registry.quote_transaction_price("LME-copper-0001", MarketQuote(5.0), 3, timestamp=timestamp)
            else:
                registry.transfer("LME-copper-0001", "client-2", 3, timestamp=timestamp)
        assert str(excinfo.value) == f"timestamp must be a date, got {timestamp!r}"
        assert len(registry.ledger) == 5
        assert registry.snapshot() == before

    @pytest.mark.parametrize(
        "owner, timestamp, message",
        [
            ("", datetime(2020, 1, 4), "timestamp must be a date, got datetime.datetime(2020, 1, 4, 0, 0)"),
            (object(), None,
             "payload cannot be recorded as canonical JSON: Object of type object is not JSON serializable"),
        ],
        ids=["empty-owner-datetime", "owner-object"],
    )
    def test_a_transfer_is_sealed_before_its_owner_is_checked(self, owner, timestamp, message):
        registry = _refusal_registry()
        before = registry.snapshot()
        with pytest.raises(DomainError) as excinfo:
            registry.transfer("LME-copper-0001", owner, 3, timestamp=timestamp)
        assert str(excinfo.value) == message
        assert len(registry.ledger) == 5
        assert registry.snapshot() == before

    @pytest.mark.parametrize("case", list(LIBRARY_TYPE_REFUSALS))
    def test_an_argument_of_the_wrong_type_is_a_domain_error_in_its_place(self, case):
        registry = _refusal_registry()
        before = registry.snapshot()
        call, error, message = LIBRARY_TYPE_REFUSALS[case]
        with pytest.raises(DCMError) as excinfo:
            call(registry)
        assert (type(excinfo.value), str(excinfo.value)) == (error, message)
        assert len(registry.ledger) == 5
        assert registry.snapshot() == before

    @pytest.mark.parametrize(
        "case",
        [("transfer", "LME-copper-0002", 101), ("quote", "LME-copper-0003", 1), ("expire", "LME-copper-0002", 101)],
    )
    def test_the_window_and_the_lot_bind_only_their_operations(self, case):
        registry = _refusal_registry()
        op, cert_id, t = case
        OPERATIONS[op](registry, cert_id, t)
        assert len(registry.ledger) == 6


class TestConservation:
    @given(
        face=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
        theta=st.floats(min_value=0.99, max_value=0.999999),
        ratio=st.floats(min_value=1e-4, max_value=0.1),
        t=st.integers(min_value=0, max_value=20000),
    )
    @settings(max_examples=300, deadline=None)
    def test_delivered_plus_charged_equals_residual_exactly(self, face, theta, ratio, t):
        registry = Registry()
        registry.register_issuer("X", [face])
        cert = registry.issue(
            issuer="X", material="m", face_weight=face, purity=1.0,
            issue_date=date(2020, 1, 1), theta=AttenuationSpec(theta_daily=theta),
            rules=DeliveryRules(
                delivery_charge_ratio=ratio, withdrawal_charge_ratio=ratio, min_delivery_weight=face,
            ),
            owner="o",
        )
        result = registry.physical_delivery(cert.cert_id, t)
        assert result.delivered_weight + result.charged_weight == result.residual_weight

    # regime constraint: the charge taken must exceed the docket quantization
    # step (5e-5 weight units), i.e. residual x ratio > 5e-5, otherwise the
    # docket-settled quote can legitimately sit below the delivered value.
    # theta >= 0.999 with t <= 2000 keeps residual >= 0.135 x face, and
    # ratio >= 1e-3 then clears the step with a 2.7x margin.
    @given(
        face=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
        theta=st.floats(min_value=0.999, max_value=0.999999),
        ratio=st.floats(min_value=1e-3, max_value=0.1),
        premium=st.floats(min_value=0.0, max_value=2.0),
        quotation=st.floats(min_value=0.5, max_value=10000.0),
        t=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=300, deadline=None)
    def test_delivery_value_never_exceeds_the_quoted_price(
        self, face, theta, ratio, premium, quotation, t
    ):
        registry = Registry()
        registry.register_issuer("X", [face])
        cert = registry.issue(
            issuer="X", material="m", face_weight=face, purity=1.0,
            issue_date=date(2020, 1, 1), theta=AttenuationSpec(theta_daily=theta),
            rules=DeliveryRules(
                delivery_charge_ratio=ratio, withdrawal_charge_ratio=ratio, min_delivery_weight=face,
            ),
            owner="o",
        )
        quote = registry.quote_transaction_price(
            cert.cert_id, MarketQuote(quotation=quotation, premium=premium), t
        )
        delivery = registry.physical_delivery(cert.cert_id, t)
        assert delivery.delivered_weight * quotation <= quote.price * (1 + 1e-12)


def _random_walk(seed: int, length: int) -> Registry:
    """Drive a registry through a random but legal operation sequence."""
    rng = random.Random(seed)
    registry = Registry()
    registry.register_issuer("X", [1.0, 10.0, 100.0, 1000.0])
    active: list[str] = []
    for _ in range(length):
        op = rng.random()
        if op < 0.35 or not active:
            cert = registry.issue(
                issuer="X",
                material=rng.choice(["copper", "steel"]),
                face_weight=rng.choice([1.0, 10.0, 100.0, 1000.0]),
                purity=rng.uniform(0.5, 1.0),
                issue_date=date(2020, 1, 1),
                theta=AttenuationSpec(theta_daily=rng.uniform(0.99, 0.99999)),
                rules=DeliveryRules(
                    delivery_charge_ratio=rng.uniform(0, 0.01),
                    withdrawal_charge_ratio=rng.uniform(0, 0.01),
                    min_delivery_weight=1.0,
                    validity_days=rng.choice([None, 1000]),
                ),
                owner=f"holder-{rng.randrange(10)}",
            )
            active.append(cert.cert_id)
            continue
        cert_id = rng.choice(active)
        cert = registry.certificate(cert_id)
        limit = cert.rules.validity_days or 1000
        t = rng.randrange(0, limit + 1)
        if op < 0.55:
            registry.transfer(cert_id, f"holder-{rng.randrange(10)}", t)
        elif op < 0.75:
            registry.quote_transaction_price(cert_id, MarketQuote(quotation=rng.uniform(1, 100)), t)
        elif op < 0.85:
            registry.physical_delivery(cert_id, t)
            active.remove(cert_id)
        elif op < 0.95:
            registry.buyback(cert_id, t, MarketQuote(quotation=rng.uniform(1, 100)))
            active.remove(cert_id)
        elif cert.rules.validity_days is not None:
            registry.expire(cert_id, cert.rules.validity_days + 1 + rng.randrange(100))
            active.remove(cert_id)
    return registry


def _with_rules(**fields):
    return lambda form: {**form, "rules": {**form["rules"], **fields}}


def _with_theta(**fields):
    return lambda form: {**form, "theta": {**form["theta"], **fields}}


# the payload form of a theta derived from a tariff and a landed price, which records both
DERIVED_THETA = dcm.registry._theta_to_payload(attenuation_coefficient(
    StorageTariff(daily_warehouse_charge=0.2), CifQuote(price_per_unit=5000.0, as_of=date(2020, 1, 1)),
    ThetaMode.WAREHOUSE_ONLY,
))


def _with_derived_theta(part: str, **fields):
    """An edit that gives the form ``DERIVED_THETA`` with ``fields`` added to its ``part``, "tariff" or "cif"."""
    return lambda form: {**form, "theta": {**DERIVED_THETA, part: {**DERIVED_THETA[part], **fields}}}


HUGE = 10**400  # an int JSON reads exactly, beyond float range
HUGE_SHOWN = "an int of 1329 bits"  # how a refusal names it: an int past 4,300 digits has no repr

# edits of an ISSUE payload (or of a state form, which extends it) that a value
# type refuses: (edit, error type, message)
VALUE_REFUSALS = {
    "delivery-charge-below": (
        _with_rules(delivery_charge_ratio=-0.001), DomainError, "delivery_charge_ratio must lie in [0, 0.1]"
    ),
    "delivery-charge-above": (
        _with_rules(delivery_charge_ratio=0.2), DomainError, "delivery_charge_ratio must lie in [0, 0.1]"
    ),
    "withdrawal-charge-below": (
        _with_rules(withdrawal_charge_ratio=-0.001), DomainError, "withdrawal_charge_ratio must lie in [0, 0.1]"
    ),
    "withdrawal-charge-above": (
        _with_rules(withdrawal_charge_ratio=0.2), DomainError, "withdrawal_charge_ratio must lie in [0, 0.1]"
    ),
    "min-delivery-zero": (_with_rules(min_delivery_weight=0), DomainError, "min_delivery_weight must be > 0"),
    # json.loads reads the token Infinity, so a forged state can hold it; a ledger cannot (not canonical)
    "min-delivery-infinite": (
        _with_rules(min_delivery_weight=json.loads("Infinity")), DomainError,
        "min_delivery_weight must be finite, got inf",
    ),
    "validity-zero": (_with_rules(validity_days=0), DomainError, "validity_days must be > 0 when set"),
    "theta-one": (
        _with_theta(theta_daily=1.0), DerivationError,
        "theta_daily 1.000000 (explicit) outside the open interval (0, 1)",
    ),
    "theta-mode-unknown": (_with_theta(mode="daily"), ValueError, "'daily' is not a valid ThetaMode"),
    # an explicit theta that records a tariff and a landed price, which nothing would check it against
    "theta-explicit-with-inputs": (
        lambda form: {**form, "theta": {**DERIVED_THETA, "mode": "explicit"}}, DomainError,
        "explicit mode carries no derivation inputs",
    ),
    "face-weight-zero": (lambda form: {**form, "face_weight": 0.0}, DomainError, "face_weight must be > 0"),
    "face-weight-text": (
        lambda form: {**form, "face_weight": "five"}, DomainError, "face_weight must be a number, got 'five'"
    ),
    # a weight or a ratio is a JSON number: float() would read true as 1.0 and "1000" as 1000.0
    "face-weight-true": (
        lambda form: {**form, "face_weight": True}, DomainError, "face_weight must be a number, got True"
    ),
    "face-weight-quoted": (
        lambda form: {**form, "face_weight": "1000"}, DomainError, "face_weight must be a number, got '1000'"
    ),
    "purity-true": (lambda form: {**form, "purity": True}, DomainError, "purity must be a number, got True"),
    "delivery-charge-false": (
        _with_rules(delivery_charge_ratio=False), DomainError, "delivery_charge_ratio must be a number, got False"
    ),
    "withdrawal-charge-quoted": (
        _with_rules(withdrawal_charge_ratio="0.002"), DomainError,
        "withdrawal_charge_ratio must be a number, got '0.002'",
    ),
    "min-delivery-true": (
        _with_rules(min_delivery_weight=True), DomainError, "min_delivery_weight must be a number, got True"
    ),
    # an int beyond float range is not finite: float() of it raised a bare OverflowError
    "face-weight-huge": (
        lambda form: {**form, "face_weight": HUGE}, DomainError, f"face_weight must be finite, got {HUGE_SHOWN}"
    ),
    "min-delivery-huge": (
        _with_rules(min_delivery_weight=HUGE), DomainError, f"min_delivery_weight must be finite, got {HUGE_SHOWN}"
    ),
    "theta-huge": (_with_theta(theta_daily=HUGE), DomainError, f"theta_daily must be finite, got {HUGE_SHOWN}"),
    "tariff-charge-true": (
        _with_derived_theta("tariff", daily_warehouse_charge=True), DomainError,
        "daily_warehouse_charge must be a number, got True",
    ),
    "cif-price-quoted": (
        _with_derived_theta("cif", price_per_unit="5000"), DomainError, "price_per_unit must be a number, got '5000'"
    ),
    "cif-material-number": (
        _with_derived_theta("cif", material=5), DomainError, "material must be a string, got 5"
    ),
    # a date is read in YYYY-MM-DD form only, on every Python: 3.11's fromisoformat also reads the others
    **{
        f"{name}-{form}": (edit(text), ValueError, f"Invalid isoformat string: {text!r}")
        for name, edit in (
            ("issue-date", lambda text: lambda issue: {**issue, "issue_date": text}),
            ("cif-as-of", lambda text: _with_derived_theta("cif", as_of=text)),
        )
        for form, text in (("basic", "20200101"), ("week", "2020-W01-3"), ("empty", ""))
    },
    **{
        f"cif-as-of-{value!r}": (
            _with_derived_theta("cif", as_of=value), TypeError, "fromisoformat: argument must be str"
        )
        for value in (0, False)
    },
    "location-number": (_with_rules(delivery_location=7), DomainError, "delivery_location must be a string, got 7"),
    "validity-fraction": (
        _with_rules(validity_days=2.5), DomainError, "validity_days must be an integer, got 2.5"
    ),
    "validity-boolean": (
        _with_rules(validity_days=True), DomainError, "validity_days must be an integer, got True"
    ),
    "issuer-number": (lambda form: {**form, "issuer": 5}, DomainError, "issuer must be a non-empty string, got 5"),
    "issuer-empty": (lambda form: {**form, "issuer": ""}, DomainError, "issuer must be a non-empty string, got ''"),
    "material-empty": (
        lambda form: {**form, "material": ""}, DomainError, "material must be a non-empty string, got ''"
    ),
    "weight-unit-number": (
        lambda form: {**form, "weight_unit": 1}, DomainError, "weight_unit must be a string, got 1"
    ),
}

# edits of an ISSUE payload (or of a state form) that add a key its nested terms do not have: (edit, message)
NESTED_KEY_REFUSALS = {
    "rules-extra-key": (_with_rules(memo=1), "rules keys: missing [], unexpected ['memo']"),
    "theta-extra-key": (_with_theta(memo=1), "theta keys: missing [], unexpected ['memo']"),
    "tariff-extra-key": (_with_derived_theta("tariff", memo=1), "tariff keys: missing [], unexpected ['memo']"),
    "cif-extra-key": (_with_derived_theta("cif", memo=1), "cif keys: missing [], unexpected ['memo']"),
}

# correctly sealed events that replay must refuse, each following the fixture's
# ISSUE of LME-copper-0001 as edited in ISSUE_EDITS: (kind, cert_id, payload
# built from that ISSUE's payload, the refusal's message after "seq 2: ")
SEALED_REFUSALS = {
    "duplicate-issue": (
        EventKind.ISSUE, "LME-copper-0001", lambda issue: issue,
        "ISSUE refused: IssuanceError: certificate 'LME-copper-0001' already exists",
    ),
    "issue-purity-above-one": (
        EventKind.ISSUE, "LME-copper-0002", lambda issue: {**issue, "purity": 1.5},
        "ISSUE refused: DomainError: purity must lie in (0, 1]",
    ),
    "issue-without-rules": (
        EventKind.ISSUE, "LME-copper-0002", lambda issue: {k: v for k, v in issue.items() if k != "rules"},
        "ISSUE refused: KeyError: 'rules'",
    ),
    "unknown-certificate": (
        EventKind.DELIVER, "LME-copper-0009", lambda issue: {"t": 1},
        "DELIVER refused: DomainError: unknown certificate 'LME-copper-0009'",
    ),
    "transfer-without-to-owner": (
        EventKind.TRANSFER, "LME-copper-0001", lambda issue: {"t": 1, "from_owner": "client-1"},
        "TRANSFER refused: KeyError: 'to_owner'",
    ),
    "issue-owner-not-a-string": (
        EventKind.ISSUE, "LME-copper-0002", lambda issue: {**issue, "owner": ["a", 1]},
        "ISSUE refused: DomainError: owner must be a non-empty string, got ['a', 1]",
    ),
    "issue-empty-owner": (
        EventKind.ISSUE, "LME-copper-0002", lambda issue: {**issue, "owner": ""},
        "ISSUE refused: DomainError: owner must be a non-empty string, got ''",
    ),
    "transfer-to-owner-not-a-string": (
        EventKind.TRANSFER, "LME-copper-0001", lambda issue: {"t": 1, "from_owner": "client-1", "to_owner": ["a", 1]},
        "TRANSFER refused: DomainError: owner must be a non-empty string, got ['a', 1]",
    ),
    "transfer-from-someone-else": (
        EventKind.TRANSFER, "LME-copper-0001", lambda issue: {"t": 1, "from_owner": "client-2", "to_owner": "b"},
        "TRANSFER refused: StateError: certificate LME-copper-0001 is owned by 'client-1', not 'client-2'",
    ),
    **{
        f"issue-{name}": (EventKind.ISSUE, "LME-copper-0002", edit, f"ISSUE refused: {error.__name__}: {message}")
        for name, (edit, error, message) in VALUE_REFUSALS.items()
        if name != "min-delivery-infinite"
    },
    "deliver-past-validity": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": 5000, "residual_weight": 818.0, "delivered_weight": 1636.0, "charged_weight": -7},
        "DELIVER refused: ExpiryError: certificate LME-copper-0001 expired: day 5000 exceeds validity of 100 days",
    ),
    "quote-empty": (EventKind.QUOTE, "LME-copper-0001", lambda issue: {}, "QUOTE refused: KeyError: 't'"),
    "expire-before-lapse": (
        EventKind.EXPIRE, "LME-copper-0001", lambda issue: {"t": 3, "issuer_accrued_weight": 999.0},
        "EXPIRE refused: StateError: certificate LME-copper-0001 has not lapsed; cannot expire at day 3",
    ),
    "buyback-cash-only": (
        EventKind.BUYBACK, "LME-copper-0001", lambda issue: {"t": 1, "cash": 1e12},
        "BUYBACK refused: ParseError: payload keys: missing "
        "['buyback_weight', 'charged_weight', 'docket_weight', 'quotation', 'residual_weight'], unexpected []",
    ),
    "deliver-below-lot": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": 1, "residual_weight": 999.96, "delivered_weight": 996.96, "charged_weight": 3.0},
        "DELIVER refused: LotSizeError: face weight 1000.0 below minimum delivery lot 5000.0",
    ),
    "transfer-negative-day": (
        EventKind.TRANSFER, "LME-copper-0001", lambda issue: {"t": -1, "from_owner": "client-1", "to_owner": "b"},
        "TRANSFER refused: DomainError: t must be >= 0",
    ),
    "expire-open-ended": (
        EventKind.EXPIRE, "LME-copper-0001", lambda issue: {"t": 5000, "issuer_accrued_weight": 818.0},
        "EXPIRE refused: StateError: certificate LME-copper-0001 has not lapsed; cannot expire at day 5000",
    ),
    "issue-extra-key": (
        EventKind.ISSUE, "LME-copper-0002", lambda issue: {**issue, "memo": "x"},
        "ISSUE refused: ParseError: payload keys: missing [], unexpected ['memo']",
    ),
    **{
        f"issue-{name}": (EventKind.ISSUE, "LME-copper-0002", edit, f"ISSUE refused: ParseError: {message}")
        for name, (edit, message) in NESTED_KEY_REFUSALS.items()
    },
    "deliver-fractional-day": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": 2.5, "residual_weight": 999.9, "delivered_weight": 996.9, "charged_weight": 3.0},
        "DELIVER refused: DomainError: t must be an integer, got 2.5",
    ),
    "deliver-boolean-day": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": True, "residual_weight": 999.96, "delivered_weight": 996.96, "charged_weight": 3.0},
        "DELIVER refused: DomainError: t must be an integer, got True",
    ),
    "deliver-huge-day": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": 1e300, "residual_weight": 0.0, "delivered_weight": 0.0, "charged_weight": 0.0},
        "DELIVER refused: DomainError: t must be an integer, got 1e+300",
    ),
    # the event's date would pass 9999-12-31: the live operation could not date it
    "deliver-off-calendar": (
        EventKind.DELIVER, "LME-copper-0001",
        lambda issue: {"t": 3_000_000, "residual_weight": 0.0, "delivered_weight": 0.0, "charged_weight": 0.0},
        "DELIVER refused: DomainError: day 3000000 after 2020-01-01 falls outside the calendar, "
        "0001-01-01 to 9999-12-31",
    ),
    "quote-off-calendar": (
        EventKind.QUOTE, "LME-copper-0001",
        lambda issue: {
            "t": 3_000_000, "residual_weight": 0.0, "docket_weight": 0.0, "quotation": 5.0, "premium": 0.0,
            "price": 0.0,
        },
        "QUOTE refused: DomainError: day 3000000 after 2020-01-01 falls outside the calendar, "
        "0001-01-01 to 9999-12-31",
    ),
}

# the fixture's ISSUE payload as the SEALED_REFUSALS cases that need another certificate edit it
ISSUE_EDITS = {
    "deliver-past-validity": _with_rules(validity_days=100),
    "expire-before-lapse": _with_rules(validity_days=100),
    "deliver-below-lot": _with_rules(min_delivery_weight=5000),
    "deliver-huge-day": _with_rules(validity_days=100),  # a window the day would be past, were it a day
}


def sealed_refusal_lines(issue: LedgerEvent, case: str) -> list[str]:
    """The wire lines of ``issue`` as ISSUE_EDITS edits it for ``case``, then the case's forged event."""
    kind, cert_id, payload_of, _ = SEALED_REFUSALS[case]
    payload = ISSUE_EDITS.get(case, dict)(issue.payload)
    ledger = Ledger()
    ledger.append(issue.kind, issue.cert_id, payload, issue.timestamp)
    ledger.append(kind, cert_id, payload_of(payload), date(2020, 2, 1))
    return ledger.to_lines()


class TestReplay:
    def test_empty_stream_gives_an_empty_registry(self):
        rebuilt = replay(read_events([]))
        assert rebuilt.certificates == {}
        assert rebuilt.snapshot().last_seq == 0

    def test_issue_and_deliver_round_trip(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        rebuilt = replay(read_events(lme_registry.ledger.to_lines()))
        assert rebuilt.snapshot() == lme_registry.snapshot()
        assert rebuilt.certificate(lme_cert.cert_id).status is CertStatus.DELIVERED

    def test_mutated_payload_byte_is_an_integrity_error_at_that_seq(self, lme_registry, lme_cert):
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        lines = lme_registry.ledger.to_lines()
        position = lines[1].index('"t"') + 1
        mutated = lines[1][:position] + "x" + lines[1][position + 1 :]
        with pytest.raises(LedgerIntegrityError) as excinfo:
            replay(read_events([lines[0], mutated]))
        assert excinfo.value.seq == 2

    def test_randomized_walks_replay_to_identical_state(self):
        for seed in range(25):
            registry = _random_walk(seed, length=rng_length(seed))
            rebuilt = replay(read_events(registry.ledger.to_lines()))
            assert rebuilt.snapshot() == registry.snapshot()

    def test_terminal_states_absorb_replayed_events_too(self, lme_registry, lme_cert):
        # hand-build a stream that delivers twice; replay must refuse it
        lme_registry.physical_delivery(lme_cert.cert_id, 365)
        lme_registry.ledger.append(EventKind.DELIVER, lme_cert.cert_id, {"t": 400}, date(2021, 2, 1))
        with pytest.raises(LedgerIntegrityError):
            replay(read_events(lme_registry.ledger.to_lines()))

    def test_replayed_registry_continues_the_issue_counter(self, lme_registry, lme_cert, lme_rules):
        rebuilt = replay(read_events(lme_registry.ledger.to_lines()))
        assert rebuilt.snapshot().issue_counts == lme_registry.snapshot().issue_counts == {("LME", "copper"): 1}
        rebuilt.register_issuer("LME", [1, 10, 100, 1000])
        again = rebuilt.issue(
            issuer="LME",
            material="copper",
            face_weight=1000,
            purity=0.9999,
            issue_date=LME_ISSUE_DATE,
            theta=AttenuationSpec(theta_daily=0.99996),
            rules=lme_rules,
            owner="client-2",
        )
        assert again.cert_id == "LME-copper-0002"

    @pytest.mark.parametrize("case", sorted(SEALED_REFUSALS))
    def test_sealed_illegal_event_is_an_integrity_error_at_its_seq(self, lme_registry, lme_cert, case):
        lines = sealed_refusal_lines(lme_registry.ledger.events[0], case)
        with pytest.raises(LedgerIntegrityError) as excinfo:
            replay(read_events(lines))
        assert excinfo.value.seq == 2
        assert str(excinfo.value) == f"seq 2: {SEALED_REFUSALS[case][-1]}"
        assert replay(read_events(lines[:1])).snapshot().last_seq == 1  # the edited ISSUE itself replays

    def test_replay_checks_continuity_of_events_it_did_not_parse(self, lme_registry, lme_cert):
        lme_registry.transfer(lme_cert.cert_id, "client-2", 10)
        lme_registry.transfer(lme_cert.cert_id, "client-3", 20)
        first, second, third = lme_registry.ledger.events
        with pytest.raises(LedgerIntegrityError) as gap:
            replay([first, third])
        assert gap.value.seq == 3
        with pytest.raises(LedgerIntegrityError) as chain_break:
            replay([first, second._replace(prev_hash="f" * 64)])
        assert chain_break.value.seq == 2


def _every_kind() -> Registry:
    """A live ledger of every event kind: three certificates valid 100 days, with a derived full-cost theta.

    The first is quoted at a negative premium, transferred and delivered; the
    second is bought back; the third expires at day 101.
    """
    registry = Registry()
    registry.register_issuer("LME", [1, 1000])
    theta = attenuation_coefficient(
        StorageTariff(daily_warehouse_charge=0.2, outbound_transfer_charge=0.7, bank_rate=0.0365),
        CifQuote(price_per_unit=5000.0, material="copper", location="Rotterdam", as_of=date(2020, 1, 1)),
        ThetaMode.FULL_COST,
    )
    rules = DeliveryRules(0.003, 0.002, 1000, "LME designated warehouse", validity_days=100)
    first, second, third = (
        registry.issue("LME", "copper", 1000, 0.9999, LME_ISSUE_DATE, theta, rules, "client-1").cert_id
        for _ in range(3)
    )
    registry.quote_transaction_price(first, MarketQuote(5000.0, -12.5), 30)
    registry.transfer(first, "client-2", 31)
    registry.physical_delivery(first, 60)
    registry.buyback(second, 90, MarketQuote(5100.0))
    registry.expire(third, 101)
    return registry


# the SHA-256 of each ledger's text, one line per event: any change to a payload's keys, figures or encoding shows
WIRE_DIGESTS = {
    "every-kind": "cb7bde76dc8acb3575c2311de8ab2aecfb1e51d92da6bedc3785fd1c8eb950d9",
    "lme_copper": "452702c6a61fa371d15e41262c5cef2f4d91e7dc79bed182545573e489678eed",
    "shfe_steel": "adc028aa1c45ae83e336ed1641da5a4f9dcb3fd29509487dc0d42b38c53f972d",
}


@pytest.mark.parametrize("source", list(WIRE_DIGESTS))
def test_every_event_kind_writes_the_pinned_bytes(source):
    if source == "every-kind":
        registry = _every_kind()
        assert {event.kind for event in registry.ledger.events} == set(EventKind)
    else:
        registry = run_scenario(load_scenario(bundled_scenario_path(source)))[1]
    text = "".join(line + "\n" for line in registry.ledger.to_lines())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WIRE_DIGESTS[source]


def rng_length(seed: int) -> int:
    return random.Random(10_000 + seed).randrange(1, 200)


class TestState:
    def test_a_certificate_form_is_its_issue_payload_plus_status(self, lme_registry, lme_cert):
        [line] = lme_registry.state_lines()
        cert_id, form = json.loads(line)
        assert cert_id == lme_cert.cert_id
        assert form == {**lme_registry.ledger.events[0].payload, "status": "ACTIVE"}

    def test_restored_registry_continues_like_the_replayed_one(self):
        registry = _random_walk(7, 120)
        events = registry.ledger.events
        head = events[59]
        partial = replay(events[:60])
        state = b"".join(partial.state_pieces())
        restored = Registry.from_state(state, partial.issue_counts(), head.seq, head.hash, source="state.ckpt")
        restored.apply_events(events[60:])
        assert restored.snapshot() == registry.snapshot()
        assert restored.ledger.events == () and len(restored.ledger) == restored.ledger.last_seq == events[-1].seq

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda form: {**form, "purity": 1.5}, DomainError, "purity must lie in (0, 1]"),
            (lambda form: {**form, "owner": ["a", 1]}, DomainError, "owner must be a non-empty string, got ['a', 1]"),
            (lambda form: {**form, "status": "LOST"}, ValueError, "'LOST' is not a valid CertStatus"),
            (lambda form: {k: v for k, v in form.items() if k != "rules"}, KeyError, "'rules'"),
            *VALUE_REFUSALS.values(),
            *((edit, ParseError, message) for edit, message in NESTED_KEY_REFUSALS.values()),
            (lambda form: {**form, "memo": 1}, ParseError, "state keys: missing [], unexpected ['memo']"),
        ],
        ids=["purity", "owner", "status", "no-rules", *VALUE_REFUSALS, *NESTED_KEY_REFUSALS, "state-extra-key"],
    )
    def test_a_state_line_is_revalidated_when_first_read(self, lme_registry, lme_cert, edit, error, message):
        [(cert_id, form)] = map(json.loads, lme_registry.state_lines())
        line = json.dumps([cert_id, edit(form)], separators=(",", ":"))  # a forged line may hold Infinity
        restored = Registry.from_state(f"{line}\n".encode(), [["LME", "copper", 1]], 1, "0" * 64, source="state.ckpt")
        assert restored.state_lines() == [line]
        with pytest.raises(LedgerIntegrityError) as excinfo:
            restored.certificate(cert_id)
        assert str(excinfo.value) == (
            f"certificate {cert_id!r} in state.ckpt does not build: {error.__name__}: {message}"
        )

    def test_a_state_line_must_hold_its_own_id(self, lme_registry, lme_cert):
        # a line is found by the cert_id it opens with, and only for an id in the cert_id charset
        [line] = lme_registry.state_lines()
        state = f"{line}\n".encode()
        restored = Registry.from_state(state, [["LME", "copper", 1]], 1, "0" * 64, source="state.ckpt")
        for cert_id in ("LME-copper-0002", "LME-copper-000", 'LME-copper-0001"', "LME-copper-0001\n", HUGE, 1.5, None):
            with pytest.raises(DomainError, match="^unknown certificate "):
                restored.certificate(cert_id)
        assert restored.certificate(lme_cert.cert_id) == lme_cert


def _write_lines(path, lines) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))


def _count_one_more(header: dict) -> dict:
    """``header`` with its first issue counter, that of the first state line's certificate, raised by one."""
    (issuer, material, n), *rest = header["issue_counts"]
    return {**header, "issue_counts": [[issuer, material, n + 1], *rest]}


def _checkpointed(tmp_path, lines) -> LedgerFile:
    """A ledger file holding ``lines`` with a checkpoint sidecar written for it."""
    ledger_file = LedgerFile(tmp_path / "ledger.log")
    _write_lines(ledger_file.path, lines)
    ledger_file.write_checkpoint(ledger_file.load())
    return ledger_file


def _state(registry: Registry) -> tuple:
    return registry.snapshot(), registry.state_lines(), registry.issue_counts()


def _written_for(covered: int, path) -> str:
    """Why a sidecar written for ``covered`` bytes of the ledger file at ``path`` is ignored, if that is not its size."""
    return f"it was written for {covered} bytes of the ledger file, which holds {path.stat().st_size}"


@pytest.fixture
def built(monkeypatch) -> list[str]:
    """The cert_id of each certificate built from a payload or a state line, in order; clear it to start."""
    ids = []
    build = dcm.registry._cert_from_payload
    monkeypatch.setattr(dcm.registry, "_cert_from_payload", lambda cert_id, *args: ids.append(cert_id) or
                        build(cert_id, *args))
    return ids


class TestCheckpoint:
    def test_a_sidecar_for_fewer_lines_than_the_file_means_a_full_replay(self, tmp_path):
        registry = _random_walk(3, 150)
        lines = registry.ledger.to_lines()
        ledger_file = _checkpointed(tmp_path, lines[:100])
        covered = ledger_file.path.stat().st_size
        _write_lines(ledger_file.path, lines[100:])
        warning = _written_for(covered, ledger_file.path)
        expected = _state(replay(read_events(lines)))
        # a stale sidecar is not compared either: its forged line would fail the compare
        forge_sidecar(ledger_file.sidecar, lambda state: [state[0].replace('"holder-', '"Holder-', 1), *state[1:]])
        for read in (ledger_file.load, ledger_file.verify):
            rebuilt = read()
            assert ledger_file.ignored == warning
            assert _state(rebuilt) == expected
            assert rebuilt.ledger.events == () and len(rebuilt.ledger) == rebuilt.ledger.last_seq == len(lines)

    def test_checkpoint_after_an_append_covers_the_appended_events(self, tmp_path, lme_registry, lme_cert):
        ledger_file = _checkpointed(tmp_path, lme_registry.ledger.to_lines())
        registry = ledger_file.load()
        registry.transfer(lme_cert.cert_id, "client-2", 10)
        ledger_file.append(registry.ledger.events)
        ledger_file.write_checkpoint(registry)
        resumed = ledger_file.load()
        assert ledger_file.ignored is None
        assert resumed.ledger.events == () and len(resumed.ledger) == resumed.ledger.last_seq == 2
        assert resumed.certificate(lme_cert.cert_id).owner == "client-2"
        assert resumed.snapshot() == replay(read_events(ledger_file.path.read_text().splitlines())).snapshot()
        ledger_file.verify()

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda ledger_file: ledger_file.sidecar.write_bytes(b"\x00\xffnot a checkpoint"),
            lambda ledger_file: ledger_file.sidecar.write_bytes(ledger_file.sidecar.read_bytes()[:-40]),
            lambda ledger_file: ledger_file.path.write_text(ledger_file.path.read_text().replace("holder", "Holder", 1)),
            lambda ledger_file: ledger_file.path.write_text(ledger_file.path.read_text().split("\n", 1)[0] + "\n"),
            lambda ledger_file: _write_lines(ledger_file.path, [""]),
            lambda ledger_file: forge_sidecar(
                ledger_file.sidecar, lambda state: [line.replace('"ACTIVE"', '"LOST"') for line in state]
            ),
            lambda ledger_file: forge_sidecar(ledger_file.sidecar, lambda state: state + ["[1]"]),
            lambda ledger_file: forge_sidecar(ledger_file.sidecar, lambda state: [",".join(state[:2]), *state[2:]]),
        ],
        ids=["garbled", "truncated", "prefix-changed", "older-ledger", "bad-tail", "invalid-state", "unreadable-state",
             "two-pairs-on-a-line"],
    )
    def test_an_unusable_sidecar_means_a_full_replay(self, tmp_path, spoil):
        registry = _random_walk(5, 40)
        ledger_file = _checkpointed(tmp_path, registry.ledger.to_lines())
        spoil(ledger_file)
        lines = ledger_file.path.read_text(encoding="utf-8").splitlines()
        try:
            expected = replay(read_events(lines)).snapshot()
        except LedgerIntegrityError as exc:
            expected = str(exc)
        # the load builds this certificate, as a command that names it does
        touched = next(cert_id for cert_id, cert in registry.certificates.items() if cert.status is CertStatus.ACTIVE)
        try:
            loaded = ledger_file.load(touch=(touched,)).snapshot()
        except LedgerIntegrityError as exc:
            loaded = str(exc)
        assert loaded == expected
        assert ledger_file.ignored

    def test_a_sidecar_for_more_lines_than_the_file_means_a_full_replay(self, tmp_path):
        # an older ledger file restored under a newer sidecar, as at the start of each benchmark round
        lines = _random_walk(5, 40).ledger.to_lines()
        ledger_file = _checkpointed(tmp_path, lines)
        covered = ledger_file.path.stat().st_size
        ledger_file.path.write_text("".join(line + "\n" for line in lines[:20]), encoding="utf-8")
        warning = _written_for(covered, ledger_file.path)
        expected = _state(replay(read_events(lines[:20])))
        for read in (ledger_file.load, ledger_file.verify):
            assert _state(read()) == expected
            assert ledger_file.ignored == warning

    def test_a_file_that_ends_inside_a_line_is_not_loaded_even_with_a_sidecar_for_the_lines_before_it(
        self, tmp_path, lme_registry, lme_cert
    ):
        # the last line is a whole event but for its newline: an append would run into it
        lme_registry.transfer(lme_cert.cert_id, "client-2", 10)
        first, last = lme_registry.ledger.to_lines()
        ledger_file = _checkpointed(tmp_path, [first])
        ledger_file.path.write_text(f"{first}\n{last}", encoding="utf-8")
        before = ledger_file.path.read_bytes(), ledger_file.sidecar.read_bytes()
        with pytest.raises(LedgerIntegrityError, match="^line 2: the ledger file ends inside this line, which has no "
                                                       "final newline"):
            ledger_file.load(touch=(lme_cert.cert_id,))
        assert (ledger_file.path.read_bytes(), ledger_file.sidecar.read_bytes()) == before

    def test_a_load_over_a_sidecar_for_fewer_lines_builds_every_certificate_from_the_ledger(self, tmp_path, built):
        registry = _random_walk(5, 40)
        lines = registry.ledger.to_lines()
        ledger_file = _checkpointed(tmp_path, lines[:30])
        covered = ledger_file.path.stat().st_size
        _write_lines(ledger_file.path, lines[30:])
        built.clear()
        loaded = ledger_file.load()
        assert ledger_file.ignored == _written_for(covered, ledger_file.path)
        assert built == list(registry.certificates)  # each from its ISSUE, in issue order: no state line is read
        assert loaded.snapshot() == registry.snapshot()

    def test_a_resumed_load_builds_only_the_certificates_it_names(self, tmp_path, built):
        registry = _random_walk(5, 40)
        ledger_file = _checkpointed(tmp_path, registry.ledger.to_lines())
        named = list(registry.certificates)[1::3]
        built.clear()
        resumed = ledger_file.load(touch=named)
        assert ledger_file.ignored is None
        assert built == named
        assert resumed.snapshot() == registry.snapshot()

    def test_a_resumed_issue_numbers_like_a_full_replay(self, tmp_path, built):
        registry = _random_walk(5, 40)
        ledger_file = _checkpointed(tmp_path, registry.ledger.to_lines())
        built.clear()
        resumed = ledger_file.load()
        issue = dict(
            issuer="X", material="steel", face_weight=1.0, purity=1.0, issue_date=date(2020, 1, 1),
            theta=AttenuationSpec(theta_daily=0.999), rules=DeliveryRules(0.0, 0.0, 1.0), owner="holder-1",
        )
        for each in (resumed, registry):
            each.register_issuer("X", [1.0])
        cert_id = resumed.issue(**issue).cert_id
        assert built == [cert_id]
        assert cert_id == registry.issue(**issue).cert_id
        assert resumed.snapshot() == registry.snapshot()

    def test_an_untouched_forged_line_fails_when_first_read(self, tmp_path):
        registry = _random_walk(5, 40)
        ledger_file = _checkpointed(tmp_path, registry.ledger.to_lines())
        forged = next(cert_id for cert_id, cert in registry.certificates.items() if cert.status is CertStatus.ACTIVE)
        forge_sidecar(ledger_file.sidecar, lambda state: [
            line.replace('"ACTIVE"', '"LOST"') if line.startswith(f'["{forged}",') else line for line in state
        ])
        resumed = ledger_file.load()
        assert ledger_file.ignored is None
        with pytest.raises(LedgerIntegrityError, match=f"certificate '{forged}' in .*ledger.log.ckpt does not build"):
            resumed.snapshot()
        # the lines built before the forged one keep their places
        assert resumed.state_lines() == ledger_file.sidecar.read_text(encoding="utf-8").splitlines()[1:]
        with pytest.raises(LedgerIntegrityError, match="checkpoint disagrees with the ledger at seq 40"):
            ledger_file.verify()

    @pytest.mark.parametrize(
        "extra, error",
        [
            # the first line again, with its counter raised to match
            (lambda state: state[:1], "certificate '{first}' in {sidecar} repeats at state line {line}"),
            (lambda state: ["[1]"], "state line {line} in {sidecar} does not open with a cert_id"),
            (lambda state: [f"[\"#{state[0][2:]}"], "state line {line} in {sidecar} does not open with a cert_id"),
        ],
        ids=["repeated-line", "number-for-id", "id-outside-the-charset"],
    )
    def test_a_line_of_the_wrong_shape_is_found_when_every_certificate_is_read(self, tmp_path, extra, error):
        # a line is not checked for its shape up front: a command that names another certificate resumes
        registry = _random_walk(5, 40)
        ledger_file = _checkpointed(tmp_path, registry.ledger.to_lines())
        forge_sidecar(ledger_file.sidecar, lambda state: state + extra(state), _count_one_more)
        *_, touched = (cert_id for cert_id, cert in registry.certificates.items() if cert.status is CertStatus.ACTIVE)
        resumed = ledger_file.load(touch=(touched,))
        assert ledger_file.ignored is None
        assert resumed.certificate(touched) == registry.certificate(touched)
        with pytest.raises(LedgerIntegrityError) as excinfo:
            resumed.snapshot()
        first, line = next(iter(registry.certificates)), len(registry.certificates) + 1
        assert str(excinfo.value) == error.format(first=first, sidecar=ledger_file.sidecar, line=line)
        with pytest.raises(LedgerIntegrityError, match="^checkpoint disagrees with the ledger at seq 40$"):
            ledger_file.verify()

    @pytest.mark.parametrize(
        "events, fields",
        [
            (0, {"prefix_bytes": False}),
            (1, {"version": 1}),
            (1, {"issue_counts": None}),
            (1, {"issue_counts": [["LME", "copper", True]]}),
            (1, {"issue_counts": [["LME", "copper", 1.0]]}),
            (1, {"issue_counts": [["", "copper", 1]]}),
            (1, {"issue_counts": [["LME", None, 1]]}),
            (1, {"issue_counts": [["LME", "copper"]]}),
            (1, {"issue_counts": [["LME", "copper", 2]]}),
            (2, {"issue_counts": [["LME", "copper", 1], ["LME", "copper", 1]]}),
            (2, {"issue_counts": [["LME", "copper", 2], ["LME", "steel", 0]]}),
        ],
        ids=["prefix-bytes-false", "version-1", "no-counters", "count-true",
             "count-float", "empty-issuer", "material-null", "count-missing", "count-wrong", "pair-repeated",
             "count-zero"],
    )
    def test_a_malformed_header_means_a_full_replay(self, tmp_path, lme_registry, lme_cert, events, fields):
        # the sidecar is written for the whole file, so only the forged field can refuse it
        lme_registry.issue("LME", "copper", 1000, 0.9999, LME_ISSUE_DATE, lme_cert.theta, lme_cert.rules, "client-2")
        lines = lme_registry.ledger.to_lines()[:events]
        ledger_file = _checkpointed(tmp_path, lines)
        header, state = ledger_file.sidecar.read_bytes().split(b"\n", 1)
        forged = canonical_payload({**json.loads(header), **fields})
        ledger_file.sidecar.write_bytes(forged.encode("utf-8") + b"\n" + state)
        assert ledger_file.load().snapshot() == replay(read_events(lines)).snapshot()
        assert ledger_file.ignored

    @pytest.mark.parametrize(
        "events, fields",
        [(2, {"issue_counts": [["LMX", "copper", 2]]})],
        ids=["renamed-issuer"],
    )
    def test_a_forged_header_field_with_the_digests_kept_means_a_full_replay(
        self, tmp_path, lme_registry, lme_cert, events, fields
    ):
        lme_registry.issue("LME", "copper", 1000, 0.9999, LME_ISSUE_DATE, lme_cert.theta, lme_cert.rules, "client-2")
        lines = lme_registry.ledger.to_lines()[:events]
        ledger_file = _checkpointed(tmp_path, lines)
        header, state = ledger_file.sidecar.read_bytes().split(b"\n", 1)
        forged = canonical_payload({**json.loads(header), **fields})
        ledger_file.sidecar.write_bytes(forged.encode("utf-8") + b"\n" + state)
        assert ledger_file.load().snapshot() == replay(read_events(lines)).snapshot()
        assert ledger_file.ignored


def _rebuilt(tmp_path, how: str, lines: list[str]) -> Registry:
    """The registry of ``lines`` rebuilt ``how``; a ledger file's checkpoint sidecar is written for the whole file."""
    if how == "replay":
        return replay(read_events(lines))
    ledger_file = _checkpointed(tmp_path, lines)
    if how == "full-load":
        ledger_file.sidecar.unlink()
        return ledger_file.load()
    rebuilt = ledger_file.load() if how == "resumed-load" else ledger_file.verify()
    assert ledger_file.ignored is None
    return rebuilt


class TestStateNotHistory:
    """A registry rebuilt from a ledger holds its state and the chain's head, not the events it applied."""

    @pytest.mark.parametrize("how", ["replay", "full-load", "resumed-load", "verify"])
    def test_a_rebuilt_registry_holds_only_the_events_appended_to_it(self, tmp_path, how):
        live = _random_walk(3, 150)
        lines = live.ledger.to_lines()
        rebuilt = _rebuilt(tmp_path, how, lines)
        assert rebuilt.snapshot() == live.snapshot()
        assert rebuilt.ledger.events == () and rebuilt.ledger.to_lines() == []
        assert len(rebuilt.ledger) == rebuilt.ledger.last_seq == len(lines)
        cert_id = next(cert_id for cert_id, cert in live.certificates.items() if cert.status is CertStatus.ACTIVE)
        for registry in (live, rebuilt):
            registry.transfer(cert_id, "holder-x", 1)
        [event] = rebuilt.ledger.events
        assert event == live.ledger.events[-1]
        assert len(rebuilt.ledger) == event.seq == len(lines) + 1
        assert rebuilt.ledger.to_lines() == [event.line]

    def test_a_replay_leaves_no_event_alive(self):
        lines = _random_operations(random.Random(0x5EED06), 1000).ledger.to_lines()  # the live registry is dropped
        replayed = replay(read_events(lines))
        gc.collect()
        replayed_lines = set(lines)
        alive = [obj for obj in gc.get_objects() if isinstance(obj, LedgerEvent) and obj.line in replayed_lines]
        assert alive == []
        assert len(replayed.ledger) == replayed.ledger.last_seq == len(lines)


class TestPaperFormat:
    def test_export_has_the_printed_metadata(self, lme_cert):
        text = export_certificate(lme_cert)
        assert "code: LME-copper-0001" in text
        assert "theta: 0.999960" in text
        assert "issue_date: 2020-01-01" in text
        assert "validity_days: none" in text


def _certificate(face_weight: float) -> Certificate:
    return Certificate(
        cert_id="X-1",
        issuer="X",
        material="tin",
        face_weight=face_weight,
        purity=1.0,
        issue_date=LME_ISSUE_DATE,
        theta=AttenuationSpec(theta_daily=0.999),
        rules=DeliveryRules(delivery_charge_ratio=0.0, withdrawal_charge_ratio=0.0, min_delivery_weight=1.0),
        owner="a",
    )


def _logistics(**override: float) -> LogisticsParams:
    fields = dict(
        ordering_cost=1.0, annual_demand=1.0, purchase_price=1.0, unit_warehouse_cost=1.0,
        transport_cost=1.0, transit_days=1.0, bank_rate=0.01, order_quantity=1.0,
    )
    return LogisticsParams(**{**fields, **override})


NUMERIC_INPUTS = {
    "MarketQuote.quotation": lambda x: MarketQuote(quotation=x),
    "MarketQuote.premium": lambda x: MarketQuote(quotation=1.0, premium=x),
    "Certificate.face_weight": _certificate,
    "DeliveryRules.min_delivery_weight": lambda x: DeliveryRules(
        delivery_charge_ratio=0.0, withdrawal_charge_ratio=0.0, min_delivery_weight=x
    ),
    "StorageTariff.daily_warehouse_charge": lambda x: StorageTariff(daily_warehouse_charge=x),
    "StorageTariff.outbound_transfer_charge": lambda x: StorageTariff(0.1, outbound_transfer_charge=x),
    "StorageTariff.bank_rate": lambda x: StorageTariff(0.1, bank_rate=x),
    "CifQuote.price_per_unit": lambda x: CifQuote(price_per_unit=x),
    "residual_weight.face_weight": lambda x: residual_weight(x, 0.999, 10),
    "Registry.register_issuer": lambda x: Registry().register_issuer("X", [1.0, x]),
    "PriceSeries.price": lambda x: PriceSeries("copper", "USD", ((LME_ISSUE_DATE, x),)),
    **{
        f"LogisticsParams.{name}": (lambda name: lambda x: _logistics(**{name: x}))(name)
        for name in _logistics()._fields
    },
}


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), HUGE], ids=["nan", "inf", "-inf", "beyond-float"]
)
@pytest.mark.parametrize("target", sorted(NUMERIC_INPUTS))
def test_non_finite_numbers_are_domain_errors(target, value):
    with pytest.raises(DomainError, match="finite"):
        NUMERIC_INPUTS[target](value)


@pytest.mark.parametrize("value", [True, False, "5", None, Decimal("5")], ids=repr)
@pytest.mark.parametrize("field", ["quotation", "premium"])
def test_a_market_quote_figure_is_a_number_not_a_bool(field, value):
    with pytest.raises(DomainError) as excinfo:
        MarketQuote(**{"quotation": 5.0, field: value})
    assert str(excinfo.value) == f"{field} must be a number, got {value!r}"


def test_a_market_quote_keeps_an_int_figure_as_given(lme_registry, lme_cert):
    quote = MarketQuote(5, -1)
    assert (quote.quotation.__class__, quote.premium.__class__) == (int, int)
    lme_registry.quote_transaction_price(lme_cert.cert_id, quote, 1)
    assert '"premium":-1,' in lme_registry.ledger.events[-1].line
    assert '"quotation":5,' in lme_registry.ledger.events[-1].line


def _issue_one(registry: Registry, face_weight=1000, purity=0.9999):
    return registry.issue(
        "LME", "copper", face_weight, purity, LME_ISSUE_DATE, AttenuationSpec(theta_daily=0.99996),
        DeliveryRules(0.003, 0.002, 1000), "client-1",
    )


# live inputs a weight or a ratio refuses: (call on the fixture's registry, message)
LIVE_NUMBER_REFUSALS = {
    "issue-face-weight-true": (
        lambda registry: _issue_one(registry, face_weight=True), "face_weight must be a number, got True"
    ),
    "issue-purity-true": (lambda registry: _issue_one(registry, purity=True), "purity must be a number, got True"),
    "issue-face-weight-quoted": (
        lambda registry: _issue_one(registry, face_weight="1000"), "face_weight must be a number, got '1000'"
    ),
    "certificate-face-weight-true": (
        lambda registry: _certificate(True), "face_weight must be a number, got True"
    ),
    "rules-bools": (
        lambda registry: DeliveryRules(False, 0.0, True), "delivery_charge_ratio must be a number, got False"
    ),
    "rules-min-delivery-quoted": (
        lambda registry: DeliveryRules(0.0, 0.0, "1000"), "min_delivery_weight must be a number, got '1000'"
    ),
    "denomination-true": (
        lambda registry: registry.register_issuer("LME", [1.0, True]), "denomination must be a number, got True"
    ),
    "denominations-empty": (
        lambda registry: registry.register_issuer("LME", []), "denomination set must not be empty"
    ),
    "denomination-zero": (lambda registry: registry.register_issuer("LME", [0]), "denominations must be > 0"),
    **{
        f"price-{value!r}": (
            (lambda value: lambda registry: PriceSeries("m", "c", ((date(2020, 1, 1), value),)))(value),
            f"price must be a number, got {value!r}",
        )
        for value in (True, "5", None)
    },
    **{
        f"{case}-huge": (call, f"{field} must be finite, got {HUGE_SHOWN}")
        for case, field, call in (
            ("issue-face-weight", "face_weight", lambda registry: _issue_one(registry, face_weight=HUGE)),
            ("issue-purity", "purity", lambda registry: _issue_one(registry, purity=HUGE)),
            ("certificate-face-weight", "face_weight", lambda registry: _certificate(HUGE)),
            ("rules-delivery-charge", "delivery_charge_ratio", lambda registry: DeliveryRules(HUGE, 0.0, 1.0)),
            ("rules-withdrawal-charge", "withdrawal_charge_ratio", lambda registry: DeliveryRules(0.0, HUGE, 1.0)),
            ("rules-min-delivery", "min_delivery_weight", lambda registry: DeliveryRules(0.0, 0.0, HUGE)),
            ("denomination", "denomination", lambda registry: registry.register_issuer("LME", [1.0, HUGE])),
            ("price", "price", lambda registry: PriceSeries("m", "c", ((date(2020, 1, 1), HUGE),))),
        )
    },
    # every figure of the storage and costing types: each was checked for finite only, so True passed as 1
    **{
        f"{target}-{label}": (
            (lambda build, value: lambda registry: build(value))(build, value),
            f"{field} must be finite, got {HUGE_SHOWN}" if value is HUGE
            else f"{field} must be a number, got {value!r}",
        )
        for target, field, build in (
            ("tariff-warehouse", "daily_warehouse_charge", lambda x: StorageTariff(x)),
            ("tariff-transfer", "outbound_transfer_charge", lambda x: StorageTariff(0.1, x)),
            ("tariff-bank-rate", "bank_rate", lambda x: StorageTariff(0.1, 0.0, x)),
            ("cif-price", "price_per_unit", lambda x: CifQuote(x)),
            ("theta", "theta_daily", lambda x: AttenuationSpec(x)),
            *(
                (f"logistics-{name}", name, (lambda name: lambda x: _logistics(**{name: x}))(name))
                for name in LogisticsParams._fields
            ),
        )
        for label, value in (("true", True), ("text", "5"), ("huge", HUGE))
    },
}


@pytest.mark.parametrize("case", list(LIVE_NUMBER_REFUSALS))
def test_a_weight_or_ratio_is_a_number_not_a_bool_or_text(lme_registry, case):
    call, message = LIVE_NUMBER_REFUSALS[case]
    with pytest.raises(DomainError) as excinfo:
        call(lme_registry)
    assert str(excinfo.value) == message
    assert len(lme_registry.ledger) == 0


class Text(str):
    pass


class Figure(float):
    pass


class Days(int):
    pass


def _probe(
    *, issuer="LME", owner="client-1", to_owner="client-2", weight_unit="kg", theta=0.99996, validity_days=None,
    quote=MarketQuote(5000.0, 2.5),
) -> Registry:
    """A registry that issues one certificate with these terms, quotes it, transfers it and buys it back."""
    registry = Registry()
    registry.register_issuer(issuer, [1000])
    theta = theta if isinstance(theta, AttenuationSpec) else AttenuationSpec(theta_daily=theta)
    rules = DeliveryRules(0.003, 0.002, 1000, validity_days=validity_days)
    cert_id = registry.issue(issuer, "copper", 1000, 0.9999, LME_ISSUE_DATE, theta, rules, owner,
                             weight_unit=weight_unit).cert_id
    registry.quote_transaction_price(cert_id, quote, 30)
    registry.transfer(cert_id, to_owner, 31)
    registry.buyback(cert_id, 60, quote)
    return registry


# inputs a live event must not keep as given, since their JSON reads back as another class or value
PAYLOAD_PROBES = {
    "quotation-float-subclass": {"quote": MarketQuote(Figure(5000.5))},
    "premium-float-subclass": {"quote": MarketQuote(5000.0, Figure(-2.5))},
    "theta-float-subclass": {"theta": Figure(0.99996)},
    "owner-str-subclass": {"owner": Text("client-1")},
    "to-owner-str-subclass": {"to_owner": Text("client-2")},
    "issuer-str-subclass": {"issuer": Text("LME")},
    "weight-unit-str-subclass": {"weight_unit": Text("kg")},
    "validity-int-subclass": {"validity_days": Days(100)},
    "cif-material-str-subclass": {"theta": attenuation_coefficient(
        StorageTariff(daily_warehouse_charge=0.2), CifQuote(5000.0, material=Text("copper")), ThetaMode.WAREHOUSE_ONLY,
    )},
    "numpy-figures": {
        "quote": MarketQuote(numpy.float64(5000.5), numpy.float64(-2.5)), "theta": numpy.float64(0.99996),
    },
}


@pytest.mark.parametrize("case", list(PAYLOAD_PROBES))
def test_a_live_event_holds_the_payload_its_line_reads_back_to(case):
    registry = _probe(**PAYLOAD_PROBES[case])
    events = registry.ledger.events
    for event in events:
        assert same_json(event.payload, parse_line(event.line).payload), event.kind
    assert registry.snapshot() == replay(read_events(registry.ledger.to_lines())).snapshot()


def test_a_ledger_append_keeps_no_reference_to_the_callers_dict():
    ledger = Ledger()
    payload = {"t": 1, "nested": {"a": 1.5}}
    event = ledger.append(EventKind.QUOTE, "LME-copper-0001", payload, LME_ISSUE_DATE)
    payload["nested"]["a"] = 2.5
    assert event.payload == {"t": 1, "nested": {"a": 1.5}}
    assert event.payload is not payload
