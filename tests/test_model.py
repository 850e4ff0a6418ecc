"""A model-based test of the legality rules (QuickCheck-style state-machine testing).

A Hypothesis state machine drives a ``Registry`` through issue, transfer,
quote, deliver, buyback and expire, on certificates that are open-ended,
short-lived, below the delivery lot, settled or unknown, on days from before
issuance to past validity.  The model below is written from the rules the
engine documents, not from its code: it predicts which operations are
refused and with which error, and what each certificate's status and owner
become.  After every step the live registry must equal its own replay, and
its ledger, saved to a file with a checkpoint sidecar written for it, must
resume to that replay, and each event it appended must hold the very payload
its wire line reads back to.
"""

from __future__ import annotations

import copy
import math
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from dcm import (
    AttenuationSpec,
    CifQuote,
    DeliveryRules,
    DomainError,
    EventKind,
    ExpiryError,
    Ledger,
    LedgerIntegrityError,
    LotSizeError,
    MarketQuote,
    Registry,
    StateError,
    StorageTariff,
    ThetaMode,
    attenuation_coefficient,
    read_events,
    replay,
)
from dcm.checkpoint import LedgerFile
from dcm.ledger import parse_line
from dcm.registry import certificate_state
from conftest import same_json

DAY = date(2020, 1, 1)
LOT = 1000.0
UNKNOWN = "M-tin-9999"  # never issued: the machine issues far fewer certificates
OWNERS = st.sampled_from(["alice", "bob", "carol"])
DAYS = st.integers(min_value=-3, max_value=40)  # a short-lived certificate is valid 1 to 30 days
# floats in range, and figures whose JSON text is unusual: subnormal, huge, integral, an int
QUOTATIONS = st.floats(min_value=0.5, max_value=100.0) | st.sampled_from([5e-324, 1e300, 7.0]) | st.integers(1, 10**6)
PREMIUMS = st.sampled_from([0.0, -0.0, 2, -1]) | st.floats(min_value=-1.0, max_value=1.0)


class ModelCert:
    def __init__(self, face: float, theta: float, validity: int | None, owner: str):
        self.face = face
        self.theta = theta
        self.validity = validity
        self.owner = owner
        self.status = "ACTIVE"

    def residual(self, t: int) -> float:
        return self.face * self.theta ** t


class LegalityMachine(RuleBasedStateMachine):
    certs = Bundle("certs")

    def __init__(self):
        super().__init__()
        self.registry = Registry()
        self.registry.register_issuer("M", [10.0, LOT])
        self.model: dict[str, ModelCert] = {}
        self.directory = tempfile.TemporaryDirectory()
        self.prefix = 0  # the events the checkpoint sidecar covers, at most
        self.touch: frozenset[int] = frozenset()  # the issue-order indices of the certificates a resumed load builds
        self.resumed: tuple | None = None  # the (events, prefix, touch) last resumed: a refused step changes none
        self.checked = 0  # the events whose payloads have been compared with their lines

    def teardown(self):
        self.directory.cleanup()

    # -- the model ------------------------------------------------------------

    def refusal(self, op: str, cert_id: str, t: int, new_owner: str = "x") -> type | None:
        """The error the rules give ``op`` on ``cert_id`` at day ``t``, or None if it is legal."""
        cert = self.model.get(cert_id)
        if cert is None:
            return DomainError  # unknown certificate
        if cert.status != "ACTIVE":
            return StateError  # settled certificates are absorbing
        if op == "expire":  # only after the validity window has lapsed; an open-ended one never lapses
            return None if cert.validity is not None and t > cert.validity else StateError
        if t < 0:
            return DomainError
        if op == "transfer":  # ownership may change after the window, but only to a non-empty name
            return DomainError if not new_owner else None
        if cert.validity is not None and t > cert.validity:
            return ExpiryError
        if op == "deliver" and cert.face < LOT:
            return LotSizeError
        return None

    def attempt(self, op: str, cert_id: str, t: int, call, new_owner: str = "x"):
        """Run ``call``; it must succeed and append one event, or raise the model's error and append nothing."""
        expected = self.refusal(op, cert_id, t, new_owner)
        before = len(self.registry.ledger)
        if expected is not None:
            with pytest.raises(Exception) as excinfo:
                call()
            assert type(excinfo.value) is expected, (op, cert_id, t, excinfo.value)
            assert len(self.registry.ledger) == before
            return None
        result = call()
        assert len(self.registry.ledger) == before + 1
        return result

    # -- rules ----------------------------------------------------------------

    @rule(
        target=certs,
        shape=st.sampled_from(["open", "short", "small"]),
        validity=st.integers(min_value=1, max_value=30),
        theta=st.sampled_from([0.99, 0.99996]),
        owner=OWNERS,
    )
    def issue(self, shape, validity, theta, owner):
        face = 10.0 if shape == "small" else LOT
        days = validity if shape == "short" else None
        cert = self.registry.issue(
            issuer="M", material="tin", face_weight=face, purity=1.0, issue_date=DAY,
            theta=AttenuationSpec(theta_daily=theta),
            rules=DeliveryRules(delivery_charge_ratio=0.003, withdrawal_charge_ratio=0.002, min_delivery_weight=LOT,
                                validity_days=days),
            owner=owner,
        )
        self.model[cert.cert_id] = ModelCert(face, theta, days, owner)
        return cert.cert_id

    @rule(cert_id=certs | st.just(UNKNOWN), t=DAYS, new_owner=OWNERS | st.just(""))
    def transfer(self, cert_id, t, new_owner="dave"):
        if self.attempt("transfer", cert_id, t, lambda: self.registry.transfer(cert_id, new_owner, t), new_owner):
            self.model[cert_id].owner = new_owner

    @rule(cert_id=certs | st.just(UNKNOWN), t=DAYS, quotation=QUOTATIONS, premium=PREMIUMS)
    def quote(self, cert_id, t, quotation=5.0, premium=0.0):
        market = MarketQuote(quotation=quotation, premium=premium)
        result = self.attempt("quote", cert_id, t, lambda: self.registry.quote_transaction_price(cert_id, market, t))
        if result is not None:
            assert math.isclose(result.residual_weight, self.model[cert_id].residual(t), rel_tol=1e-12)

    @rule(cert_id=certs | st.just(UNKNOWN), t=DAYS)
    def deliver(self, cert_id, t):
        result = self.attempt("deliver", cert_id, t, lambda: self.registry.physical_delivery(cert_id, t))
        if result is not None:
            assert math.isclose(result.residual_weight, self.model[cert_id].residual(t), rel_tol=1e-12)
            assert result.delivered_weight + result.charged_weight == result.residual_weight
            self.model[cert_id].status = "DELIVERED"

    @rule(cert_id=certs | st.just(UNKNOWN), t=DAYS, quotation=QUOTATIONS)
    def buyback(self, cert_id, t, quotation=5.0):
        market = MarketQuote(quotation=quotation)
        result = self.attempt("buyback", cert_id, t, lambda: self.registry.buyback(cert_id, t, market))
        if result is not None:
            assert math.isclose(result.residual_weight, self.model[cert_id].residual(t), rel_tol=1e-12)
            assert result.buyback_weight + result.charged_weight == result.residual_weight
            self.model[cert_id].status = "BOUGHT_BACK"

    @rule(cert_id=certs | st.just(UNKNOWN), t=DAYS)
    def expire(self, cert_id, t):
        result = self.attempt("expire", cert_id, t, lambda: self.registry.expire(cert_id, t))
        if result is not None:
            cert = self.model[cert_id]
            assert math.isclose(result.issuer_accrued_weight, cert.residual(cert.validity), rel_tol=1e-12)
            cert.status = "EXPIRED"

    @rule(
        cert_id=certs,
        op=st.sampled_from(["transfer", "quote", "deliver", "buyback", "expire"]),
        offset=st.integers(min_value=-1, max_value=1),
    )
    def near_the_end_of_the_window(self, cert_id, op, offset):
        """One operation on the window's last day or a day either side of it; around day 0 if open-ended."""
        getattr(self, op)(cert_id, (self.model[cert_id].validity or 0) + offset)

    @rule(prefix=st.integers(min_value=0, max_value=40), touch=st.frozensets(st.integers(min_value=0, max_value=12)))
    def checkpoint_at(self, prefix, touch):
        """Choose the prefix the sidecar covers and the certificates a resumed load names (by issue order)."""
        self.prefix, self.touch = prefix, touch

    def resume(self, lines: list[str]) -> Registry:
        """``lines`` written to a file with a sidecar written for it, loaded touching the drawn certificates.

        The sidecar is first written for the drawn prefix, as by a command that
        ran then; when the prefix is shorter than the file, the next load
        replays in full and warns, and rewrites the sidecar for the whole file,
        as the next command does.  An index past the issued certificates names
        one that was never issued.
        """
        path = Path(self.directory.name) / "ledger.log"
        path.write_text("".join(line + "\n" for line in lines[: self.prefix]), encoding="utf-8")
        covering = LedgerFile(path)
        covering.write_checkpoint(covering.load())
        if self.prefix < len(lines):
            with path.open("a", encoding="utf-8") as handle:
                handle.write("".join(line + "\n" for line in lines[self.prefix :]))
            covering = LedgerFile(path)
            registry = covering.load()
            assert covering.ignored.startswith("it was written for ")
            covering.write_checkpoint(registry)
        ids = list(self.model)
        ledger_file = LedgerFile(path)
        loaded = ledger_file.load(touch=[ids[index] if index < len(ids) else UNKNOWN for index in sorted(self.touch)])
        assert ledger_file.ignored is None
        return loaded

    # -- invariants -----------------------------------------------------------

    @invariant()
    def each_new_event_holds_the_payload_its_line_reads_back_to(self):
        events = self.registry.ledger.events
        for event in events[self.checked:]:
            assert same_json(event.payload, parse_line(event.line).payload), event
        self.checked = len(events)

    @invariant()
    def replay_and_resume_equal_the_live_registry(self):
        lines = self.registry.ledger.to_lines()
        replayed = replay(read_events(lines))
        snapshot = self.registry.snapshot()
        assert snapshot == replayed.snapshot()
        assert snapshot.certificates.keys() == self.model.keys()
        for cert_id, cert in snapshot.certificates.items():
            assert (cert.status.value, cert.owner) == (self.model[cert_id].status, self.model[cert_id].owner)
        # saved and resumed from a checkpoint, the ledger gives the replayed state; neither keeps the events
        if self.resumed == (len(lines), self.prefix, self.touch):
            return
        self.resumed = (len(lines), self.prefix, self.touch)
        loaded = self.resume(lines)
        for registry in (loaded, replayed):
            assert registry.ledger.events == ()
            assert len(registry.ledger) == registry.ledger.last_seq == len(lines)
        # the state lines first, while the certificates the load did not build are still their restored lines
        assert loaded.state_lines() == replayed.state_lines()
        assert loaded.issue_counts() == replayed.issue_counts()
        assert loaded.snapshot() == replayed.snapshot()


LegalityMachine.TestCase.settings = settings(deadline=None)
TestLegality = LegalityMachine.TestCase


# -- an ISSUE with one figure, date or text replaced --------------------------


def _issue_payload() -> dict:
    """A live ISSUE's payload, with a derived theta so that it records a tariff and a landed price."""
    registry = Registry()
    registry.register_issuer("M", [LOT])
    theta = attenuation_coefficient(
        StorageTariff(0.2, 0.1, 0.0365), CifQuote(5000.0, "tin", "Rotterdam", DAY), ThetaMode.FULL_COST
    )
    registry.issue("M", "tin", LOT, 0.9999, DAY, theta, DeliveryRules(0.003, 0.002, LOT, "Rotterdam", 30), "alice")
    return registry.ledger.events[0].payload


ISSUE_PAYLOAD = _issue_payload()


def _leaves(form: dict, path: tuple = ()) -> list[tuple]:
    """The key path of every value in ``form`` that is not itself a dict."""
    return [
        leaf
        for key, value in form.items()
        for leaf in (_leaves(value, (*path, key)) if value.__class__ is dict else [(*path, key)])
    ]


def _typed(form) -> bool:
    """Whether every value in ``form`` is None, a str or a number that is not a bool."""
    if form.__class__ is dict:
        return all(map(_typed, form.values()))
    return form is None or form.__class__ in (str, int, float)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)
# values at the edges of what one field or another reads: dates in other ISO forms, an int beyond float range,
# the figures false, 0 and 1, and the text a mode or a date reads
EDGE_VALUES = st.sampled_from(
    ["20200101", "2020-W01-3", "", "2020-01-01", "explicit", "full-cost", 10**400, 0, 1, 1.0, False, True, None]
)


@settings(deadline=None)
@given(path=st.sampled_from(_leaves(ISSUE_PAYLOAD)), value=JSON_VALUES | EDGE_VALUES)
def test_an_issue_with_one_value_replaced_is_refused_or_replays_to_its_payload(path, value):
    payload = copy.deepcopy(ISSUE_PAYLOAD)
    *parents, leaf = path
    node = payload
    for key in parents:
        node = node[key]
    node[leaf] = value
    ledger = Ledger()
    ledger.append(EventKind.ISSUE, "M-tin-0001", payload, DAY)
    try:
        registry = replay(read_events(ledger.to_lines()))
    except LedgerIntegrityError as exc:
        assert exc.seq == 1
        return
    state = certificate_state(registry.certificate("M-tin-0001"))
    assert state == {**payload, "status": "ACTIVE"}
    assert _typed(state), state
