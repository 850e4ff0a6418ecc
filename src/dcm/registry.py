"""Certificate lifecycle over the event ledger.

Issue, transfer, quote, deliver, buy back, expire - every event is decided once,
by ``Registry._legal``, and evolved once, by ``Registry._evolve``, the only code
that changes state: a live operation decides before it settles and seals, and
``replay`` decides and evolves each verified event through the same two steps.

The registry is a single-writer, multi-reader component: callers must
serialize mutating operations through one writer; reads see the state as of
the last append.

Settlement convention: weights decay in full double precision, but every cash
leg settles on the *docket* weight - the weight quantized half-even to the
registry's weight precision (4 decimals by default), i.e. the figure printed
on the settlement document.  Exchanges settle on stated quantities, and the
reference case-study figures are only reproducible under this convention.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from collections.abc import Iterable
from datetime import date, timedelta
from enum import Enum
from operator import itemgetter

from .decay import AttenuationSpec, CifQuote, StorageTariff, ThetaMode, residual_weight
from .errors import (
    DCMError,
    DomainError,
    ExpiryError,
    IssuanceError,
    LedgerIntegrityError,
    LotSizeError,
    ParseError,
    StateError,
)
from .ledger import (
    _CERT_ID_RE, EventKind, Ledger, LedgerEvent, _is_cert_id, canonical_payload, member_lookup, validate_cert_id,
)
from .rounding import fmt, quantize_to_float
from .values import Value, iso_date, require_date, require_integer, require_number, require_text, shown


class CertStatus(str, Enum):
    ACTIVE = "ACTIVE"
    DELIVERED = "DELIVERED"
    BOUGHT_BACK = "BOUGHT_BACK"
    EXPIRED = "EXPIRED"


_new = tuple.__new__
_status_of = member_lookup(CertStatus)
_mode_of = member_lookup(ThetaMode)
# module globals, which every event reads: a global is cheaper to read than an Enum class attribute
_ACTIVE = CertStatus.ACTIVE
_ISSUE, _TRANSFER, _QUOTE, _DELIVER, _BUYBACK, _EXPIRE = EventKind  # the members in definition order
_LAST_DAY = date.max.toordinal()
# the cert_id a restored state line opens with: the id charset has no quote or backslash, so the JSON string is the id;
# compiled when first used, which no command that resumes does
_STATE_LINE_ID = rb'\["(%s)",' % _CERT_ID_RE.pattern.encode("ascii")


class DeliveryRules(Value, namedtuple(
    "DeliveryRules",
    "delivery_charge_ratio withdrawal_charge_ratio min_delivery_weight delivery_location validity_days",
)):
    """Settlement terms printed on a certificate.

    delivery_charge_ratio    deducted from residual weight on physical delivery
    withdrawal_charge_ratio  deducted from residual weight on cash buyback
    min_delivery_weight      smallest face weight eligible for delivery
    validity_days            None = open-ended
    """

    __slots__ = ()

    def __new__(
        cls,
        delivery_charge_ratio: float,
        withdrawal_charge_ratio: float,
        min_delivery_weight: float,
        delivery_location: str = "",
        validity_days: int | None = None,
    ):
        delivery = require_number("delivery_charge_ratio", delivery_charge_ratio)
        withdrawal = require_number("withdrawal_charge_ratio", withdrawal_charge_ratio)
        minimum = require_number("min_delivery_weight", min_delivery_weight)
        if not 0.0 <= delivery <= 0.1:
            raise DomainError("delivery_charge_ratio must lie in [0, 0.1]")
        if not 0.0 <= withdrawal <= 0.1:
            raise DomainError("withdrawal_charge_ratio must lie in [0, 0.1]")
        if minimum <= 0:
            raise DomainError("min_delivery_weight must be > 0")
        require_text("delivery_location", delivery_location)
        if validity_days is not None:
            validity_days = require_integer("validity_days", validity_days)
            if validity_days <= 0:
                raise DomainError("validity_days must be > 0 when set")
        return _new(cls, (delivery, withdrawal, minimum, delivery_location, validity_days))


class MarketQuote(Value, namedtuple("MarketQuote", "quotation premium")):
    """A market quotation per certificate weight unit, with optional premium.

    The premium is the issuer's adjustment; it may be negative or zero.
    """

    __slots__ = ()

    def __new__(cls, quotation: float, premium: float = 0.0):
        # both kept as given: an int figure stays an int in a payload's JSON
        number = require_number("quotation", quotation)
        require_number("premium", premium)
        if number <= 0:
            raise DomainError("quotation must be > 0")
        return _new(cls, (quotation, premium))


class Certificate(Value, namedtuple(
    "Certificate",
    "cert_id issuer material face_weight purity issue_date theta rules owner weight_unit status",
)):
    """An issued decayed-commodity-money instrument.

    Immutable: the registry stores a new certificate for each transfer or
    settlement, so hold a certificate's ``cert_id``, not the object.
    """

    __slots__ = ()

    def __new__(
        cls,
        cert_id: str,
        issuer: str,
        material: str,
        face_weight: float,
        purity: float,
        issue_date: date,
        theta: AttenuationSpec,
        rules: DeliveryRules,
        owner: str,
        weight_unit: str = "kg",
        status: CertStatus = CertStatus.ACTIVE,
    ):
        validate_cert_id(cert_id)
        if not (  # plain non-empty text passes without a call; anything else gets require_text's refusal
            issuer.__class__ is str and issuer and material.__class__ is str and material
            and owner.__class__ is str and owner and weight_unit.__class__ is str
        ):
            require_text("issuer", issuer, non_empty=True)
            require_text("material", material, non_empty=True)
            require_text("owner", owner, non_empty=True)
            require_text("weight_unit", weight_unit)
        face_weight = require_number("face_weight", face_weight)
        purity = require_number("purity", purity)
        require_date("issue_date", issue_date)
        if face_weight <= 0:
            raise DomainError("face_weight must be > 0")
        if not 0.0 < purity <= 1.0:
            raise DomainError("purity must lie in (0, 1]")
        return _new(
            cls, (cert_id, issuer, material, face_weight, purity, issue_date, theta, rules, owner, weight_unit, status)
        )

    def residual_at(self, delta_t: int) -> float:
        return residual_weight(self.face_weight, self.theta, delta_t)

    def date_at(self, t: int) -> date:
        """The calendar date ``t`` days after issuance; a DomainError when it falls outside the calendar."""
        if not 0 < self.issue_date.toordinal() + t <= _LAST_DAY:
            raise DomainError(f"day {t} after {self.issue_date} falls outside the calendar, {date.min} to {date.max}")
        return self.issue_date + timedelta(days=t)


def _key(name: str, value):
    """``value``, to key a dict by; one that cannot is no text, and is refused as ``Certificate`` refuses it."""
    if value.__class__ is not str:
        try:
            hash(value)
        except TypeError:
            require_text(name, value, non_empty=True)
    return value


class QuoteResult(Value, namedtuple("QuoteResult", "cert_id t residual_weight docket_weight quotation premium price")):
    """``price`` is (quotation + premium) x docket weight."""

    __slots__ = ()


class DeliveryResult(Value, namedtuple("DeliveryResult", "cert_id t residual_weight delivered_weight charged_weight")):
    """``charged_weight`` is residual - delivered: the custodian's take."""

    __slots__ = ()


class BuybackResult(Value, namedtuple(
    "BuybackResult", "cert_id t residual_weight buyback_weight charged_weight docket_weight quotation cash"
)):
    """``cash`` is the docket buyback weight x quotation."""

    __slots__ = ()


class ExpiryResult(Value, namedtuple("ExpiryResult", "cert_id t issuer_accrued_weight")):
    """``issuer_accrued_weight`` is the residual at the validity boundary, forfeited to the issuer."""

    __slots__ = ()


class RegistrySnapshot(Value, namedtuple("RegistrySnapshot", "certificates issue_counts last_seq head_hash")):
    """Value-compared registry state for replay checks.

    ``certificates`` maps cert_id to Certificate; ``issue_counts`` maps
    (issuer, material) to the number of certificates issued.
    """

    __slots__ = ()


# one pure function per settling kind: the figures of settling ``cert`` on day ``t``, which ``_legal`` has passed;
# ``Registry._settle`` records the result's fields after cert_id as the event's payload
def _settle_quote(cert: Certificate, t: int, quote: MarketQuote, places: int) -> QuoteResult:
    residual = cert.residual_at(t)
    docket = quantize_to_float(residual, places)
    price = (quote.quotation + quote.premium) * docket
    return QuoteResult(cert.cert_id, t, residual, docket, quote.quotation, quote.premium, price)


def _settle_delivery(cert: Certificate, t: int, quote: None, places: int) -> DeliveryResult:
    residual = cert.residual_at(t)
    delivered = residual * (1.0 - cert.rules.delivery_charge_ratio)
    return DeliveryResult(cert.cert_id, t, residual, delivered, residual - delivered)


def _settle_buyback(cert: Certificate, t: int, quote: MarketQuote, places: int) -> BuybackResult:
    residual = cert.residual_at(t)
    weight = residual * (1.0 - cert.rules.withdrawal_charge_ratio)
    docket = quantize_to_float(weight, places)
    cash = docket * quote.quotation
    return BuybackResult(cert.cert_id, t, residual, weight, residual - weight, docket, quote.quotation, cash)


def _settle_expiry(cert: Certificate, t: int, quote: None, places: int) -> ExpiryResult:
    return ExpiryResult(cert.cert_id, t, cert.residual_at(cert.rules.validity_days))


# per event kind: its payload keys (its result type's fields but cert_id and status), the status it leaves
# and, for a settling kind, its settlement function
_EVENT_RULES = {
    _ISSUE: (frozenset(Certificate._fields[1:-1]), _ACTIVE, None),
    _TRANSFER: (frozenset({"t", "from_owner", "to_owner"}), _ACTIVE, None),
    _QUOTE: (frozenset(QuoteResult._fields[1:]), _ACTIVE, _settle_quote),
    _DELIVER: (frozenset(DeliveryResult._fields[1:]), CertStatus.DELIVERED, _settle_delivery),
    _BUYBACK: (frozenset(BuybackResult._fields[1:]), CertStatus.BOUGHT_BACK, _settle_buyback),
    _EXPIRE: (frozenset(ExpiryResult._fields[1:]), CertStatus.EXPIRED, _settle_expiry),
}
_STATE_KEYS = frozenset(Certificate._fields[1:])  # a state line's form: the ISSUE payload's keys and the status


class Registry:
    """Single-writer certificate registry with an append-only ledger behind it."""

    def __init__(self, *, weight_places: int = 4):
        self.ledger = Ledger()
        self.weight_places = require_integer("weight_places", weight_places)
        self._certs: dict[str, Certificate] = {}
        # a registry restored by ``from_state`` keeps the state's bytes, and each line's byte range once it is built
        self._state = b""
        self._state_start = 0
        self._state_source = ""
        self._spans: dict[str, tuple[int, int]] = {}
        self._denominations: dict[str, frozenset[float]] = {}
        self._issue_counts: dict[tuple[str, str], int] = {}

    # -- configuration ----------------------------------------------------

    def register_issuer(self, issuer: str, denominations: Iterable[float]) -> None:
        """Declare the face weights an issuer offers.  Membership is exact."""
        if not isinstance(denominations, Iterable):
            raise DomainError(f"denominations must be a collection of numbers, got {shown(denominations)}")
        denoms = frozenset(require_number("denomination", d) for d in denominations)
        if not denoms:
            raise DomainError("denomination set must not be empty")
        if any(d <= 0 for d in denoms):
            raise DomainError("denominations must be > 0")
        self._denominations[_key("issuer", issuer)] = denoms

    # -- reads ------------------------------------------------------------

    def certificate(self, cert_id: str) -> Certificate:
        try:
            return self._certs[cert_id]
        except (KeyError, TypeError):  # TypeError: a value that cannot key a dict, which is no cert_id either
            pass
        cert = self._restore(cert_id) if self._state else None
        if cert is None:
            raise DomainError(f"unknown certificate {shown(cert_id)}")
        return cert

    @property
    def certificates(self) -> dict[str, Certificate]:
        self._build_all()
        return dict(self._certs)

    def snapshot(self) -> RegistrySnapshot:
        self._build_all()
        return RegistrySnapshot(
            certificates=dict(self._certs),
            issue_counts=dict(self._issue_counts),
            last_seq=self.ledger.last_seq,
            head_hash=self.ledger.head_hash,
        )

    # -- state --------------------------------------------------------------

    def state_lines(self) -> list[str]:
        """Each certificate's canonical JSON ``[cert_id, form]`` line, in issue order.

        A certificate still unread since ``from_state`` gives its line as
        restored, without building it.
        """
        return b"".join(self.state_pieces()).decode("utf-8").split("\n")[:-1]

    def state_pieces(self) -> list[bytes | memoryview]:
        """The UTF-8 text of ``state_lines()``, each line ended by a newline, as pieces to digest and write in order.

        A restored registry gives the unchanged byte ranges of its state
        between the re-encoded lines of the certificates it built, then the
        lines of the certificates it issued; no piece is a copy of the state.
        """
        pieces: list[bytes | memoryview] = []
        certs, spans = self._certs, self._spans
        if self._state:
            state = memoryview(self._state)
            at = self._state_start
            for cert_id, (start, end) in sorted(spans.items(), key=itemgetter(1)):
                pieces += state[at:start], _state_line(cert_id, certs[cert_id]).encode("utf-8")
                at = end
            pieces.append(state[at:])
        issued = "".join(_state_line(cert_id, cert) for cert_id, cert in certs.items() if cert_id not in spans)
        pieces.append(issued.encode("utf-8"))
        return pieces

    def issue_counts(self) -> list[list]:
        """The issue counters as ``[issuer, material, n]`` triples, in first-issue order."""
        return [[issuer, material, n] for (issuer, material), n in self._issue_counts.items()]

    @classmethod
    def from_state(
        cls, state: bytes, issue_counts: list, last_seq: int, head_hash: str, *, source: str, start: int = 0
    ) -> Registry:
        """The registry whose certificates are the lines of ``state[start:]``, built one at a time on first read.

        ``state[start:]`` is UTF-8 text of ``state_lines()`` lines, each
        ended by a newline, and ``issue_counts`` holds ``issue_counts()``
        triples that count them; the caller checks both.  Nothing is decoded
        here: ``certificate`` finds a line by one search for ``["<cert_id>",``
        at a line's start, for an id in the cert_id charset only, and builds
        it through the checks a replayed ISSUE passes, so every value is
        revalidated.  A line that fails them, a line that opens with no
        cert_id and a cert_id on two lines are LedgerIntegrityErrors naming
        ``source`` when the line is read; the last two are read only when
        every certificate is (``certificates``, ``snapshot``).
        """
        registry = cls()
        registry.ledger = Ledger(last_seq, head_hash)
        if len(state) > start:
            registry._state = state
            registry._state_start = start
        registry._state_source = source
        registry._issue_counts = {(issuer, material): n for issuer, material, n in issue_counts}
        return registry

    def build(self, cert_ids: Iterable[str]) -> None:
        """Build each of ``cert_ids`` that is still an unread line of the restored state; other ids are skipped."""
        if self._state:
            for cert_id in cert_ids:
                if cert_id not in self._certs:
                    self._restore(cert_id)

    def _find(self, cert_id) -> int:
        """Where the restored state's line of ``cert_id`` starts, or -1; a value that is no cert_id opens no line."""
        if cert_id.__class__ is not str or not _is_cert_id(cert_id):
            return -1
        opening = f'["{cert_id}",'.encode("ascii")
        state, start = self._state, self._state_start
        if state.startswith(opening, start):
            return start
        at = state.find(b"\n" + opening, start)
        return at if at < 0 else at + 1

    def _restore(self, cert_id) -> Certificate | None:
        """The certificate built from ``cert_id``'s line of the restored state, or None when it has none."""
        start = self._find(cert_id)
        if start < 0:
            return None
        end = self._state.index(b"\n", start) + 1
        cert = self._build(cert_id, self._state[start : end - 1])
        self._spans[cert_id] = (start, end)
        return cert

    def _build_all(self) -> None:
        """Build every line of the restored state still unread, and keep every certificate in issue order."""
        state = self._state
        if not state:
            return
        restored = {}
        line_id = re.compile(_STATE_LINE_ID).match
        at, number = self._state_start, 0
        while at < len(state):
            end = state.index(b"\n", at) + 1
            number += 1
            match = line_id(state, at)
            if match is None:
                raise LedgerIntegrityError(f"state line {number} in {self._state_source} does not open with a cert_id")
            cert_id = match[1].decode("ascii")
            if cert_id in restored:
                raise LedgerIntegrityError(
                    f"certificate {cert_id!r} in {self._state_source} repeats at state line {number}"
                )
            cert = self._certs.get(cert_id)
            if cert is None:
                cert = self._build(cert_id, state[at : end - 1])
                self._spans[cert_id] = (at, end)  # so the pieces stay whole if a later line fails
            restored[cert_id] = cert
            at = end
        self._certs = {**restored, **self._certs}  # the state's certificates first, then those issued since
        self._state, self._state_start, self._spans = b"", 0, {}

    def _build(self, cert_id: str, line: bytes) -> Certificate:
        try:
            _, form = json.loads(line)
            cert = _cert_from_payload(cert_id, form, _status_of(form["status"]))
            _check_keys("state", form, _STATE_KEYS)
        except (DCMError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise LedgerIntegrityError(
                f"certificate {cert_id!r} in {self._state_source} does not build: {type(exc).__name__}: {exc}"
            ) from None
        self._certs[cert_id] = cert
        return cert

    def apply_events(self, events: Iterable[LedgerEvent]) -> Registry:
        """Apply verified events that follow the ledger's head, keeping none of them; returns the registry.

        Each event must link to the head, which ``Ledger.link`` moves past it;
        one that ``_legal`` or ``_evolve`` refuses is a LedgerIntegrityError at its seq.
        """
        for event in events:
            self.ledger.link(event)
            try:
                kind = event.kind
                self._evolve(event, None if kind is _ISSUE else self._legal(kind, event.cert_id, event.payload["t"])[0])
            except (DCMError, KeyError, TypeError, ValueError) as exc:
                raise LedgerIntegrityError(
                    f"{event.kind.value} refused: {type(exc).__name__}: {exc}", seq=event.seq
                ) from None
        return self

    # -- operations ---------------------------------------------------------
    #
    # Each operation checks the inputs its computation needs (``issue``: an
    # issuer and material that key its lookups, a theta and rules of their
    # value types; quote and buy back: a MarketQuote, after ``_legal``),
    # decides, builds its payload and seals one event.  Quote, deliver, buy
    # back and expire share ``_settle``: each settlement's figures come from
    # one function per kind, and its payload is the result's fields after
    # cert_id.  Every non-ISSUE event is decided once by
    # ``_legal`` (an int day ``t``, a known certificate that is not terminal,
    # t >= 0 but for EXPIRE, the validity window but for TRANSFER, the delivery
    # lot, the lapsed window of EXPIRE, a date within the calendar), live
    # before the settlement function and on replay as read.  ``_evolve`` then
    # checks a new cert_id and valid terms (ISSUE), the owners (TRANSFER) and
    # the payload's exact top-level keys, and alone changes state, before the
    # append: a refused event (exit 2/3) records nothing, and live and replayed
    # state cannot drift apart.  Replay does not call the settlement functions
    # yet: their figures are recorded, not re-derived (ROADMAP D6).

    def issue(
        self,
        issuer: str,
        material: str,
        face_weight: float,
        purity: float,
        issue_date: date,
        theta: AttenuationSpec,
        rules: DeliveryRules,
        owner: str,
        *,
        weight_unit: str = "kg",
    ) -> Certificate:
        """Issue an ACTIVE certificate and append its ISSUE event.

        The face weight must be one of the issuer's registered denominations.
        A duplicate id and purity are refused by ``_evolve`` before anything
        is recorded; theta and the delivery rules by their own value types.
        """
        require_date("issue_date", issue_date)  # before its payload form is built from it
        weight = require_number("face_weight", face_weight)
        purity = require_number("purity", purity)
        denominations = self._denominations.get(_key("issuer", issuer))
        if denominations is None:
            raise IssuanceError(f"issuer {shown(issuer)} has no registered denomination set")
        if weight not in denominations:
            offered = ", ".join(str(d) for d in sorted(denominations))
            raise IssuanceError(f"face weight {face_weight} not offered by {issuer}; denominations: {offered}")
        if not isinstance(theta, AttenuationSpec):
            raise DomainError(f"theta must be an AttenuationSpec, got {shown(theta)}")
        if not isinstance(rules, DeliveryRules):
            raise DomainError(f"rules must be a DeliveryRules, got {shown(rules)}")
        count = self._issue_counts.get((issuer, _key("material", material)), 0) + 1
        cert_id = f"{issuer}-{material}-{count:04d}"
        payload = _issue_form(issuer, material, weight, purity, issue_date, theta, rules, owner, weight_unit)
        self._record(_ISSUE, cert_id, payload, issue_date, None)
        return self._certs[cert_id]

    def _legal(self, kind: EventKind, cert_id: str, t: int) -> tuple[Certificate, int]:
        """The certificate an event of ``kind`` on day ``t`` acts on, and ``t`` as an int; raises if it may not."""
        t = require_integer("t", t)
        cert = self.certificate(cert_id)
        if cert.status is not _ACTIVE:
            raise StateError(f"certificate {cert_id} is {cert.status.value}; terminal states are absorbing")
        validity = cert.rules.validity_days
        if kind is _EXPIRE:
            if validity is None or t <= validity:
                raise StateError(f"certificate {cert_id} has not lapsed; cannot expire at day {t}")
        elif t < 0:
            raise DomainError("t must be >= 0")
        elif kind is not _TRANSFER:
            if validity is not None and t > validity:
                raise ExpiryError(f"certificate {cert_id} expired: day {t} exceeds validity of {validity} days")
            if kind is _DELIVER and cert.face_weight < cert.rules.min_delivery_weight:
                raise LotSizeError(
                    f"face weight {cert.face_weight} below minimum delivery lot "
                    f"{cert.rules.min_delivery_weight}"
                )
        if t > _LAST_DAY - cert.issue_date.toordinal():
            cert.date_at(t)  # raises: the event's date would pass the calendar's last
        return cert, t

    # Every payload ``_record`` receives is a dict built for that call alone: ``_issue_form``'s, nested dicts
    # and all, ``_settle``'s ``_asdict()`` and ``transfer``'s literal.  The sealed event keeps it as its payload
    # rather than parsing its own JSON back (``Ledger._seal_fresh``), so no caller may keep or change it.
    def _record(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date | None, cert: Certificate | None):
        """Seal, evolve and append one event on ``_legal``'s ``cert``, dated ``timestamp`` or ``t`` days after issue."""
        if timestamp is None:
            timestamp = cert.date_at(payload["t"])
        event = self.ledger._seal_fresh(kind, cert_id, payload, timestamp)
        self._evolve(event, cert)
        self.ledger.append_sealed(event)

    def _evolve(self, event: LedgerEvent, cert: Certificate | None) -> None:
        """Apply one event that ``_legal`` has passed on ``cert`` (None for an ISSUE): the one state transition.

        Runs before the append, for live operations and replay alike, and
        raises the engine's own errors; ``replay`` reports them as
        LedgerIntegrityError at the event's seq.  The payload's keys are
        checked after the fields the kind reads, so a missing one of those is
        a KeyError that names it.
        """
        kind = event.kind
        cert_id = event.cert_id
        payload = event.payload
        keys, status, _ = _EVENT_RULES[kind]
        if kind is _ISSUE:
            # ids of different pairs can collide: ("A-b", "c") and ("A", "b-c")
            if cert_id in self._certs or (self._state and self._find(cert_id) >= 0):
                raise IssuanceError(f"certificate {cert_id!r} already exists")
            cert = _cert_from_payload(cert_id, payload)
        else:
            owner = cert.owner
            if kind is _TRANSFER:
                owner = payload["to_owner"]
                require_text("owner", owner, non_empty=True)
                from_owner = payload["from_owner"]
                if from_owner != cert.owner:
                    raise StateError(f"certificate {cert_id} is owned by {cert.owner!r}, not {from_owner!r}")
            # built directly: the owner is checked above, and every other field was when the certificate was built
            cert = _new(Certificate, (*cert[:8], owner, cert.weight_unit, status))
        _check_keys("payload", payload, keys)
        if kind is _ISSUE:
            pair = (cert.issuer, cert.material)
            self._issue_counts[pair] = self._issue_counts.get(pair, 0) + 1
        self._certs[cert_id] = cert

    def _settle(self, kind: EventKind, cert_id: str, t: int, quote: MarketQuote | None, timestamp: date | None):
        """Settle ``cert_id`` on day ``t`` by ``kind``'s settlement function and record its figures."""
        cert, t = self._legal(kind, cert_id, t)
        if (kind is _QUOTE or kind is _BUYBACK) and not isinstance(quote, MarketQuote):
            raise DomainError(f"quote must be a MarketQuote, got {shown(quote)}")
        result = _EVENT_RULES[kind][2](cert, t, quote, self.weight_places)
        payload = result._asdict()
        del payload["cert_id"]
        self._record(kind, cert_id, payload, timestamp, cert)
        return result

    def quote_transaction_price(
        self, cert_id: str, quote: MarketQuote, t1: int, *, timestamp: date | None = None
    ) -> QuoteResult:
        """Cash price of the certificate ``t1`` days after issuance.

        (quotation + premium) x docket residual weight; appends a QUOTE event.
        """
        return self._settle(_QUOTE, cert_id, t1, quote, timestamp)

    def physical_delivery(self, cert_id: str, t2: int, *, timestamp: date | None = None) -> DeliveryResult:
        """Deliver the decayed anchor weight net of the delivery charge.

        Eligibility is judged on the face weight (a certificate denominated at
        the minimum lot stays deliverable even though decay pulls the residual
        below it).  Terminal: the certificate becomes DELIVERED.
        """
        return self._settle(_DELIVER, cert_id, t2, None, timestamp)

    def buyback(self, cert_id: str, t: int, quote: MarketQuote, *, timestamp: date | None = None) -> BuybackResult:
        """Cash out the certificate: residual net of the withdrawal charge, at the day's quotation.

        Buyback pays the raw quotation (no premium) on the docket weight.
        Terminal: the certificate becomes BOUGHT_BACK.
        """
        return self._settle(_BUYBACK, cert_id, t, quote, timestamp)

    def transfer(
        self, cert_id: str, new_owner: str, t: int, *, timestamp: date | None = None
    ) -> Certificate:
        """Change the registered owner.  Decay depends only on the issue date, never on ownership."""
        cert, t = self._legal(_TRANSFER, cert_id, t)
        self._record(_TRANSFER, cert_id, {"t": t, "from_owner": cert.owner, "to_owner": new_owner}, timestamp, cert)
        return self._certs[cert_id]

    def expire(self, cert_id: str, t: int, *, timestamp: date | None = None) -> ExpiryResult:
        """Sweep a lapsed certificate: residual at the validity boundary accrues to the issuer."""
        return self._settle(_EXPIRE, cert_id, t, None, timestamp)


# -- replay -----------------------------------------------------------------


def replay(events: Iterable[LedgerEvent]) -> Registry:
    """Rebuild a registry from an event stream.

    The stream must already be hash-verified (see ledger.read_events); replay
    re-checks linkage and applies the recorded state transitions, keeping no
    event: the ledger holds the head, ``events`` is empty and ``len`` is
    ``last_seq``.  An event that ``_legal`` or ``_evolve`` refuses is a
    LedgerIntegrityError at its seq.
    """
    return Registry().apply_events(events)


# -- payload / metadata serialization ----------------------------------------


def _theta_to_payload(theta: AttenuationSpec) -> dict:
    payload: dict = {"theta_daily": theta.theta_daily, "mode": theta.mode._value_}
    if theta.tariff is not None:
        payload["tariff"] = theta.tariff._asdict()
    if theta.cif is not None:
        payload["cif"] = {**theta.cif._asdict(), "as_of": theta.cif.as_of.isoformat() if theta.cif.as_of else None}
    return payload


def _check_keys(name: str, form: dict, keys: frozenset, optional: frozenset = frozenset()) -> None:
    """Refuse a ``form`` without each of ``keys`` or with a key beyond them and ``optional``, naming ``name``.

    Callers check after reading every key they need, so a missing one of
    those is a KeyError that names it.
    """
    if form.keys() != keys and not keys < form.keys() <= keys | optional:
        raise ParseError(
            f"{name} keys: missing {sorted(keys - form.keys())}, unexpected {sorted(form.keys() - keys - optional)}"
        )


_THETA_KEYS = frozenset({"theta_daily", "mode"})
_THETA_OPTIONAL = frozenset({"tariff", "cif"})
_TARIFF_KEYS = frozenset(StorageTariff._fields)
_CIF_KEYS = frozenset(CifQuote._fields)
_RULES_KEYS = frozenset(DeliveryRules._fields)


def _theta_from_payload(payload: dict) -> AttenuationSpec:
    # positional calls in field order, as in ``_cert_from_payload``
    tariff = None
    if "tariff" in payload:
        raw = payload["tariff"]
        tariff = StorageTariff(raw["daily_warehouse_charge"], raw["outbound_transfer_charge"], raw["bank_rate"])
        _check_keys("tariff", raw, _TARIFF_KEYS)
    cif = None
    if "cif" in payload:
        raw = payload["cif"]
        as_of = None if raw["as_of"] is None else iso_date(raw["as_of"])
        cif = CifQuote(raw["price_per_unit"], raw["material"], raw["location"], as_of)
        _check_keys("cif", raw, _CIF_KEYS)
    theta = AttenuationSpec(payload["theta_daily"], _mode_of(payload["mode"]), tariff, cif)
    _check_keys("theta", payload, _THETA_KEYS, _THETA_OPTIONAL)
    return theta


def _issue_form(issuer, material, face_weight, purity, issue_date, theta, rules, owner, weight_unit) -> dict:
    """The ISSUE payload of a certificate with these fields, which come in ``Certificate`` field order."""
    return {
        "issuer": issuer,
        "material": material,
        "face_weight": face_weight,
        "purity": purity,
        "issue_date": issue_date.isoformat(),
        "weight_unit": weight_unit,
        "owner": owner,
        "theta": _theta_to_payload(theta),
        "rules": rules._asdict(),
    }


def certificate_state(cert: Certificate) -> dict:
    """The ISSUE payload form of ``cert`` with its current owner, plus its status."""
    return {**_issue_form(*cert[1:10]), "status": cert.status.value}


def _state_line(cert_id: str, cert: Certificate) -> str:
    """``cert``'s ``state_lines()`` line, newline included."""
    return canonical_payload([cert_id, certificate_state(cert)]) + "\n"


def _cert_from_payload(cert_id: str, payload: dict, status: CertStatus = CertStatus.ACTIVE) -> Certificate:
    # positional calls in field order: every replayed ISSUE and every restored certificate comes
    # through here, and keyword calls cost about 1.5 us more per certificate
    rules = payload["rules"]
    cert = Certificate(
        cert_id,
        payload["issuer"],
        payload["material"],
        payload["face_weight"],
        payload["purity"],
        iso_date(payload["issue_date"]),
        _theta_from_payload(payload["theta"]),
        DeliveryRules(
            rules["delivery_charge_ratio"],
            rules["withdrawal_charge_ratio"],
            rules["min_delivery_weight"],
            rules["delivery_location"],
            rules["validity_days"],
        ),
        payload["owner"],
        payload["weight_unit"],
        status,
    )
    _check_keys("rules", rules, _RULES_KEYS)
    return cert


# -- certificate paper format -------------------------------------------------


def export_certificate(cert: Certificate) -> str:
    """Printable certificate text: the metadata a holder sees, one field per line.

    Theta is printed to 6 decimal places, the precision certificates carry.
    """
    rules = cert.rules
    fields = (
        ("code", cert.cert_id),
        ("issuer", cert.issuer),
        ("material", cert.material),
        ("face_weight", repr(cert.face_weight)),
        ("weight_unit", cert.weight_unit),
        ("purity", repr(cert.purity)),
        ("issue_date", cert.issue_date.isoformat()),
        ("theta", fmt(cert.theta.theta_daily, 6)),
        ("delivery_charge_ratio", repr(rules.delivery_charge_ratio)),
        ("withdrawal_charge_ratio", repr(rules.withdrawal_charge_ratio)),
        ("min_delivery_weight", repr(rules.min_delivery_weight)),
        ("delivery_location", rules.delivery_location),
        ("validity_days", "none" if rules.validity_days is None else str(rules.validity_days)),
    )
    return "".join(f"{name}: {value}\n" for name, value in fields)
