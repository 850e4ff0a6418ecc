"""Append-only event log with a SHA-256 hash chain and a line wire format.

Wire format, one event per line, fields pipe-delimited in fixed order:

    seq|timestamp|kind|cert_id|payload|prev_hash|hash

``seq`` is ``str(int)``, ``timestamp`` is ``date.isoformat()`` and ``payload``
is canonical JSON (sorted keys, no whitespace, ASCII only); hashes are
lowercase hex SHA-256.  ``hash`` digests exactly the stored bytes before it,
and a reader accepts only canonical fields, so every verified line is the
event's stored line and changing any byte of a record breaks verification.
The first event chains from a prev_hash of 64 zeros.  ``cert_id`` is
restricted to a charset without the field separator, which keeps parsing
unambiguous (the JSON payload is bracketed by fixed-shape fields on both
sides and is recovered with bounded splits).
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import namedtuple
from datetime import date
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Iterator

from .errors import DomainError, LedgerIntegrityError
from .values import Value, iso_date, require_date, shown

GENESIS_HASH = "0" * 64

_CERT_ID_RE = re.compile(r"[A-Za-z0-9_.:-]+")
_HASH_RE = re.compile(r"[0-9a-f]{64}")
# bound once: parse_line calls these on every line it reads
_is_cert_id = _CERT_ID_RE.fullmatch
_is_hash = _HASH_RE.fullmatch
_loads = json.loads
_scan_once = json.JSONDecoder().scan_once
_fromisoformat = date.fromisoformat
_new = tuple.__new__


class EventKind(str, Enum):
    ISSUE = "ISSUE"
    TRANSFER = "TRANSFER"
    QUOTE = "QUOTE"
    DELIVER = "DELIVER"
    BUYBACK = "BUYBACK"
    EXPIRE = "EXPIRE"


def member_lookup(enum: type[Enum]):
    """``enum(value)`` as a dict lookup; a value that is not a member's goes to ``enum``, which refuses it."""
    members = {member.value: member for member in enum}

    def lookup(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)

    return lookup


_KINDS = {kind.value: kind for kind in EventKind}
_kind_of = member_lookup(EventKind)
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)
if c_make_encoder is None:  # a build without the _json accelerator
    _canonical_chunks = _CANONICAL.iterencode
else:
    # the C encoder that _CANONICAL.encode would build on every call, built once: (markers, default, encoder, indent,
    # key and item separators, sort_keys, skipkeys, allow_nan).  It keeps no markers, so a circular reference
    # recurses until it raises RecursionError, as a payload nested too deep does.
    _canonical_chunks = c_make_encoder(
        None, _CANONICAL.default, encode_basestring_ascii, None, ":", ",", True, False, False
    )


def canonical_payload(payload) -> str:
    """Sorted-key, whitespace-free, ASCII JSON.

    NaN, infinity and an int too long to write raise ValueError, a value
    JSON has no form for TypeError, and a circular or too deeply nested one
    RecursionError.
    """
    return "".join(_canonical_chunks(payload, 0))


def _decode(text: str):
    """``json.loads(text)``, scanned directly when ``text`` is exactly one JSON value.

    Other text (whitespace or a BOM around the value, trailing bytes, no
    value, a malformed or too deeply nested one) goes to ``json.loads``,
    which decides the refusal and raises its own exception.
    """
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        return _loads(text)
    return value if end == len(text) else _loads(text)


# the classes json.loads gives back for a value of that very class; a subclass, a tuple or a list does not qualify
_EXACT_SCALARS = frozenset({str, int, float, bool, type(None)})


def _exact(payload) -> bool:
    """Whether ``payload`` equals the JSON round-trip of its canonical text in every value and class.

    True for a dict whose keys are ``str`` and whose values are such dicts or
    scalars of exactly the classes ``json.loads`` builds: CPython's float
    repr reads back to the same float, so only a subclass (which reads back
    as its base), a tuple (a list) or a non-str key (a str) changes.
    """
    if payload.__class__ is not dict:
        return False
    for key, value in payload.items():
        if key.__class__ is not str:
            return False
        cls = value.__class__
        if cls not in _EXACT_SCALARS and not (cls is dict and _exact(value)):
            return False
    return True


def _sha256(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _seal(seq: int, timestamp: str, kind: str, cert_id: str, payload_json: str, prev_hash: str) -> str:
    """The wire line of these fields: the body, then ``|`` and the body's digest."""
    body = f"{seq}|{timestamp}|{kind}|{cert_id}|{payload_json}|{prev_hash}"
    return f"{body}|{_sha256(body)}"


class LedgerEvent(Value, namedtuple("LedgerEvent", "seq timestamp kind cert_id payload prev_hash hash line")):
    """One sealed record; ``line`` is its wire text, set once when sealed or parsed.

    ``seq`` is an int, ``timestamp`` a date, ``kind`` an EventKind and
    ``payload`` a dict; the rest are strings.  The repr leaves out ``line``.
    """

    __slots__ = ()

    def __repr__(self):
        return (
            f"LedgerEvent(seq={self.seq!r}, timestamp={self.timestamp!r}, kind={self.kind!r}, "
            f"cert_id={self.cert_id!r}, payload={self.payload!r}, prev_hash={self.prev_hash!r}, hash={self.hash!r})"
        )


def validate_cert_id(cert_id: str) -> str:
    if cert_id.__class__ is not str or not _is_cert_id(cert_id):
        raise DomainError(f"cert_id {shown(cert_id)} must be non-empty and use only [A-Za-z0-9_.:-]")
    return cert_id


class Ledger:
    """In-memory event log; one writer, atomic per-event append.

    A ledger starts at genesis or at a verified head (``last_seq``,
    ``head_hash``) and holds the events appended through it since, not those
    ``link`` moves the head past, as a replay does; ``len`` is ``last_seq``.
    """

    def __init__(self, last_seq: int = 0, head_hash: str = GENESIS_HASH):
        self._events: list[LedgerEvent] = []
        self._last_seq = last_seq
        self._head_hash = head_hash

    def __len__(self) -> int:
        return self._last_seq

    @property
    def events(self) -> tuple[LedgerEvent, ...]:
        return tuple(self._events)

    @property
    def head_hash(self) -> str:
        return self._head_hash

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def _seal_fresh(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date) -> LedgerEvent:
        """The event that would follow the head, sealed but not stored, for a payload built for this call alone.

        A payload that ``_exact`` passes is kept as the event's payload: it
        equals the round-trip, value for value and class for class, but for
        key order.  Any other payload is round-tripped, as ``append`` does.
        The caller must not keep or change the dict.
        """
        return self._sealed(kind, cert_id, payload, timestamp, True)

    def _sealed(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date, keep: bool) -> LedgerEvent:
        validate_cert_id(cert_id)
        require_date("timestamp", timestamp)  # a datetime's isoformat is not a date's, which a reader refuses
        kind = _kind_of(kind)
        try:
            payload_json = canonical_payload(payload)
        except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: too deep, or circular
            raise DomainError(f"payload cannot be recorded as canonical JSON: {exc}") from None
        if not (keep and _exact(payload)):
            payload = _loads(payload_json)
        seq = self._last_seq + 1
        prev = self._head_hash
        line = _seal(seq, timestamp.isoformat(), kind._value_, cert_id, payload_json, prev)
        return _new(LedgerEvent, (seq, timestamp, kind, cert_id, payload, prev, line[-64:], line))

    def append(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date) -> LedgerEvent:
        """Seal and append one event; returns it.

        The event's payload is the JSON round-trip of the argument, so the
        in-memory event equals what a reader reconstructs from the wire line.
        A payload canonical JSON cannot encode, or a timestamp that is not
        exactly a date, raises DomainError and appends nothing.
        """
        event = self._sealed(kind, cert_id, payload, timestamp, False)
        self.append_sealed(event)
        return event

    def append_sealed(self, event: LedgerEvent) -> None:
        """Append a sealed event (from ``_seal_fresh`` or read from the wire) once it links to the head."""
        self.link(event)
        self._events.append(event)

    def link(self, event: LedgerEvent) -> None:
        """Move the head to a sealed event that directly follows it, without keeping the event."""
        if event.seq != self._last_seq + 1:
            raise LedgerIntegrityError(f"expected seq {self._last_seq + 1}, found {event.seq}", seq=event.seq)
        if event.prev_hash != self._head_hash:
            raise LedgerIntegrityError("chain break: prev_hash mismatch", seq=event.seq)
        self._last_seq, self._head_hash = event.seq, event.hash

    def to_lines(self) -> list[str]:
        return [event.line for event in self._events]


def _fields(line: str) -> tuple[str, str, str, str, str, str, str, str]:
    """The digested body of a wire line and its seven fields, in wire order; ValueError on the wrong field count."""
    body, line_hash = line.rsplit("|", 1)
    head, prev_hash = body.rsplit("|", 1)
    seq_text, ts_text, kind_text, cert_id, payload_json = head.split("|", 4)
    return body, seq_text, ts_text, kind_text, cert_id, payload_json, prev_hash, line_hash


def parse_line(line: str, lineno: int | None = None) -> LedgerEvent:
    """Parse one wire line into an event, checking its digest and canonical form.

    The digest covers the exact text before the last ``|``.  Chain linkage
    (prev_hash continuity, seq continuity) is checked by read_events; this
    checks everything observable from a single line.
    """
    where = lineno if lineno is not None else "?"
    try:
        body, seq_text, ts_text, kind_text, cert_id, payload_json, prev_hash, line_hash = _fields(line)
    except ValueError:
        raise LedgerIntegrityError(f"line {where}: malformed record (wrong field count)") from None
    try:
        seq = int(seq_text)
        if str(seq) != seq_text:
            raise ValueError(seq_text)
    except ValueError:
        raise LedgerIntegrityError(f"line {where}: bad sequence number {seq_text!r}") from None
    try:
        digest = _sha256(body)
    except UnicodeEncodeError:  # a lone surrogate: text no UTF-8 file holds, so no digest matches it
        digest = None
    # a line_hash equal to a hexdigest is well formed, so only a mismatch needs its regex
    if digest != line_hash or not _is_hash(prev_hash):
        if not (_is_hash(prev_hash) and _is_hash(line_hash)):
            raise LedgerIntegrityError("malformed hash field", seq=seq)
        raise LedgerIntegrityError("hash mismatch: record bytes do not match their digest", seq=seq)
    try:
        timestamp = iso_date(ts_text)
    except ValueError:
        raise LedgerIntegrityError(f"bad timestamp {ts_text!r}", seq=seq) from None
    kind = _KINDS.get(kind_text)
    if kind is None:
        raise LedgerIntegrityError(f"unknown event kind {kind_text!r}", seq=seq)
    if not _is_cert_id(cert_id):
        raise LedgerIntegrityError(f"bad cert_id {cert_id!r}", seq=seq)
    try:
        payload = _decode(payload_json)
    except (ValueError, RecursionError):  # a JSONDecodeError, or an int too long to convert
        raise LedgerIntegrityError("unreadable payload", seq=seq) from None
    try:
        canonical = payload.__class__ is dict and canonical_payload(payload) == payload_json
    except ValueError:  # NaN or Infinity: readable by json.loads, but not JSON
        canonical = False
    if not canonical:
        raise LedgerIntegrityError("payload is not in canonical form", seq=seq)
    return _new(LedgerEvent, (seq, timestamp, kind, cert_id, payload, prev_hash, line_hash, line))


def decode_line(line: str) -> LedgerEvent:
    """The event of a line that ``parse_line`` accepts, built without checking it.

    For such a line the result equals ``parse_line(line)``; any other line
    may give a wrong event or raise any exception, so a caller must have the
    line verified before it trusts the result.
    """
    _, seq_text, ts_text, kind_text, cert_id, payload_json, prev_hash, line_hash = _fields(line)
    return _new(LedgerEvent, (
        int(seq_text), _fromisoformat(ts_text), _KINDS[kind_text], cert_id, _decode(payload_json), prev_hash,
        line_hash, line,
    ))


def read_events(lines: Iterable[str]) -> Iterator[LedgerEvent]:
    """Parse and verify a whole ledger's lines; raises at the first bad record.

    Checks per line: digest over the raw bytes, canonical fields.  Across
    lines: seq increases without gaps from 1 and each prev_hash equals the
    previous hash, the first one genesis.
    """
    link = Ledger().link
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            raise LedgerIntegrityError(f"line {lineno}: empty record")
        event = parse_line(line, lineno=lineno)
        link(event)
        yield event

