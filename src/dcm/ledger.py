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
from typing import Iterable, Iterator

from .errors import DomainError, LedgerIntegrityError
from .values import Value

GENESIS_HASH = "0" * 64

_CERT_ID_RE = re.compile(r"[A-Za-z0-9_.:-]+")
_HASH_RE = re.compile(r"[0-9a-f]{64}")
# bound once: parse_line calls these on every line it reads
_is_cert_id = _CERT_ID_RE.fullmatch
_is_hash = _HASH_RE.fullmatch
_loads = json.loads
_fromisoformat = date.fromisoformat


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
# one encoder for every payload: json.dumps with these arguments would build it per call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)
_encode = _CANONICAL.encode


def canonical_payload(payload: dict) -> str:
    """Sorted-key, whitespace-free, ASCII JSON; raises ValueError on NaN or infinity."""
    return _encode(payload)


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


def _check_link(event: LedgerEvent, last_seq: int, head_hash: str) -> None:
    """Chain continuity: ``event`` must directly follow the record ending in (last_seq, head_hash)."""
    if event.seq != last_seq + 1:
        raise LedgerIntegrityError(f"expected seq {last_seq + 1}, found {event.seq}", seq=event.seq)
    if event.prev_hash != head_hash:
        raise LedgerIntegrityError("chain break: prev_hash mismatch", seq=event.seq)


def validate_cert_id(cert_id: str) -> str:
    if not _is_cert_id(cert_id):
        raise DomainError(
            f"cert_id {cert_id!r} must be non-empty and use only [A-Za-z0-9_.:-]"
        )
    return cert_id


class Ledger:
    """In-memory event log; one writer, atomic per-event append.

    A ledger may continue from a verified head (``last_seq``, ``head_hash``)
    instead of genesis; it then holds only the events after that head.
    """

    def __init__(self, last_seq: int = 0, head_hash: str = GENESIS_HASH):
        self._events: list[LedgerEvent] = []
        self._last_seq = last_seq
        self._head_hash = head_hash

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LedgerEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[LedgerEvent, ...]:
        return tuple(self._events)

    @property
    def head_hash(self) -> str:
        return self._head_hash

    @property
    def last_seq(self) -> int:
        return self._last_seq

    def seal(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date) -> LedgerEvent:
        """The event that would follow the head, sealed but not stored.

        The event's payload is the JSON round-trip of the argument, so the
        in-memory event equals what a reader reconstructs from the wire line.
        A payload canonical JSON cannot encode raises DomainError.
        """
        validate_cert_id(cert_id)
        kind = _kind_of(kind)
        try:
            payload_json = canonical_payload(payload)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"payload cannot be recorded as canonical JSON: {exc}") from None
        seq = self.last_seq + 1
        prev = self.head_hash
        line = _seal(seq, timestamp.isoformat(), kind.value, cert_id, payload_json, prev)
        return LedgerEvent(seq, timestamp, kind, cert_id, json.loads(payload_json), prev, line[-64:], line)

    def append(self, kind: EventKind, cert_id: str, payload: dict, timestamp: date) -> LedgerEvent:
        """Seal and append one event; returns it."""
        event = self.seal(kind, cert_id, payload, timestamp)
        self.append_sealed(event)
        return event

    def append_sealed(self, event: LedgerEvent) -> None:
        """Append a sealed event (from ``seal`` or read from the wire) once it links to the head."""
        _check_link(event, self._last_seq, self._head_hash)
        self._events.append(event)
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
    # a line_hash equal to a hexdigest is well formed, so only a mismatch needs its regex
    if _sha256(body) != line_hash or not _is_hash(prev_hash):
        if not (_is_hash(prev_hash) and _is_hash(line_hash)):
            raise LedgerIntegrityError("malformed hash field", seq=seq)
        raise LedgerIntegrityError("hash mismatch: record bytes do not match their digest", seq=seq)
    try:
        timestamp = _fromisoformat(ts_text)
        if timestamp.isoformat() != ts_text:
            raise ValueError(ts_text)
    except ValueError:
        raise LedgerIntegrityError(f"bad timestamp {ts_text!r}", seq=seq) from None
    kind = _KINDS.get(kind_text)
    if kind is None:
        raise LedgerIntegrityError(f"unknown event kind {kind_text!r}", seq=seq)
    if not _is_cert_id(cert_id):
        raise LedgerIntegrityError(f"bad cert_id {cert_id!r}", seq=seq)
    try:
        payload = _loads(payload_json)
    except (json.JSONDecodeError, RecursionError):
        raise LedgerIntegrityError("unreadable payload", seq=seq) from None
    try:
        canonical = isinstance(payload, dict) and _encode(payload) == payload_json
    except ValueError:  # NaN or Infinity: readable by json.loads, but not JSON
        canonical = False
    if not canonical:
        raise LedgerIntegrityError("payload is not in canonical form", seq=seq)
    return LedgerEvent(seq, timestamp, kind, cert_id, payload, prev_hash, line_hash, line)


def decode_line(line: str) -> LedgerEvent:
    """The event of a line that ``parse_line`` accepts, built without checking it.

    For such a line the result equals ``parse_line(line)``; any other line
    may give a wrong event or raise any exception, so a caller must have the
    line verified before it trusts the result.
    """
    _, seq_text, ts_text, kind_text, cert_id, payload_json, prev_hash, line_hash = _fields(line)
    return LedgerEvent(
        int(seq_text), _fromisoformat(ts_text), _KINDS[kind_text], cert_id, _loads(payload_json), prev_hash,
        line_hash, line,
    )


def read_events(lines: Iterable[str], *, last_seq: int = 0, head_hash: str = GENESIS_HASH) -> Iterator[LedgerEvent]:
    """Parse and verify a stream; raises at the first bad record.

    Checks per line: digest over the raw bytes, canonical fields.  Across
    lines: seq increases without gaps from ``last_seq`` + 1 and each prev_hash
    equals the previous hash, the first one ``head_hash``.  By default the
    stream is a whole ledger; a tail after a verified head passes that head,
    and its line numbers continue from it (one line per event).
    """
    for lineno, raw in enumerate(lines, start=last_seq + 1):
        line = raw.rstrip("\n")
        if not line:
            raise LedgerIntegrityError(f"line {lineno}: empty record")
        event = parse_line(line, lineno=lineno)
        _check_link(event, last_seq, head_hash)
        yield event
        last_seq, head_hash = event.seq, event.hash

