"""Hash-chain integrity, wire-format round trips, and tamper detection."""

from __future__ import annotations

from datetime import date

import pytest

from dcm import DomainError, EventKind, Ledger, LedgerIntegrityError, read_events
from dcm.ledger import GENESIS_HASH, _seal, canonical_payload, parse_line


def small_ledger() -> Ledger:
    ledger = Ledger()
    ledger.append(EventKind.ISSUE, "LME-copper-0001", {"face_weight": 1000.0, "owner": "a|b"}, date(2020, 1, 1))
    ledger.append(EventKind.QUOTE, "LME-copper-0001", {"t": 183, "price": 4963.533}, date(2020, 7, 1))
    ledger.append(EventKind.TRANSFER, "LME-copper-0001", {"from_owner": "a|b", "to_owner": "c"}, date(2020, 7, 1))
    ledger.append(EventKind.DELIVER, "LME-copper-0001", {"t": 365}, date(2021, 1, 1))
    return ledger


class TestChain:
    def test_first_event_chains_from_genesis(self):
        ledger = small_ledger()
        assert ledger.events[0].prev_hash == GENESIS_HASH

    def test_sequence_is_dense_and_linked(self):
        ledger = small_ledger()
        for i, event in enumerate(ledger.events):
            assert event.seq == i + 1
            if i:
                assert event.prev_hash == ledger.events[i - 1].hash

    def test_head_hash_tracks_last_event(self):
        ledger = small_ledger()
        assert ledger.head_hash == ledger.events[-1].hash
        assert Ledger().head_hash == GENESIS_HASH

    def test_wire_round_trip_preserves_events(self):
        ledger = small_ledger()
        again = tuple(read_events(ledger.to_lines()))
        assert again == ledger.events

    def test_verify_counts_events(self):
        assert len(list(read_events(small_ledger().to_lines()))) == 4

    def test_payload_with_pipes_and_unicode_survives(self):
        ledger = Ledger()
        payload = {"note": "crossing | the µ delimiter", "n": 3}
        ledger.append(EventKind.QUOTE, "X-1", payload, date(2020, 1, 1))
        again = list(read_events(ledger.to_lines()))
        assert again[0].payload == payload

    def test_payload_is_normalized_to_its_wire_form(self):
        ledger = Ledger()
        event = ledger.append(EventKind.QUOTE, "X-1", {"values": (1, 2)}, date(2020, 1, 1))
        assert event.payload == {"values": [1, 2]}

    def test_cert_id_charset_is_enforced(self):
        ledger = Ledger()
        with pytest.raises(DomainError):
            ledger.append(EventKind.ISSUE, "bad|id", {}, date(2020, 1, 1))
        with pytest.raises(DomainError):
            ledger.append(EventKind.ISSUE, "", {}, date(2020, 1, 1))
        with pytest.raises(DomainError):
            ledger.append(EventKind.ISSUE, "X-1\n", {}, date(2020, 1, 1))

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), object()], ids=["inf", "nan", "object"])
    def test_payload_canonical_json_cannot_encode_is_a_domain_error(self, value):
        ledger = Ledger()
        with pytest.raises(DomainError, match="canonical JSON"):
            ledger.append(EventKind.QUOTE, "X-1", {"x": value}, date(2020, 1, 1))
        assert len(ledger) == 0


class TestStreamValidation:
    def test_empty_stream_is_an_empty_ledger(self):
        assert list(read_events([])) == []

    def test_dropped_line_is_a_gap(self):
        lines = small_ledger().to_lines()
        with pytest.raises(LedgerIntegrityError, match="seq"):
            list(read_events([lines[0]] + lines[2:]))

    def test_reordered_lines_break_the_chain(self):
        lines = small_ledger().to_lines()
        with pytest.raises(LedgerIntegrityError):
            list(read_events([lines[1], lines[0]] + lines[2:]))

    def test_truncation_from_the_front_is_detected(self):
        lines = small_ledger().to_lines()
        with pytest.raises(LedgerIntegrityError):
            list(read_events(lines[1:]))

    def test_empty_line_is_rejected(self):
        lines = small_ledger().to_lines()
        with pytest.raises(LedgerIntegrityError, match="empty"):
            list(read_events(lines + [""]))

    def test_error_names_the_first_bad_seq(self):
        lines = small_ledger().to_lines()
        mutated = lines[:2] + [_flip(lines[2], lines[2].index("{") + 2)] + lines[3:]
        with pytest.raises(LedgerIntegrityError) as excinfo:
            list(read_events(mutated))
        assert excinfo.value.seq == 3

    def test_parse_line_rejects_wrong_field_count(self):
        with pytest.raises(LedgerIntegrityError):
            parse_line("1|2020-01-01|ISSUE|abc", lineno=1)

    def test_digested_nan_payload_is_not_canonical(self):
        payload = '{"x":NaN}'  # json.loads reads it; JSON does not allow it
        line = _seal(1, "2020-01-01", "ISSUE", "X-1", payload, GENESIS_HASH)
        with pytest.raises(LedgerIntegrityError, match="seq 1: payload is not in canonical form"):
            parse_line(line)

    @pytest.mark.parametrize("seq_text", ["0_1", " 1"])
    def test_seq_text_must_be_the_digested_one(self, seq_text):
        line = small_ledger().to_lines()[0]  # its hash covers "1|..."
        forged = seq_text + line[line.index("|"):]
        with pytest.raises(LedgerIntegrityError):
            list(read_events([forged]))

    @pytest.mark.parametrize(
        ("seq_text", "ts_text", "cert_id", "prev_hash", "forge_digest", "message"),
        [
            ("01", "2020-01-01", "X-1", GENESIS_HASH, None, "bad sequence number"),
            ("1", "20200101", "X-1", GENESIS_HASH, None, "bad timestamp"),
            ("1", "2020-01-01", "X-1\n", GENESIS_HASH, None, "bad cert_id"),
            ("1", "2020-01-01", "X-1", "A" * 64, None, "seq 1: malformed hash field"),
            ("1", "2020-01-01", "X-1", "A" * 64, lambda digest: "0" * 64, "seq 1: malformed hash field"),
            ("1", "2020-01-01", "X-1", GENESIS_HASH, lambda digest: digest[:63], "seq 1: malformed hash field"),
        ],
        ids=["seq", "timestamp", "cert-id", "upper-case-prev-hash", "upper-case-prev-hash-wrong-digest", "short-digest"],
    )
    def test_digested_non_canonical_fields_are_rejected(self, seq_text, ts_text, cert_id, prev_hash, forge_digest, message):
        payload = '{"x":1}'
        line = _seal(seq_text, ts_text, "ISSUE", cert_id, payload, prev_hash)
        if forge_digest is not None:
            body, digest = line.rsplit("|", 1)
            line = f"{body}|{forge_digest(digest)}"
        with pytest.raises(LedgerIntegrityError, match=message):
            list(read_events([line]))

    def test_canonical_payload_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            canonical_payload({"x": float("nan")})


def _flip(line: str, position: int) -> str:
    original = line[position]
    replacement = "X" if original != "X" else "Y"
    return line[:position] + replacement + line[position + 1 :]


class TestTamperDetection:
    def test_every_single_byte_mutation_is_caught(self):
        # exhaustive: flip each byte of the whole wire text, including the
        # newlines between records, and require an integrity failure
        lines = small_ledger().to_lines()
        text = "\n".join(lines)
        for position in range(len(text)):
            mutated = _flip(text, position)
            with pytest.raises(LedgerIntegrityError):
                list(read_events(mutated.split("\n")))

    def test_hash_field_mutations_are_caught(self):
        lines = small_ledger().to_lines()
        tail = lines[-1]
        for position in range(len(tail) - 64, len(tail)):
            with pytest.raises(LedgerIntegrityError):
                list(read_events(lines[:-1] + [_flip(tail, position)]))
