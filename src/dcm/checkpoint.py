"""Verified state checkpoint: a ledger file's sidecar, so a command replays only new events.

``<ledger>.ckpt`` sits next to the ledger file.  Every CLI command that
appends rewrites it, through a temporary file and ``os.replace``.  It is text,
one header line and then the state lines:

    {"head_hash":"...","last_seq":N,"prefix_bytes":L,"prefix_sha256":"...","state_sha256":"...","version":1}
    ["X-copper-0001",{...}]
    ...

The header and every state line are canonical JSON.  The state lines are the
``[cert_id, form]`` pairs of ``Registry.to_state()``, in issue order.
``prefix_sha256`` digests the first ``prefix_bytes`` bytes of the ledger file,
which hold events 1..N and end at a line end; ``state_sha256`` digests the
state lines, newlines included.

A command that finds both digests right trusts the state as the replay of
that prefix.  It rebuilds the registry from the state, revalidating every
value, and parses, verifies and applies only the bytes after the prefix.  A
missing, unreadable or stale sidecar, or one that the lines after its prefix
do not continue, means a full replay.  ``replay-verify``
never trusts the sidecar: it replays the whole file and, when the sidecar's
prefix is the file's, checks the sidecar's state against the replayed one.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from pathlib import Path

from .errors import DCMError, LedgerIntegrityError
from .ledger import _HASH_RE, LedgerEvent, canonical_payload, read_events
from .registry import Registry, certificate_state, replay

VERSION = 1


class CheckpointError(Exception):
    """The sidecar cannot be read, or it does not describe the ledger file."""


def _split(text: str) -> list[str]:
    """The lines of ``text``, ended only by ``\n``: any other byte stays inside its line."""
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # the end of the last line, or of an empty text
    return lines


def _lines(data: memoryview, start: int = 0, end: int | None = None) -> list[str]:
    """The text lines of ``data[start:end]``, where ``data`` holds the whole ledger file."""
    try:
        return _split(str(data[start:end], "utf-8"))
    except UnicodeDecodeError as exc:
        offset = start + exc.start
        line = bytes(data[:offset]).count(b"\n") + 1
        raise LedgerIntegrityError(f"line {line}, byte offset {offset}: not UTF-8 ({exc.reason})") from None


def _state_line(cert_id: str, cert) -> str:
    """The sidecar's state line of one certificate, without its newline."""
    return canonical_payload([cert_id, certificate_state(cert)])


def _header(text: bytes) -> dict:
    try:
        header = json.loads(text)
    except ValueError:
        raise CheckpointError("unreadable header") from None
    if not (
        isinstance(header, dict)
        and header.get("version") == VERSION
        and all(isinstance(header.get(key), int) and header[key] >= 0 for key in ("last_seq", "prefix_bytes"))
        and all(isinstance(header.get(key), str) and _HASH_RE.fullmatch(header[key])
                for key in ("head_hash", "prefix_sha256", "state_sha256"))
    ):
        raise CheckpointError("unknown header")
    return header


class LedgerFile:
    """A ledger file read once by one command, with its checkpoint sidecar.

    ``load`` keeps what ``write_checkpoint`` needs after the command appends:
    the running digest and size of the bytes read, and the state line of each
    certificate the sidecar held.  ``ignored`` says why a sidecar that exists
    was not used.
    """

    def __init__(self, path: Path, weight_places: int):
        self.path = path
        self.sidecar = path.with_name(path.name + ".ckpt")
        self.weight_places = weight_places
        self.ignored: str | None = None
        self._digest = hashlib.sha256()
        self._size = 0
        self._open_line: int | None = None  # the number of the last line read, if the bytes end inside it
        self._state_lines: dict[str, str] = {}

    def _read(self) -> memoryview:
        raw = self.path.read_bytes() if self.path.exists() else b""
        self.ignored = None
        self._size = len(raw)
        self._open_line = raw.count(b"\n") + 1 if raw and raw[-1] != 0x0A else None
        self._state_lines = {}
        return memoryview(raw)

    def _open_line_error(self, outcome: str) -> LedgerIntegrityError:
        return LedgerIntegrityError(
            f"line {self._open_line}: the ledger file ends inside this line, which has no final newline "
            f"(a torn record?); {outcome}"
        )

    def check_appendable(self) -> None:
        """Refuse to append after bytes that end inside a line: a new record would run into it."""
        if self._open_line is not None:
            raise self._open_line_error("nothing was appended")

    def _checkpoint(self, data: memoryview) -> tuple | None:
        """The sidecar's header, state lines and prefix digest if its prefix opens ``data``.

        None when there is no sidecar; CheckpointError when it cannot be used.
        """
        try:
            raw = self.sidecar.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read it: {exc}") from None
        head, _, state = raw.partition(b"\n")
        header = _header(head)
        if hashlib.sha256(state).hexdigest() != header["state_sha256"]:
            raise CheckpointError("state digest mismatch")
        size = header["prefix_bytes"]
        if size > len(data) or (size and data[size - 1] != 0x0A):
            raise CheckpointError("its prefix is not part of the ledger file")
        digest = hashlib.sha256(data[:size])
        if digest.hexdigest() != header["prefix_sha256"]:
            raise CheckpointError("its prefix is not part of the ledger file")
        try:
            return header, _split(state.decode("utf-8")), digest
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"bad state: {exc}") from None

    def load(self) -> Registry:
        """The file's registry: the sidecar's state plus the verified tail, else a full replay."""
        data = self._read()
        try:
            found = self._checkpoint(data)
            if found is not None:
                return self._resume(data, *found)
        except CheckpointError as exc:
            self.ignored = str(exc)
        self._digest = hashlib.sha256(data)
        lines = _lines(data)
        del data  # the events keep their lines; the file's bytes need not outlive the replay
        return replay(read_events(lines), weight_places=self.weight_places)

    def _resume(self, data: memoryview, header: dict, state_lines: list[str], digest) -> Registry:
        last_seq, head_hash, size = header["last_seq"], header["head_hash"], header["prefix_bytes"]
        try:
            state = json.loads(f"[{','.join(state_lines)}]")  # one call: a call per line costs twice as much
            if len(state) != len(state_lines):
                raise ValueError(f"{len(state)} values on {len(state_lines)} lines")
            registry = Registry.from_state(state, last_seq, head_hash, weight_places=self.weight_places)
        except (DCMError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad state: {type(exc).__name__}: {exc}") from None
        try:
            registry.apply_events(read_events(_lines(data, size), last_seq=last_seq, head_hash=head_hash))
        except LedgerIntegrityError as exc:
            # the full replay reports the ledger's own error, or shows that the sidecar was wrong
            raise CheckpointError(f"the ledger does not continue it: {exc}") from None
        digest.update(data[size:])
        self._digest = digest
        self._state_lines = {pair[0]: line for pair, line in zip(state, state_lines)}
        return registry

    def verify(self) -> Registry:
        """Replay the whole file; raises LedgerIntegrityError if a sidecar for its prefix disagrees.

        A file that ends inside a line is refused once every line before that one verifies.
        """
        data = self._read()
        try:
            found = self._checkpoint(data)
        except CheckpointError as exc:
            self.ignored = str(exc)
            found = None
        size = 0 if found is None else found[0]["prefix_bytes"]
        prefix, rest = _lines(data, 0, size), _lines(data, size)
        if self._open_line is not None:
            del rest[-1]  # a checkpoint's prefix ends at a line end, so the open line is the rest's last
        del data
        registry = replay(read_events(prefix), weight_places=self.weight_places)
        ledger = registry.ledger
        if found is not None:
            header, state_lines, _ = found
            certificates = registry.certificates
            if not (
                (ledger.last_seq, ledger.head_hash) == (header["last_seq"], header["head_hash"])
                and len(state_lines) == len(certificates)
                and all(line == _state_line(*pair) for line, pair in zip(state_lines, certificates.items()))
            ):
                raise LedgerIntegrityError(f"checkpoint disagrees with the ledger at seq {header['last_seq']}")
        registry.apply_events(read_events(rest, last_seq=ledger.last_seq, head_hash=ledger.head_hash))
        if self._open_line is not None:
            raise self._open_line_error("every line before it verifies")
        return registry

    def write_checkpoint(self, registry: Registry, appended: tuple[LedgerEvent, ...]) -> None:
        """Rewrite the sidecar for the file as read plus ``appended``, the lines just written to it.

        When the bytes read ended inside a line, the appended lines ran into
        it and no checkpoint describes the file, so the sidecar is left alone.
        """
        if self._open_line is not None:
            return
        import tempfile  # here: only a command that appends needs it

        for event in appended:
            line = event.line.encode("utf-8") + b"\n"
            self._digest.update(line)
            self._size += len(line)
        changed = {event.cert_id for event in registry.ledger}
        reuse = self._state_lines
        state = [
            (reuse[cert_id] if cert_id in reuse and cert_id not in changed else _state_line(cert_id, cert)) + "\n"
            for cert_id, cert in registry.certificates.items()
        ]
        state_digest = hashlib.sha256()
        for line in state:
            state_digest.update(line.encode("utf-8"))
        header = canonical_payload({
            "version": VERSION,
            "last_seq": registry.ledger.last_seq,
            "head_hash": registry.ledger.head_hash,
            "prefix_bytes": self._size,
            "prefix_sha256": self._digest.hexdigest(),
            "state_sha256": state_digest.hexdigest(),
        })
        handle, temporary = tempfile.mkstemp(dir=self.sidecar.parent, prefix=self.sidecar.name, suffix=".tmp")
        try:
            os.chmod(temporary, stat.S_IMODE(self.path.stat().st_mode))  # readable by whoever reads the ledger
            with open(handle, "w", encoding="utf-8", newline="\n") as out:
                out.write(header + "\n")
                out.writelines(state)
            os.replace(temporary, self.sidecar)
        except BaseException:
            os.unlink(temporary)
            raise
