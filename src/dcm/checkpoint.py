"""Verified state checkpoint: a ledger file's sidecar, so a command replays only new events.

``<ledger>.ckpt`` sits next to the ledger file.  Every CLI command that
appends rewrites it, through a temporary file and ``os.replace``.  It is text,
one header line (wrapped here) and then the state lines:

    {"head_hash":"...","issue_counts":[["X","copper",n],...],"last_seq":N,"prefix_bytes":L,
     "prefix_sha256":"...","state_sha256":"...","version":2}
    ["X-copper-0001",{...}]
    ...

The header and every state line are canonical JSON.  The state lines are
``Registry.state_lines()``: one ``[cert_id, form]`` pair per certificate, in
issue order.  ``issue_counts`` holds the registry's issue counters, so that a
resumed ``issue`` numbers its certificate without reading a state line.
``prefix_sha256`` digests the first ``prefix_bytes`` bytes of the ledger file,
which hold events 1..N and end at a line end; ``state_sha256`` digests the
state lines, newlines included.

A command that finds both digests right trusts the state as the replay of
that prefix.  It indexes the state lines by the cert_id each opens with and
decodes none of them: a certificate is built from its line, with every value
revalidated, when it is first read.  The certificates the command names and
those the events after the prefix touch are built before the command runs,
and those events are parsed, verified and applied with every check.  A
missing, unreadable or stale sidecar, one of another version, one that the
lines after its prefix do not continue, or one with a touched line that does
not build, means a full replay.  ``replay-verify`` never trusts the sidecar:
it replays the whole file and, when the sidecar's prefix is the file's,
checks the sidecar's counters and every state line against the replayed state.

A full replay, ``verify`` or ``load``'s fallback, runs on two processes where
it can (``_replay_checked``): a forked child checks every line with
``read_events`` while the parent builds the events from the same lines and
replays them.  The parent returns nothing before the child's verdict, and
anything but a clean exit on both sides means the sequential replay, which
decides what is wrong and raises the same error it always has.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import LedgerIntegrityError
from .ledger import _CERT_ID_RE, _HASH_RE, LedgerEvent, canonical_payload, decode_line, read_events
from .registry import Registry, replay

VERSION = 2

# the cert_id a state line opens with, matched after the newline before the line: the id charset has no quote or
# backslash, so the JSON string is the id (a literal first character lets the scan skip ahead, where ``^`` cannot)
_STATE_ID = re.compile(rf'\n\["({_CERT_ID_RE.pattern})",')


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


def _is_counter(entry) -> bool:
    """Whether ``entry`` is an ``[issuer, material, n]`` issue counter."""
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and all(isinstance(name, str) and name for name in entry[:2])
        and type(entry[2]) is int  # not bool, which is an int subclass
        and entry[2] >= 1
    )


def _header(text: bytes) -> dict:
    try:
        header = json.loads(text)
    except (ValueError, RecursionError):
        raise CheckpointError("unreadable header") from None
    if not isinstance(header, dict):
        raise CheckpointError("unknown header")
    if header.get("version") != VERSION:
        raise CheckpointError(f"version {header.get('version')!r}, not {VERSION}")
    counts = header.get("issue_counts")
    if not (
        all(type(header.get(key)) is int and header[key] >= 0 for key in ("last_seq", "prefix_bytes"))
        and all(isinstance(header.get(key), str) and _HASH_RE.fullmatch(header[key])
                for key in ("head_hash", "prefix_sha256", "state_sha256"))
        and isinstance(counts, list)
        and all(_is_counter(entry) for entry in counts)
        and len({(issuer, material) for issuer, material, _ in counts}) == len(counts)
    ):
        raise CheckpointError("unknown header")
    return header


def _decoded(lines: Iterable[str], **_link) -> Iterator[LedgerEvent]:
    """``read_events(lines, **_link)`` without its checks, for lines a forked child checks.

    ``apply_events`` still links each event to the head, so the chain
    arguments are not needed.
    """
    return map(decode_line, lines)


def _check_and_exit(lines: list[str]) -> NoReturn:
    """In a forked child: exit 0 if ``read_events`` accepts every line, else 1, writing nothing."""
    status = 1
    try:
        for _ in read_events(lines):
            pass
        status = 0
    finally:
        os._exit(status)  # no traceback, no flush of the parent's buffers, no exit handlers


def _replay_checked(lines: list[str], replayed: Callable[[Callable], Registry]) -> Registry:
    """``replayed(read_events)``, computed as ``replayed(_decoded)`` while a forked child checks ``lines``.

    ``lines`` must be every line ``replayed`` reads, in order.  The result
    is the parent's only when the child accepted every line and the parent
    side returned; otherwise it is the sequential ``replayed(read_events)``,
    which raises what is wrong.  The child is reaped before this returns or
    raises.  The replay is sequential off Linux, on one CPU, where the two
    sides would take turns, and with another thread alive, because a forked
    child could wait forever on a lock that thread held.
    """
    if (
        not hasattr(os, "sched_getaffinity")  # Linux, which also has fork
        or len(os.sched_getaffinity(0)) < 2
        or threading.active_count() > 1
    ):
        return replayed(read_events)
    try:
        pid = os.fork()
    except OSError:
        return replayed(read_events)
    if pid == 0:
        _check_and_exit(lines)
    registry = None
    try:
        registry = replayed(_decoded)
    except Exception:
        pass  # the sequential replay below finds what is wrong and says it
    finally:
        if registry is None:
            from signal import SIGKILL  # here: a command that replays without error does not import it

            os.kill(pid, SIGKILL)  # its verdict is not needed
        status = os.waitpid(pid, 0)[1]
    if registry is None or status != 0:
        return replayed(read_events)
    return registry


class LedgerFile:
    """A ledger file read once by one command, with its checkpoint sidecar.

    ``load`` keeps what ``write_checkpoint`` needs after the command appends:
    the running digest and size of the bytes read.  ``ignored`` says why a
    sidecar that exists was not used.
    """

    def __init__(self, path: Path, weight_places: int):
        self.path = path
        self.sidecar = path.with_name(path.name + ".ckpt")
        self.weight_places = weight_places
        self.ignored: str | None = None
        self._digest = hashlib.sha256()
        self._size = 0
        self._open_line: int | None = None  # the number of the last line read, if the bytes end inside it

    def _read(self) -> memoryview:
        raw = self.path.read_bytes() if self.path.exists() else b""
        self.ignored = None
        self._size = len(raw)
        self._open_line = raw.count(b"\n") + 1 if raw and raw[-1] != 0x0A else None
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
        """The sidecar's header, state text and prefix digest if its prefix opens ``data``.

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
            return header, state.decode("utf-8"), digest
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"bad state: {exc}") from None

    def load(self, touch: Iterable[str] = ()) -> Registry:
        """The file's registry: the sidecar's state plus the verified tail, else a full replay.

        From the sidecar, the certificates ``touch`` names and those the tail
        touches are built here, so a line of theirs that does not build means
        a full replay; the others are built when first read.
        """
        data = self._read()
        try:
            found = self._checkpoint(data)
            if found is not None:
                return self._resume(data, *found, touch)
        except CheckpointError as exc:
            self.ignored = str(exc)
        self._digest = hashlib.sha256(data)
        lines = _lines(data)
        del data  # the events keep their lines; the file's bytes need not outlive the replay
        return _replay_checked(lines, lambda read: replay(read(lines), weight_places=self.weight_places))

    def _resume(self, data: memoryview, header: dict, state: str, digest, touch: Iterable[str]) -> Registry:
        last_seq, head_hash, size = header["last_seq"], header["head_hash"], header["prefix_bytes"]
        lines = _split(state)
        ids = _STATE_ID.findall(f"\n{state}")  # at most one per line, at its start
        index = dict(zip(ids, lines))
        if not len(lines) == len(ids) == len(index):
            raise CheckpointError("bad state: a line does not open with a cert_id, or a cert_id repeats")
        if sum(n for _, _, n in header["issue_counts"]) != len(lines):
            raise CheckpointError(f"bad state: the issue counters do not count its {len(lines)} certificates")
        try:
            events = list(read_events(_lines(data, size), last_seq=last_seq, head_hash=head_hash))
        except LedgerIntegrityError as exc:
            # the full replay reports the ledger's own error, or shows that the sidecar was wrong
            raise CheckpointError(f"the ledger does not continue it: {exc}") from None
        registry = Registry.from_state_lines(
            index, header["issue_counts"], last_seq, head_hash, source=str(self.sidecar),
            weight_places=self.weight_places,
        )
        try:
            registry.build([*touch, *(event.cert_id for event in events)])
        except LedgerIntegrityError as exc:
            raise CheckpointError(str(exc)) from None
        try:
            registry.apply_events(events)
        except LedgerIntegrityError as exc:
            raise CheckpointError(f"the ledger does not continue it: {exc}") from None
        digest.update(data[size:])
        self._digest = digest
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

        def verified(read: Callable) -> Registry:
            registry = replay(read(prefix), weight_places=self.weight_places)
            ledger = registry.ledger
            if found is not None:
                header, state, _ = found
                if not (
                    (ledger.last_seq, ledger.head_hash) == (header["last_seq"], header["head_hash"])
                    and header["issue_counts"] == registry.issue_counts()
                    and _split(state) == registry.state_lines()
                ):
                    raise LedgerIntegrityError(f"checkpoint disagrees with the ledger at seq {header['last_seq']}")
            registry.apply_events(read(rest, last_seq=ledger.last_seq, head_hash=ledger.head_hash))
            if self._open_line is not None:
                raise self._open_line_error("every line before it verifies")
            return registry

        if self._open_line is not None:
            return verified(read_events)  # refused either way: one sequential replay finds the first error
        return _replay_checked(prefix + rest, verified)

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
        state = "".join(line + "\n" for line in registry.state_lines()).encode("utf-8")
        header = canonical_payload({
            "version": VERSION,
            "last_seq": registry.ledger.last_seq,
            "head_hash": registry.ledger.head_hash,
            "issue_counts": registry.issue_counts(),
            "prefix_bytes": self._size,
            "prefix_sha256": self._digest.hexdigest(),
            "state_sha256": hashlib.sha256(state).hexdigest(),
        })
        handle, temporary = tempfile.mkstemp(dir=self.sidecar.parent, prefix=self.sidecar.name, suffix=".tmp")
        try:
            os.chmod(temporary, stat.S_IMODE(self.path.stat().st_mode))  # readable by whoever reads the ledger
            with open(handle, "wb") as out:
                out.write(header.encode("utf-8") + b"\n" + state)
            os.replace(temporary, self.sidecar)
        except BaseException:
            os.unlink(temporary)
            raise
