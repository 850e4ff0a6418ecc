"""Verified state checkpoint: a ledger file's sidecar, so a command skips the replay.

``LedgerFile`` owns a ledger file's bytes: it reads them, appends a
command's events in one write and rewrites ``<ledger>.ckpt``, the sidecar next
to the file, through a temporary file and ``os.replace``.  The sidecar is text,
one header line (wrapped here) and then the state lines:

    {"issue_counts":[["X","copper",n],...],"prefix_bytes":L,"prefix_sha256":"...",
     "state_sha256":"...","version":4}
    ["X-copper-0001",{...}]
    ...

The header and every state line are canonical JSON.  The state lines are
``Registry.state_lines()``: one ``[cert_id, form]`` pair per certificate, in
issue order.  ``issue_counts`` holds the registry's issue counters, so that a
resumed ``issue`` numbers its certificate without reading a state line.
``prefix_bytes`` and ``prefix_sha256`` are the size and digest of the whole
ledger file the state was written for; ``state_sha256`` digests the canonical
JSON of ``issue_counts``, a newline, and the state lines, newlines included.

A sidecar is used only for exactly the bytes it was written for.  A command
that finds the file's size and both digests right trusts the state as the
replay of the file, and takes the chain head from the file's last line, or
genesis for an empty file.  It indexes the state lines by the cert_id each
opens with and decodes none of them: a certificate is built from its line,
with every value revalidated, when it is first read, and the certificates the
command names are built before it runs.  A missing, unreadable or stale
sidecar, one of another version, one written for fewer or more bytes than the
file holds (after a crash between the append and the sidecar's rewrite, or
after another writer appended), or one with a named line that does not build,
means a full replay.  ``replay-verify`` never trusts the sidecar: it replays
the whole file and, when the sidecar was written for it, checks the sidecar's
counters and every state line against the replayed state.  A file that ends
inside a line is never resumed, nor compared with its sidecar: every command
replays it in full and refuses it once the lines before that one verify.

A command that appends holds an exclusive ``flock`` on the ledger file
(``locked``) from before it reads the file until after the sidecar's
``os.replace``, so a second writer waits for the first and reads what it
wrote; ``replay-verify`` holds a shared one.  The CLI takes the exclusive
lock in one block, ``AppContext.updating``, which loads, lets the command
operate and, when that raised nothing, appends and rewrites the sidecar.
The lock ends with the block: ``load``, ``verify``, ``append`` and
``write_checkpoint`` take none, so two ``LedgerFile`` objects on one path in
one process never block each other.

``load``'s fallback and ``verify`` share one full replay (``_replay``), which
runs on two processes where it can (``_replay_checked``): a forked child
checks every line with ``read_events`` while the parent builds the events
from the same lines and replays them.  The parent returns nothing before the
child's verdict, and anything but a clean exit on both sides means the
sequential replay, which decides what is wrong and raises the same error it
always has.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import stat
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import ConfigError, LedgerIntegrityError
from .ledger import (
    _CERT_ID_RE, _HASH_RE, GENESIS_HASH, LedgerEvent, canonical_payload, decode_line, parse_line, read_events,
)
from .registry import Registry, replay

VERSION = 4

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


def _lines(data: memoryview) -> list[str]:
    """The text lines of ``data``, the whole ledger file."""
    try:
        return _split(str(data, "utf-8"))
    except UnicodeDecodeError as exc:
        line = bytes(data[: exc.start]).count(b"\n") + 1
        raise LedgerIntegrityError(f"line {line}, byte offset {exc.start}: not UTF-8 ({exc.reason})") from None


def _ends_inside_a_line(data: memoryview) -> bool:
    """Whether the file's bytes end without a final newline: its last line is open, perhaps a torn record."""
    return len(data) > 0 and data[-1] != 0x0A


def _is_counter(entry) -> bool:
    """Whether ``entry`` is an ``[issuer, material, n]`` issue counter."""
    return (
        isinstance(entry, list)
        and len(entry) == 3
        and all(isinstance(name, str) and name for name in entry[:2])
        and type(entry[2]) is int  # not bool, which is an int subclass
        and entry[2] >= 1
    )


def _state_digest(issue_counts: list, state: bytes) -> str:
    """``state_sha256`` of a sidecar: the digest of the canonical ``issue_counts``, a newline and ``state``."""
    digest = hashlib.sha256(canonical_payload(issue_counts).encode("utf-8") + b"\n")
    digest.update(state)
    return digest.hexdigest()


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
        type(header.get("prefix_bytes")) is int
        and all(isinstance(header.get(key), str) and _HASH_RE.fullmatch(header[key])
                for key in ("prefix_sha256", "state_sha256"))
        and isinstance(counts, list)
        and all(_is_counter(entry) for entry in counts)
        and len({(issuer, material) for issuer, material, _ in counts}) == len(counts)
    ):
        raise CheckpointError("unknown header")
    return header


def _check_and_exit(lines: list[str]) -> NoReturn:
    """In a forked child: exit 0 if ``read_events`` accepts every line, else 1, writing nothing."""
    status = 1
    try:
        for _ in read_events(lines):
            pass
        status = 0
    finally:
        os._exit(status)  # no traceback, no flush of the parent's buffers, no exit handlers


def _replay_checked(lines: list[str], replayed: Callable[[Iterator[LedgerEvent]], Registry]) -> Registry:
    """``replayed(read_events(lines))``, computed on the lines decoded unchecked while a forked child checks them.

    The parent passes ``replayed`` ``map(decode_line, lines)``, whose events
    ``apply_events`` still links to the head.  The result is the parent's
    only when the child accepted every line and the parent side returned;
    otherwise it is the sequential ``replayed(read_events(lines))``, which
    raises what is wrong.  The child is reaped before this returns or raises.
    The replay is sequential off Linux, on one CPU, where the two sides would
    take turns, and with another thread alive, because a forked child could
    wait forever on a lock that thread held.
    """
    if (
        not hasattr(os, "sched_getaffinity")  # Linux, which also has fork
        or len(os.sched_getaffinity(0)) < 2
        or threading.active_count() > 1
    ):
        return replayed(read_events(lines))
    try:
        pid = os.fork()
    except OSError:
        return replayed(read_events(lines))
    if pid == 0:
        _check_and_exit(lines)
    registry = None
    try:
        registry = replayed(map(decode_line, lines))
    except Exception:
        pass  # the sequential replay below finds what is wrong and says it
    finally:
        if registry is None:
            from signal import SIGKILL  # here: a command that replays without error does not import it

            os.kill(pid, SIGKILL)  # its verdict is not needed
        status = os.waitpid(pid, 0)[1]
    if registry is None or status != 0:
        return replayed(read_events(lines))
    return registry


class LedgerFile:
    """A ledger file read once by one command, which appends to it and rewrites its checkpoint sidecar.

    A read keeps what ``write_checkpoint`` needs, the running digest and
    size of the bytes read, and ``append`` advances both by the bytes it
    writes.  ``ignored`` says why a sidecar that exists was not used.
    """

    def __init__(self, path: Path):
        if not path.name:  # ".", "/": no file, and no name to build the sidecar's from
            raise ConfigError(f"ledger path {path} names no file")
        self.path = path
        self.sidecar = path.with_name(path.name + ".ckpt")
        self.ignored: str | None = None
        self._digest = hashlib.sha256()
        self._size = 0

    @contextmanager
    def locked(self, shared: bool = False) -> Iterator[None]:
        """Hold ``flock`` on the ledger file for the block: exclusive, or shared with ``shared``.

        A writer creates a missing file, empty, to lock it.  The lock ends with
        the block, not with this object.  A file that cannot be opened is not
        locked: reading it, or appending to it, fails and says why.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY if shared else os.O_RDONLY | os.O_CREAT, 0o666)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _read(self, verifying: bool = False) -> memoryview:
        """The file's bytes; a missing file reads as empty, unless ``verifying``, which refuses it."""
        try:
            raw = self.path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):  # no file at the path, or a file where a directory should be
            if verifying:
                raise ConfigError(f"ledger file not found: {self.path}") from None
            raw = b""
        except OSError as exc:  # a directory, a file without read permission, a name too long
            raise ConfigError(f"cannot read ledger file {self.path}: {exc}") from None
        self.ignored = None
        self._size = len(raw)
        self._digest = hashlib.sha256(raw)
        return memoryview(raw)

    def _checkpoint(self, data: memoryview) -> tuple | None:
        """The sidecar's header and state text if the sidecar was written for ``data``, the bytes read.

        None when there is no sidecar, or when ``data`` ends inside a line: the
        full replay alone reads such a file, and refuses it.  CheckpointError
        when the sidecar cannot be used.
        """
        if _ends_inside_a_line(data):
            return None
        try:
            raw = self.sidecar.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read it: {exc}") from None
        head, _, state = raw.partition(b"\n")
        header = _header(head)
        if header["prefix_bytes"] != len(data):
            raise CheckpointError(
                f"it was written for {header['prefix_bytes']} bytes of the ledger file, which holds {len(data)}"
            )
        if _state_digest(header["issue_counts"], state) != header["state_sha256"]:
            raise CheckpointError("state digest mismatch")
        if self._digest.hexdigest() != header["prefix_sha256"]:
            raise CheckpointError("it does not match the ledger file's bytes")
        try:
            return header, state.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"bad state: {exc}") from None

    def load(self, touch: Iterable[str] = ()) -> Registry:
        """The file's registry: the state of a sidecar written for the file, else a full replay.

        From the sidecar, the certificates ``touch`` names are built here, so a
        line of theirs that does not build means a full replay; the others are
        built when first read.
        """
        data = self._read()
        try:
            found = self._checkpoint(data)
            if found is not None:
                return self._resume(data, *found, touch)
        except CheckpointError as exc:
            self.ignored = str(exc)
        return self._replay(data)

    def _resume(self, data: memoryview, header: dict, state: str, touch: Iterable[str]) -> Registry:
        head = (0, GENESIS_HASH)
        if data:  # the file's last line, which the digest covers
            start = data.obj.rfind(b"\n", 0, len(data) - 1) + 1
            try:
                last = parse_line(str(data[start:-1], "utf-8"))
            except (LedgerIntegrityError, UnicodeDecodeError):
                lineno = data.obj.count(b"\n", 0, start) + 1  # counted here only: a resume that parses pays nothing
                try:  # again, naming the line
                    parse_line(str(data[start:-1], "utf-8"), lineno)
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"bad last line: line {lineno}: not UTF-8 ({exc.reason})") from None
                except LedgerIntegrityError as exc:
                    raise CheckpointError(f"bad last line: {exc}") from None
            head = (last.seq, last.hash)
        lines = _split(state)
        ids = _STATE_ID.findall(f"\n{state}")  # at most one per line, at its start
        index = dict(zip(ids, lines))
        if not len(lines) == len(ids) == len(index):
            raise CheckpointError("bad state: a line does not open with a cert_id, or a cert_id repeats")
        if sum(n for _, _, n in header["issue_counts"]) != len(lines):
            raise CheckpointError(f"bad state: the issue counters do not count its {len(lines)} certificates")
        registry = Registry.from_state_lines(index, header["issue_counts"], *head, source=str(self.sidecar))
        try:
            registry.build(touch)
        except LedgerIntegrityError as exc:
            raise CheckpointError(str(exc)) from None
        return registry

    def verify(self) -> Registry:
        """Replay the whole file; raises LedgerIntegrityError if a sidecar written for it disagrees.

        A missing file is a ConfigError.
        """
        data = self._read(verifying=True)
        try:
            found = self._checkpoint(data)
        except CheckpointError as exc:
            self.ignored = str(exc)
            found = None
        return self._replay(data, found)

    def _replay(self, data: memoryview, found: tuple | None = None) -> Registry:
        """The registry of ``data``, the whole file, by a full replay; ``found``, a sidecar's, is checked against it.

        A file that ends inside a line is refused once every line before that
        one verifies.  This releases ``data``: the lines hold its text.
        """
        torn = _ends_inside_a_line(data)
        lines = _lines(data)
        data.release()  # the file's bytes need not outlive the replay

        def verified(events: Iterator[LedgerEvent]) -> Registry:
            registry = replay(events)
            if found is not None:
                header, state = found
                if header["issue_counts"] != registry.issue_counts() or _split(state) != registry.state_lines():
                    seq = registry.ledger.last_seq
                    raise LedgerIntegrityError(f"checkpoint disagrees with the ledger at seq {seq}")
            return registry

        registry = _replay_checked(lines[:-1] if torn else lines, verified)
        if torn:
            raise LedgerIntegrityError(
                f"line {len(lines)}: the ledger file ends inside this line, which has no final newline "
                "(a torn record?); every line before it verifies"
            )
        return registry

    def append(self, events: Iterable[LedgerEvent]) -> None:
        """Write the lines of ``events`` after the bytes read, in one write, and count them in the running digest."""
        written = "".join(event.line + "\n" for event in events).encode("utf-8")
        try:
            with self.path.open("ab") as handle:
                handle.write(written)
        except OSError as exc:
            raise ConfigError(f"cannot append to ledger file {self.path}: {exc}") from None
        self._digest.update(written)
        self._size += len(written)

    def write_checkpoint(self, registry: Registry) -> None:
        """Rewrite the sidecar for the file as read plus what ``append`` wrote, whose state ``registry`` holds."""
        import tempfile  # here: only a command that appends needs it

        state = "".join(line + "\n" for line in registry.state_lines()).encode("utf-8")
        counts = registry.issue_counts()
        header = canonical_payload({
            "version": VERSION,
            "issue_counts": counts,
            "prefix_bytes": self._size,
            "prefix_sha256": self._digest.hexdigest(),
            "state_sha256": _state_digest(counts, state),
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
