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
compares the file's size with ``prefix_bytes`` before it hashes anything,
then checks the state digest and hashes the file in blocks; it reads the file
only for its last line, which gives the chain head (genesis for an empty
file).  If all match, it trusts the state as the replay of the file.  It
keeps the state as the sidecar's bytes, checked once as UTF-8 and refused
unless its newline count is the sum of the issue counters, and indexes none
of its lines: ``Registry.from_state`` finds a certificate's line by one
search for ``\n["<cert_id>",`` when the certificate is first read, and the
certificates the command names are built before it runs.  A line that opens
with no cert_id, or a cert_id on two lines, is not refused up front: it is
found when every certificate is read, or by ``replay-verify``.  A missing,
unreadable or stale sidecar, one of another version, one written for fewer
or more bytes than the file holds (after a crash between the append and the
sidecar's rewrite, or after another writer appended), or one with a named
line that does not build, means a full replay.  ``write_checkpoint`` streams
``Registry.state_pieces()`` through one digest and one write: the unchanged
byte ranges of a resumed state are copied, and only the lines of the
certificates the command built, changed or issued are encoded.  The two
state digests, the file digest, the newline count and the write are the
floor of a resumed command's cost.  ``replay-verify`` never trusts the
sidecar: it replays the whole file and, when the sidecar was written for it,
checks the sidecar's counters and state bytes against the replayed state.  A
file that ends inside a line is never resumed, nor compared with its sidecar:
every command replays it in full and refuses it once the lines before that
one verify.

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
import stat
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

from .errors import ConfigError, LedgerIntegrityError
from .ledger import (
    _HASH_RE, GENESIS_HASH, LedgerEvent, canonical_payload, decode_line, parse_line, read_events,
)
from .registry import Registry, replay

VERSION = 4
_BLOCK = 1 << 17  # the ledger file is hashed this many bytes at a time, through a buffer that stays in cache


class CheckpointError(Exception):
    """The sidecar cannot be read, or it does not describe the ledger file."""


def _lines(data: memoryview) -> list[str]:
    """The text lines of ``data``, the whole ledger file, ended only by ``\n``: any other byte stays inside its line."""
    try:
        lines = str(data, "utf-8").split("\n")
    except UnicodeDecodeError as exc:
        line = bytes(data[: exc.start]).count(b"\n") + 1
        raise LedgerIntegrityError(f"line {line}, byte offset {exc.start}: not UTF-8 ({exc.reason})") from None
    if not lines[-1]:
        del lines[-1]  # the end of the last line, or of an empty file
    return lines


def _ends_inside_a_line(data) -> bool:
    """Whether the file's bytes, or its last line's, end without a final newline: its last line is open."""
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


def _state_digest(issue_counts: list, pieces: Iterable) -> str:
    """``state_sha256``: the digest of the canonical ``issue_counts``, a newline and the state ``pieces`` in order."""
    digest = hashlib.sha256(canonical_payload(issue_counts).encode("utf-8") + b"\n")
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest()


def _last_line(fd: int, size: int) -> tuple[int, bytes]:
    """Where the last line of the file's first ``size`` bytes starts, and its bytes, newline included."""
    step = 4096
    while True:
        start = max(0, size - step)
        tail = os.pread(fd, size - start, start)
        cut = tail.rfind(b"\n", 0, len(tail) - 1) + 1
        if cut or not start:
            return start + cut, tail[cut:]
        step *= 16


def _hashed(handle, size: int):
    """The SHA-256 of the file's first ``size`` bytes, read ``_BLOCK`` bytes at a time."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(min(size, _BLOCK)))
    handle.seek(0)
    while size:
        read = handle.readinto(block[: min(size, _BLOCK)])
        if not read:  # the file shrank: the digest is of fewer bytes, and matches no sidecar's
            break
        digest.update(block[:read])
        size -= read
    return digest


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
        self._size = len(raw)
        self._digest = hashlib.sha256(raw)
        return memoryview(raw)

    def _checkpoint(self, size: int, ledger_sha256: Callable[[], str]) -> tuple | None:
        """The sidecar's header, its bytes and where its state starts, if it was written for the file's ``size`` bytes.

        ``ledger_sha256`` digests those bytes; it is called once the header
        and the state digest agree.  None when there is no sidecar;
        CheckpointError when it cannot be used.
        """
        try:
            raw = self.sidecar.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read it: {exc}") from None
        end = raw.find(b"\n")
        if end < 0:
            end = len(raw)
        header = _header(raw[:end])
        if header["prefix_bytes"] != size:
            raise CheckpointError(
                f"it was written for {header['prefix_bytes']} bytes of the ledger file, which holds {size}"
            )
        state = memoryview(raw)[end + 1 :]
        if _state_digest(header["issue_counts"], (state,)) != header["state_sha256"]:
            raise CheckpointError("state digest mismatch")
        if ledger_sha256() != header["prefix_sha256"]:
            raise CheckpointError("it does not match the ledger file's bytes")
        if not raw.isascii():  # else every byte is UTF-8 already
            try:
                str(state, "utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"bad state: {exc}") from None
        return header, raw, end + 1

    def load(self, touch: Iterable[str] = ()) -> Registry:
        """The file's registry: the state of a sidecar written for the file, else a full replay.

        From the sidecar, the certificates ``touch`` names are built here, so a
        line of theirs that does not build means a full replay; the others are
        built when first read.
        """
        self.ignored = None
        try:
            registry = self._resume(touch)
            if registry is not None:
                return registry
        except CheckpointError as exc:
            self.ignored = str(exc)
        return self._replay(self._read())

    def _resume(self, touch: Iterable[str]) -> Registry | None:
        """The registry of a sidecar written for the file, read without reading the whole file; None without one.

        The file is hashed in blocks and only its last line is read, within the
        size the sidecar was written for.  A file that ends inside a line is
        not resumed: the full replay alone reads it, and refuses it.
        """
        try:
            with open(self.path, "rb", buffering=0) as handle:
                return self._resume_from(handle, touch)
        except (FileNotFoundError, NotADirectoryError):  # no file: an empty ledger
            return self._resume_from(None, touch)
        except OSError as exc:  # a directory, a file without read permission, a name too long
            raise ConfigError(f"cannot read ledger file {self.path}: {exc}") from None

    def _resume_from(self, handle, touch: Iterable[str]) -> Registry | None:
        size = 0 if handle is None else os.fstat(handle.fileno()).st_size
        line_start, last = _last_line(handle.fileno(), size) if size else (0, b"")
        if _ends_inside_a_line(last):
            return None
        self._size, self._digest = size, hashlib.sha256()

        def ledger_sha256() -> str:
            if size:
                self._digest = _hashed(handle, size)
            return self._digest.hexdigest()

        found = self._checkpoint(size, ledger_sha256)
        if found is None:
            return None
        header, raw, start = found
        head = (0, GENESIS_HASH)
        if last:  # the file's last line, which the digest covers
            try:
                parsed = parse_line(str(last[:-1], "utf-8"))
            except (LedgerIntegrityError, UnicodeDecodeError):
                lineno = os.pread(handle.fileno(), line_start, 0).count(b"\n") + 1  # counted on this path only
                try:  # again, naming the line
                    parse_line(str(last[:-1], "utf-8"), lineno)
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"bad last line: line {lineno}: not UTF-8 ({exc.reason})") from None
                except LedgerIntegrityError as exc:
                    raise CheckpointError(f"bad last line: {exc}") from None
            head = (parsed.seq, parsed.hash)
        open_line = len(raw) > start and raw[-1] != 0x0A
        lines = raw.count(b"\n", start) + open_line
        if sum(n for _, _, n in header["issue_counts"]) != lines:
            raise CheckpointError(f"bad state: the issue counters do not count its {lines} certificates")
        if open_line:
            raise CheckpointError("bad state: its last line has no final newline")
        registry = Registry.from_state(raw, header["issue_counts"], *head, source=str(self.sidecar), start=start)
        try:
            registry.build(touch)
        except LedgerIntegrityError as exc:
            raise CheckpointError(str(exc)) from None
        return registry

    def verify(self) -> Registry:
        """Replay the whole file; raises LedgerIntegrityError if a sidecar written for it disagrees.

        A missing file is a ConfigError.
        """
        self.ignored = None
        data = self._read(verifying=True)
        found = None
        if not _ends_inside_a_line(data):  # such a file is refused, and never compared with its sidecar
            try:
                found = self._checkpoint(len(data), self._digest.hexdigest)
            except CheckpointError as exc:
                self.ignored = str(exc)
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
                header, raw, start = found
                if (
                    header["issue_counts"] != registry.issue_counts()
                    or memoryview(raw)[start:] != b"".join(registry.state_pieces())
                ):
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
        """Rewrite the sidecar for the file as read plus what ``append`` wrote, whose state ``registry`` holds.

        The state goes through one digest and one write as ``state_pieces()``:
        a resumed registry's unchanged byte ranges are copied, not re-encoded.
        """
        import tempfile  # here: only a command that appends needs it

        pieces = registry.state_pieces()
        counts = registry.issue_counts()
        header = canonical_payload({
            "version": VERSION,
            "issue_counts": counts,
            "prefix_bytes": self._size,
            "prefix_sha256": self._digest.hexdigest(),
            "state_sha256": _state_digest(counts, pieces),
        })
        handle, temporary = tempfile.mkstemp(dir=self.sidecar.parent, prefix=self.sidecar.name, suffix=".tmp")
        try:
            os.chmod(temporary, stat.S_IMODE(self.path.stat().st_mode))  # readable by whoever reads the ledger
            with open(handle, "wb") as out:
                out.write(header.encode("utf-8") + b"\n")
                out.writelines(pieces)
            os.replace(temporary, self.sidecar)
        except BaseException:
            os.unlink(temporary)
            raise
