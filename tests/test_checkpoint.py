"""A ledger file's full replay on two processes: a forked child checks every line while the parent replays.

Each result must be the sequential replay's, each refusal its message, and no
child may be left behind.
"""

from __future__ import annotations

import os
import random
import signal
import threading

import pytest

import dcm.checkpoint as checkpoint
from dcm import EventKind, LedgerIntegrityError, read_events, replay
from dcm.checkpoint import LedgerFile
from dcm.ledger import _seal
from conftest import forge_sidecar
from test_acceptance import _random_operations


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """Let the two-process replay run on a host, or under an affinity, with one CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def sequential_reads(monkeypatch) -> list[int]:
    """How many times the parent runs the sequential ``read_events``; the child's calls are not seen."""
    calls = []
    read = checkpoint.read_events
    monkeypatch.setattr(checkpoint, "read_events", lambda lines, **link: calls.append(1) or read(lines, **link))
    return calls


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def write_ledger(path, lines) -> LedgerFile:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return LedgerFile(path, 4)


def state(registry) -> tuple:
    return registry.snapshot(), registry.state_lines(), registry.issue_counts()


def outcome(read):
    """The state ``read()`` gives, or the message of the integrity error it raises."""
    try:
        return state(read())
    except LedgerIntegrityError as exc:
        return str(exc)


def sequential(monkeypatch, read):
    """``outcome(read)`` with ``fork`` failing, which takes the sequential path."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", _fork_fails)
        return outcome(read)


def _fork_fails():
    raise OSError("fork refused")


class TestSameResult:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ledgers(self, tmp_path, seed, sequential_reads):
        rng = random.Random(seed)
        lines = _random_operations(rng, rng.randrange(1, 400)).ledger.to_lines()
        expected = state(replay(read_events(lines)))
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        assert state(ledger_file.load()) == expected
        assert state(ledger_file.verify()) == expected
        assert sequential_reads == []
        assert_no_child_left()

    def test_a_perfbench_shaped_ledger_with_its_checkpoint(self, tmp_path, sequential_reads):
        # thousands of events and a sidecar for a prefix, as a benchmark session's replay-verify reads them
        lines = _random_operations(random.Random(1), 3000).ledger.to_lines()
        expected = state(replay(read_events(lines)))
        ledger_file = write_ledger(tmp_path / "ledger.log", lines[:2000])
        ledger_file.write_checkpoint(ledger_file.load(), ())
        with ledger_file.path.open("a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines[2000:]))
        assert state(ledger_file.verify()) == expected
        assert ledger_file.ignored is None
        forge_sidecar(ledger_file.sidecar, lambda state: state, lambda header: {**header, "version": 1})
        assert state(ledger_file.load()) == expected  # a sidecar of another version: the full replay
        assert "version 1" in ledger_file.ignored
        assert sequential_reads == []
        assert_no_child_left()

    def test_an_empty_ledger_file(self, tmp_path):
        ledger_file = write_ledger(tmp_path / "ledger.log", [])
        assert len(ledger_file.load().ledger) == len(ledger_file.verify().ledger) == 0
        assert_no_child_left()


def _flip(lines, index, old, new):
    return [*lines[:index], lines[index].replace(old, new, 1), *lines[index + 1:]]


def _sealed_after(lines, kind, payload):
    """``lines`` and one more correctly sealed event on the last line's certificate."""
    last = lines[-1].split("|")
    return [*lines, _seal(int(last[0]) + 1, last[1], kind, last[3], payload, last[-1])]


CORRUPTIONS = {
    "hash-mismatch": lambda lines: _flip(lines, 3, "holder", "Holder"),
    "chain-break": lambda lines: [*lines[:2], *lines[3:]],
    "empty-line": lambda lines: [*lines[:4], "", *lines[4:]],
    "wrong-field-count": lambda lines: _flip(lines, 1, "|", ""),
    "illegal-event": lambda lines: _sealed_after(lines, EventKind.ISSUE.value, "{}"),
    "unknown-kind": lambda lines: _sealed_after(lines, "MINT", "{}"),
    "non-canonical": lambda lines: _sealed_after(lines, EventKind.QUOTE.value, '{"t": 1}'),
    "deep-payload": lambda lines: _sealed_after(lines, EventKind.QUOTE.value, "[" * 100_000 + "]" * 100_000),
}


class TestSameRefusal:
    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    @pytest.mark.parametrize("method", ["load", "verify"])
    def test_a_corrupt_ledger(self, tmp_path, monkeypatch, corrupt, method, sequential_reads):
        lines = corrupt(_random_operations(random.Random(7), 60).ledger.to_lines())
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        read = getattr(ledger_file, method)
        expected = sequential(monkeypatch, read)
        assert isinstance(expected, str)
        sequential_reads.clear()
        assert outcome(read) == expected
        assert sequential_reads  # the sequential replay decided it
        assert_no_child_left()

    @pytest.mark.parametrize("method", ["load", "verify"])
    @pytest.mark.parametrize(
        "tail", [b"\xff\n", b"1|2020-01-01|ISSUE|X-1|{}|" + b"0" * 64], ids=["not-utf8", "open-last-line"]
    )
    def test_bytes_after_the_last_record(self, tmp_path, monkeypatch, method, tail):
        ledger_file = write_ledger(tmp_path / "ledger.log", _random_operations(random.Random(7), 60).ledger.to_lines())
        with ledger_file.path.open("ab") as handle:
            handle.write(tail)
        read = getattr(ledger_file, method)
        expected = sequential(monkeypatch, read)
        assert outcome(read) == expected
        assert_no_child_left()

    def test_verify_does_not_fork_for_a_file_that_ends_inside_a_line(self, tmp_path, monkeypatch):
        ledger_file = write_ledger(tmp_path / "ledger.log", _random_operations(random.Random(7), 60).ledger.to_lines())
        ledger_file.path.write_bytes(ledger_file.path.read_bytes()[:-1])
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked to replay a file it refuses"))
        with pytest.raises(LedgerIntegrityError, match="ends inside this line"):
            ledger_file.verify()

    def test_a_checkpoint_that_disagrees(self, tmp_path, monkeypatch):
        lines = _random_operations(random.Random(7), 60).ledger.to_lines()
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        ledger_file.write_checkpoint(ledger_file.load(), ())
        forge_sidecar(ledger_file.sidecar, lambda state: [line.replace('"holder-', '"Holder-', 1) for line in state])
        expected = sequential(monkeypatch, ledger_file.verify)
        assert expected == f"checkpoint disagrees with the ledger at seq {len(lines)}"
        assert outcome(ledger_file.verify) == expected
        assert_no_child_left()


class TestSequentialFallback:
    """Where the child cannot run or its verdict is not clean, the sequential replay gives the result."""

    @pytest.fixture
    def ledger_file(self, tmp_path) -> LedgerFile:
        return write_ledger(tmp_path / "ledger.log", _random_operations(random.Random(3), 200).ledger.to_lines())

    @pytest.fixture
    def expected(self, ledger_file):
        return state(replay(read_events(ledger_file.path.read_text(encoding="utf-8").splitlines())))

    @pytest.mark.parametrize("method", ["load", "verify"])
    def test_fork_fails(self, ledger_file, expected, monkeypatch, method, sequential_reads):
        monkeypatch.setattr(os, "fork", _fork_fails)
        assert state(getattr(ledger_file, method)()) == expected
        assert sequential_reads

    @pytest.mark.parametrize("method", ["load", "verify"])
    def test_another_thread_is_alive(self, ledger_file, expected, monkeypatch, method, sequential_reads):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with another thread alive"))
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert state(getattr(ledger_file, method)()) == expected
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert sequential_reads

    def test_one_cpu(self, ledger_file, expected, monkeypatch, sequential_reads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert state(ledger_file.verify()) == expected
        assert sequential_reads

    @pytest.mark.parametrize(
        "child",
        [lambda lines: os._exit(3), lambda lines: os.kill(os.getpid(), signal.SIGKILL)],
        ids=["non-zero-exit", "killed"],
    )
    def test_the_child_does_not_exit_cleanly(self, ledger_file, expected, monkeypatch, child, sequential_reads):
        monkeypatch.setattr(checkpoint, "_check_and_exit", child)
        assert state(ledger_file.verify()) == expected
        assert sequential_reads
        assert_no_child_left()

    def test_the_parent_side_raises(self, ledger_file, expected, monkeypatch, sequential_reads):
        def decode(line):
            raise RuntimeError(line)

        monkeypatch.setattr(checkpoint, "decode_line", decode)
        assert state(ledger_file.load()) == expected
        assert sequential_reads
        assert_no_child_left()

    def test_the_parent_is_interrupted(self, ledger_file, monkeypatch):
        def decode(line):
            raise KeyboardInterrupt

        monkeypatch.setattr(checkpoint, "decode_line", decode)
        with pytest.raises(KeyboardInterrupt):
            ledger_file.verify()
        assert_no_child_left()

