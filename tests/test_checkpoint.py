"""A ledger file's full replay on two processes, and its checkpoint sidecar.

A forked child checks every line while the parent replays.  Each result must
be the sequential replay's, each refusal its message, and no child may be
left behind.  A spoiled sidecar must give the full replay's registry.
"""

from __future__ import annotations

import os
import random
import signal
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    return LedgerFile(path)


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
        # thousands of events and a sidecar for the whole file, as a benchmark session's replay-verify reads them
        lines = _random_operations(random.Random(1), 3000).ledger.to_lines()
        expected = state(replay(read_events(lines)))
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        ledger_file.write_checkpoint(ledger_file.load())
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

    @pytest.mark.parametrize("method", ["load", "verify"])
    def test_a_file_that_ends_inside_a_line_is_refused_after_one_replay(
        self, tmp_path, monkeypatch, method, sequential_reads
    ):
        lines = _random_operations(random.Random(7), 60).ledger.to_lines()
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        ledger_file.path.write_bytes(ledger_file.path.read_bytes()[:-1])
        statuses = []
        waitpid = os.waitpid

        def reaped(pid, options):
            status = waitpid(pid, options)
            statuses.append(status[1])
            return status

        monkeypatch.setattr(os, "waitpid", reaped)
        with pytest.raises(LedgerIntegrityError, match=rf"^line {len(lines)}: the ledger file ends inside this line"):
            getattr(ledger_file, method)()
        assert statuses == [0]  # the child accepted every line before the open one
        assert sequential_reads == []
        assert_no_child_left()

    @pytest.mark.parametrize("method", ["load", "verify"])
    def test_an_earlier_bad_line_is_reported_before_an_open_last_line(self, tmp_path, method):
        lines = CORRUPTIONS["hash-mismatch"](_random_operations(random.Random(7), 60).ledger.to_lines())
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        ledger_file.path.write_bytes(ledger_file.path.read_bytes()[:-1])
        with pytest.raises(LedgerIntegrityError, match="hash mismatch") as excinfo:
            getattr(ledger_file, method)()
        assert excinfo.value.seq == 4

    def test_a_checkpoint_that_disagrees(self, tmp_path, monkeypatch):
        lines = _random_operations(random.Random(7), 60).ledger.to_lines()
        ledger_file = write_ledger(tmp_path / "ledger.log", lines)
        ledger_file.write_checkpoint(ledger_file.load())
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



@st.composite
def _spoiled(draw, sidecar: bytes) -> bytes:
    """``sidecar`` with one byte replaced, inserted or deleted anywhere, or with its header line replaced.

    Half the edits fall in the header, whose fields no digest covers, and half
    the new bytes are copied from it, mostly hex digits, so that an edit often
    leaves the header readable.  Positions come from a seeded ``Random``, which
    draws them uniformly where Hypothesis's integers favour the ends of a range.
    """
    header = sidecar.index(b"\n")
    how = draw(st.sampled_from(["replace", "insert", "delete", "header"]))
    if how == "header":
        return draw(st.binary()) + sidecar[header:]
    pick = draw(st.randoms(use_true_random=True)).randrange
    at = pick(header) if draw(st.booleans()) else pick(len(sidecar) + (how == "insert"))
    byte = b"" if how == "delete" else bytes([sidecar[pick(header)] if draw(st.booleans()) else pick(256)])
    return sidecar[:at] + byte + sidecar[at + (how != "insert"):]


class TestSidecarFuzz:
    # the fixture that reports two CPUs holds for every example; the sequential replay keeps each one short
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 30), data=st.data())
    def test_a_spoiled_sidecar_loads_the_full_replays_registry(self, seed, length, data):
        lines = _random_operations(random.Random(seed), length).ledger.to_lines()
        # a sidecar written for the whole file, so that only the edit can spoil it: one written for fewer lines is
        # refused by its size whatever the edit (test_registry.py covers that refusal)
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            ledger_file = write_ledger(Path(directory) / "ledger.log", lines)
            ledger_file.write_checkpoint(ledger_file.load())
            ledger_file.sidecar.write_bytes(data.draw(_spoiled(ledger_file.sidecar.read_bytes()), label="sidecar"))
            assert state(LedgerFile(ledger_file.path).load()) == state(replay(read_events(lines)))
