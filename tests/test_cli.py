"""End-to-end CLI checks, including the documented exit codes."""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import dcm as package
from dcm import EventKind, read_events, replay
from dcm.checkpoint import LedgerFile
from dcm.cli import AppContext
from dcm.ledger import GENESIS_HASH, _seal, canonical_payload
from dcm.rounding import RoundingProfile
from conftest import forge_sidecar
from test_registry import SEALED_REFUSALS, sealed_refusal_lines

SRC = Path(__file__).resolve().parents[1] / "src"

PRICES = "date,price\n2020-01-01,40\n2020-07-01,50\n"

DEEP = 100_000  # JSON arrays nested this deep exceed the decoder's recursion limit

LONG = "x" * 300  # a file name longer than a Linux file system takes: opening it is ENAMETOOLONG, not ENOENT

ISSUE_ARGS = [
    "issue",
    "--issuer", "LME",
    "--material", "copper",
    "--face-weight", "1000",
    "--purity", "0.9999",
    "--issue-date", "2020-01-01",
    "--theta", "0.99996",
    "--denominations", "1,10,100,1000",
    "--delivery-charge", "0.003",
    "--withdrawal-charge", "0.002",
    "--min-delivery", "1000",
    "--owner", "client-1",
]

FAILING_SCENARIO = """\
name: failing
issue_date: 2020-01-01
issuer:
  id: X
  material: tin
  denominations: [5]
  theta: 0.9999
  delivery_rules:
    delivery_charge_ratio: 0.003
    withdrawal_charge_ratio: 0.002
    min_delivery_weight: 5
script:
  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}
  - {dt: 1, action: deliver, cert: c1}
  - {dt: 2, action: deliver, cert: c1}
"""


def _env() -> dict:
    """The environment with the absolute ``src`` on PYTHONPATH: a relative entry would miss under ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def python(*args, cwd, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


def start(*args, cwd, stdin=None):
    """Start Python as ``python`` runs it, without waiting for it to exit."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=cwd, env=_env(), stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def dcm(*args, cwd):
    return python("-m", "dcm.cli", *args, cwd=cwd)


class TestTheta:
    def test_warehouse_only_prints_six_decimals(self, tmp_path):
        result = dcm("theta", "--warehouse-charge", "0.2", "--cif", "5000", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.strip() == "0.999960 (warehouse-only)"

    def test_interest_credited_pathology_exits_validation(self, tmp_path):
        result = dcm(
            "theta", "--warehouse-charge", "0.2", "--cif", "5000",
            "--bank-rate", "0.0365", "--mode", "interest-credited",
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert "1.000060" in result.stderr

    def test_zero_tariffs_exit_validation(self, tmp_path):
        result = dcm("theta", "--warehouse-charge", "0", "--cif", "5000", cwd=tmp_path)
        assert result.returncode == 2


class TestLifecycleFlow:
    def test_issue_quote_deliver_and_verify(self, tmp_path):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")

        issued = dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert issued.returncode == 0
        assert "code: LME-copper-0001" in issued.stdout
        assert "theta: 0.999960" in issued.stdout

        quoted = dcm(
            "--prices", "prices.csv", "--price-per-units", "1000",
            "quote", "--cert", "LME-copper-0001", "--dt", "183",
            cwd=tmp_path,
        )
        assert quoted.returncode == 0
        assert "residual_weight: 992.7066" in quoted.stdout

        delivered = dcm("deliver", "--cert", "LME-copper-0001", "--dt", "365", cwd=tmp_path)
        assert delivered.returncode == 0
        assert "delivered_weight: 982.5493" in delivered.stdout

        verified = dcm("replay-verify", cwd=tmp_path)
        assert verified.returncode == 0
        assert "ok: 3 events, 1 certificates" in verified.stdout

    def test_second_issue_after_reload_takes_the_next_id(self, tmp_path):
        first = dcm(*ISSUE_ARGS, cwd=tmp_path)
        second = dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert (first.returncode, second.returncode) == (0, 0)
        assert "code: LME-copper-0001" in first.stdout
        assert "code: LME-copper-0002" in second.stdout
        verified = dcm("replay-verify", cwd=tmp_path)
        assert "ok: 2 events, 2 certificates" in verified.stdout

    def test_settling_twice_exits_settlement(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert dcm("deliver", "--cert", "LME-copper-0001", "--dt", "10", cwd=tmp_path).returncode == 0
        result = dcm("deliver", "--cert", "LME-copper-0001", "--dt", "20", cwd=tmp_path)
        assert result.returncode == 3
        assert "DELIVERED" in result.stderr

    def test_buyback_pays_cash(self, tmp_path):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        result = dcm(
            "--prices", "prices.csv", "--price-per-units", "1000",
            "buyback", "--cert", "LME-copper-0001", "--dt", "365",
            cwd=tmp_path,
        )
        assert result.returncode == 0
        assert "buyback_weight: 983.5348" in result.stdout

    def test_quote_without_prices_exits_validation(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        result = dcm("quote", "--cert", "LME-copper-0001", "--dt", "183", cwd=tmp_path)
        assert result.returncode == 2
        assert "--prices" in result.stderr

    def test_tampered_ledger_exits_integrity(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        text = ledger_file.read_text(encoding="utf-8")
        position = text.index("1000.0")
        ledger_file.write_text(text[:position] + "9" + text[position + 1 :], encoding="utf-8")
        result = dcm("replay-verify", cwd=tmp_path)
        assert result.returncode == 4
        assert "hash mismatch" in result.stderr

    def test_a_corrupt_ledger_gives_one_stderr_line(self, tmp_path):
        for _ in range(3):
            dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        first, second, third = ledger_file.read_text(encoding="utf-8").splitlines(keepends=True)
        ledger_file.write_text(first + second.replace("client-1", "client-2") + third, encoding="utf-8")
        (tmp_path / SIDECAR).unlink()  # else the one line would follow a warning that the sidecar no longer fits
        result = dcm("replay-verify", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == "error: seq 2: hash mismatch: record bytes do not match their digest\n"

    def test_commands_leave_no_warning_in_development_mode(self, tmp_path):
        # -X dev reports unclosed files and other resource warnings, which -W error makes fatal
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        quote = [*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", "183"]
        for args in (ISSUE_ARGS, ISSUE_ARGS, quote, ["replay-verify"], ["deliver", "--cert", "LME-copper-0002", "--dt", "1"]):
            if args[0] == "deliver":
                (tmp_path / SIDECAR).unlink()  # so that this command replays the whole file
            result = python("-X", "dev", "-W", "error", "-m", "dcm.cli", *args, cwd=tmp_path)
            assert (result.returncode, result.stderr) == (0, ""), args
        assert (tmp_path / SIDECAR).exists()

    def test_sealed_illegal_event_exits_integrity(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert dcm("deliver", "--cert", "LME-copper-0001", "--dt", "10", cwd=tmp_path).returncode == 0
        ledger_file = tmp_path / "dcm-ledger.log"
        ledger = replay(read_events(ledger_file.read_text(encoding="utf-8").splitlines())).ledger
        second = ledger.append(EventKind.DELIVER, "LME-copper-0001", {"t": 20}, date(2020, 1, 21))
        with ledger_file.open("a", encoding="utf-8") as handle:
            handle.write(second.line + "\n")
        for args in (["replay-verify"], ["deliver", "--cert", "LME-copper-0001", "--dt", "30"]):
            result = dcm(*args, cwd=tmp_path)
            assert result.returncode == 4
            assert "seq 3" in result.stderr
            assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "case",
        [
            "deliver-past-validity", "quote-empty", "expire-before-lapse", "buyback-cash-only", "deliver-below-lot",
            "transfer-negative-day", "expire-open-ended", "issue-extra-key", "deliver-off-calendar",
            "quote-off-calendar", "issue-face-weight-zero", "issue-issue-date-basic", "issue-issue-date-week",
            "issue-cif-as-of-basic", "issue-cif-as-of-empty", "issue-cif-as-of-False", "issue-cif-material-number",
        ],
    )
    def test_a_sealed_forgery_exits_integrity_also_when_a_command_resumes_before_it(
        self, tmp_path, lme_registry, lme_cert, case
    ):
        issue, forged = sealed_refusal_lines(lme_registry.ledger.events[0], case)
        ledger_file = tmp_path / "dcm-ledger.log"
        ledger_file.write_text(issue + "\n", encoding="utf-8")
        written = LedgerFile(ledger_file)
        written.write_checkpoint(written.load())  # the sidecar covers the ISSUE, and the forgery follows it
        with ledger_file.open("a", encoding="utf-8") as handle:
            handle.write(forged + "\n")
        # the sidecar is not written for the whole file, so each command reaches the forgery by the full replay
        warning = (
            f"warning: ignoring checkpoint {SIDECAR}: it was written for {len(issue) + 1} bytes of the ledger file, "
            f"which holds {len(issue) + len(forged) + 2}\n"
        )
        error = f"error: seq 2: {SEALED_REFUSALS[case][-1]}\n"
        for args in (["replay-verify"], ["deliver", "--cert", "LME-copper-0001", "--dt", "1"]):
            result = dcm(*args, cwd=tmp_path)
            assert (result.returncode, result.stdout, result.stderr) == (4, "", warning + error)

    @pytest.mark.parametrize(
        "case",
        [
            "issue-face-weight-true", "issue-face-weight-quoted", "issue-min-delivery-true", "issue-face-weight-huge",
            "issue-min-delivery-huge", "issue-theta-huge", "issue-tariff-charge-true", "issue-cif-price-quoted",
            "issue-theta-explicit-with-inputs",
        ],
    )
    def test_a_sealed_issue_whose_weight_is_not_a_number_exits_integrity(self, tmp_path, lme_registry, lme_cert, case):
        lines = sealed_refusal_lines(lme_registry.ledger.events[0], case)
        (tmp_path / "dcm-ledger.log").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        verified = dcm("replay-verify", cwd=tmp_path)
        assert (verified.returncode, verified.stdout) == (4, "")
        assert verified.stderr == f"error: seq 2: {SEALED_REFUSALS[case][-1]}\n"

    @pytest.mark.parametrize(
        "args",
        [["replay-verify"], ["deliver", "--cert", "LME-copper-0001", "--dt", "10"]],
        ids=["replay-verify", "deliver"],
    )
    def test_a_sealed_payload_nested_too_deep_exits_integrity(self, tmp_path, args):
        payload = "[" * DEEP + "]" * DEEP
        line = _seal(1, "2020-01-01", "ISSUE", "LME-copper-0001", payload, GENESIS_HASH)
        (tmp_path / "dcm-ledger.log").write_text(line + "\n", encoding="utf-8")
        result = dcm(*args, cwd=tmp_path)
        assert result.returncode == 4
        assert "error: seq 1: unreadable payload" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ISSUE_ARGS,
            ["--prices", "prices.csv", "quote", "--cert", "LME-copper-0002", "--dt", "183"],
            ["deliver", "--cert", "LME-copper-0002", "--dt", "365"],
            ["deliver", "--cert", "LME-copper-0001", "--dt", "366"],  # delivered at day 365: the operation is refused
            ["--prices", "prices.csv", "buyback", "--cert", "LME-copper-0002", "--dt", "100"],
            ["replay-verify"],
        ],
        ids=["issue", "quote", "deliver", "deliver-delivered", "buyback", "replay-verify"],
    )
    @pytest.mark.parametrize("sidecar", ["whole-file", "lines-before"])
    def test_a_file_that_ends_inside_a_line_is_refused_before_any_operation(self, tmp_path, args, sidecar):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        ledger_file, checkpoint = tmp_path / "dcm-ledger.log", tmp_path / SIDECAR
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm("deliver", "--cert", "LME-copper-0001", "--dt", "365", cwd=tmp_path)
        covered = checkpoint.read_bytes()
        assert dcm(*ISSUE_ARGS, cwd=tmp_path).returncode == 0
        if sidecar == "lines-before":  # the torn line is a whole event but for its newline
            checkpoint.write_bytes(covered)
        ledger_file.write_bytes(ledger_file.read_bytes()[:-1])
        before = ledger_file.read_bytes(), checkpoint.read_bytes()
        result = dcm(*args, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (
            4, "", "error: line 3: the ledger file ends inside this line, which has no final newline "
                   "(a torn record?); every line before it verifies\n",
        )
        assert (ledger_file.read_bytes(), checkpoint.read_bytes()) == before

    @pytest.mark.parametrize(
        "args",
        [["replay-verify"], ["deliver", "--cert", "LME-copper-0001", "--dt", "10"]],
        ids=["replay-verify", "deliver"],
    )
    def test_byte_that_is_not_utf8_exits_integrity(self, tmp_path, args):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        size = ledger_file.stat().st_size
        with ledger_file.open("ab") as handle:
            handle.write(b"\xff\n")
        result = dcm(*args, cwd=tmp_path)
        assert result.returncode == 4
        assert f"error: line 2, byte offset {size}: not UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    def test_price_file_that_is_not_utf8_exits_validation(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        (tmp_path / "p.csv").write_bytes(b"date,price\n2020-01-01,4\xff0\n")
        result = dcm("--prices", "p.csv", "quote", "--cert", "LME-copper-0001", "--dt", "3", cwd=tmp_path)
        assert result.returncode == 2
        assert "error: cannot read price series p.csv: byte 23 is not UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    def test_a_price_path_that_names_a_directory_exits_validation(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        (tmp_path / "prices").mkdir()
        result = dcm("--prices", "prices", "quote", "--cert", "LME-copper-0001", "--dt", "3", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: cannot read price series prices: [Errno 21] Is a directory: 'prices'\n"

    def test_priced_command_does_not_import_the_scenario_loader(self, tmp_path, monkeypatch):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")  # the child prints one stderr line per import
        result = dcm("--prices", "prices.csv", "quote", "--cert", "LME-copper-0001", "--dt", "3", cwd=tmp_path)
        assert result.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "dcm.checkpoint" in imported
        assert not imported & {"dcm.scenario", "yaml", "click"}

    def test_project_does_not_import_the_scenario_loader(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")  # the child prints one stderr line per import
        result = dcm("project", "--weight", "4e8", "--theta", "0.999945", "--days", "3650", cwd=tmp_path)
        assert result.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert "dcm.decay" in imported
        assert not imported & {"dcm.scenario", "yaml", "dataclasses", "inspect"}

    def test_run_does_not_import_the_dataclass_machinery(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")  # the child prints one stderr line per import
        result = dcm("run", "lme_copper", cwd=tmp_path)
        assert result.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
        assert {"dcm.scenario", "yaml"} <= imported
        assert not imported & {"dataclasses", "inspect"}

    def test_importing_the_cli_loads_no_dataclass_machinery(self, tmp_path):
        listing = "import sys; before = set(sys.modules); import dcm.cli; print(*sorted(set(sys.modules) - before))"
        result = python("-c", listing, cwd=tmp_path)
        assert result.returncode == 0
        imported = set(result.stdout.split())
        assert "dcm.registry" in imported
        assert not imported & {"dataclasses", "inspect"}

    def test_every_public_name_resolves_and_is_listed_once(self):
        assert len(set(package.__all__)) == len(package.__all__)
        assert [name for name in package.__all__ if not hasattr(package, name)] == []

    @pytest.mark.parametrize("args", [ISSUE_ARGS, ["replay-verify"]], ids=["issue", "replay-verify"])
    @pytest.mark.parametrize(
        "edit",
        [lambda data: data.replace(b"\n", b"\r\n"), lambda data: data.replace(b"\n", b"\x0c\n", 1)],
        ids=["crlf", "form-feed"],
    )
    def test_a_byte_before_a_newline_fails_its_record(self, tmp_path, edit, args):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file, sidecar = tmp_path / "dcm-ledger.log", tmp_path / SIDECAR
        ledger_file.write_bytes(edit(ledger_file.read_bytes()))
        before = ledger_file.read_bytes(), sidecar.read_bytes()
        result = dcm(*args, cwd=tmp_path)
        assert result.returncode == 4
        assert "error: seq 1: malformed hash field" in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
        assert (ledger_file.read_bytes(), sidecar.read_bytes()) == before

    def test_missing_ledger_exits_validation(self, tmp_path):
        result = dcm("replay-verify", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: ledger file not found: dcm-ledger.log\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--ledger", "missing/x.log", *ISSUE_ARGS],
             "error: cannot append to ledger file missing/x.log: [Errno 2] No such file or directory"),
            (["--ledger", "a-directory", "replay-verify"],
             "error: cannot read ledger file a-directory: [Errno 21] Is a directory"),
            (["--ledger", "a-directory", *ISSUE_ARGS],
             "error: cannot read ledger file a-directory: [Errno 21] Is a directory"),
            (["run", "lme_copper", "--report", "missing/r.jsonl"],
             "error: cannot write report missing/r.jsonl: [Errno 2] No such file or directory"),
            (["--ledger", ".", "replay-verify"], "error: ledger path . names no file"),
            (["--ledger", ".", *ISSUE_ARGS], "error: ledger path . names no file"),
            (["--ledger", "/", "replay-verify"], "error: ledger path / names no file"),
            (["--ledger", "/", *ISSUE_ARGS], "error: ledger path / names no file"),
            (["--ledger", LONG, "replay-verify"], f"error: cannot read ledger file {LONG}: [Errno 36] File name too"),
            (["--ledger", LONG, *ISSUE_ARGS], f"error: cannot read ledger file {LONG}: [Errno 36] File name too"),
            (["run", LONG], f"error: no bundled scenario {LONG!r}; available: lme_copper, shfe_steel"),
            (["run", "long-prices.yaml"], f"error: cannot read price series {LONG}: [Errno 36] File name too long"),
        ],
        ids=["append-in-a-missing-directory", "verify-a-directory", "issue-into-a-directory",
             "report-in-a-missing-directory", "verify-dot", "issue-into-dot", "verify-root", "issue-into-root",
             "verify-a-long-name", "issue-into-a-long-name", "run-a-long-name", "run-with-a-long-price-path"],
    )
    def test_a_file_that_cannot_be_read_or_written_exits_validation(self, tmp_path, args, message):
        (tmp_path / "a-directory").mkdir()
        bundled = package.bundled_scenario_path("lme_copper").read_text(encoding="utf-8")
        (tmp_path / "long-prices.yaml").write_text(bundled.replace("lme_copper_prices.csv", LONG), encoding="utf-8")
        result = dcm(*args, cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith(message)
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert sorted(path.name for path in tmp_path.iterdir()) == ["a-directory", "long-prices.yaml"]

    @pytest.mark.parametrize("ledger", [".", "/"], ids=["dot", "root"])
    @pytest.mark.parametrize(
        "args",
        [
            ["theta", "--warehouse-charge", "0.01", "--cif", "100"],
            ["run", "lme_copper"],
            ["project", "--weight", "1000", "--theta", "0.99", "--days", "3"],
        ],
        ids=["theta", "run", "project"],
    )
    def test_a_command_that_never_reads_the_ledger_takes_any_ledger_path(self, tmp_path, args, ledger):
        usual = dcm(*args, cwd=tmp_path)
        result = dcm("--ledger", ledger, *args, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, usual.stdout, "")
        assert usual.returncode == 0 and usual.stdout
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_price_per_units_that_is_not_finite_is_refused_before_the_ledger_is_read(self, tmp_path, value):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        (tmp_path / "dcm-ledger.log").write_text("not a ledger\n", encoding="utf-8")
        result = dcm("--prices", "prices.csv", "--price-per-units", value, "quote", "--cert", "LME-copper-0001",
                     "--dt", "3", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"error: --price-per-units must be finite, got {value}\n"

    def test_a_sidecar_that_is_a_directory_only_warns(self, tmp_path):
        (tmp_path / SIDECAR).mkdir()
        issued = dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert issued.returncode == 0
        assert issued.stdout.startswith("code: LME-copper-0001\n")
        assert issued.stderr.startswith(f"warning: ignoring checkpoint {SIDECAR}: cannot read it: [Errno 21]")
        assert f"\nwarning: cannot write checkpoint {SIDECAR}: [Errno 21] Is a directory" in issued.stderr
        verified = dcm("replay-verify", cwd=tmp_path)
        assert (verified.returncode, verified.stdout[:28]) == (0, "ok: 1 events, 1 certificates")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["dcm-ledger.log", SIDECAR]
        assert list((tmp_path / SIDECAR).iterdir()) == []

    @pytest.mark.parametrize(
        "command, dt", [("deliver", "3000000"), ("quote", "3000000"), ("buyback", "3000000"), ("quote", "-3000000")]
    )
    def test_a_day_outside_the_calendar_exits_validation(self, tmp_path, command, dt):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        before = ledger_file.read_bytes()
        result = dcm(*PRICED, command, "--cert", "LME-copper-0001", "--dt", dt, cwd=tmp_path)
        error = f"error: day {dt} after 2020-01-01 falls outside the calendar, 0001-01-01 to 9999-12-31\n"
        assert (result.returncode, result.stdout, result.stderr) == (2, "", error)
        assert ledger_file.read_bytes() == before

    @pytest.mark.parametrize(
        "prices, dt, code, error",
        [
            (PRICES, "183", 3, "error: certificate LME-copper-0001 expired: day 183 exceeds validity of 100 days\n"),
            (None, "90", 2, "error: cannot read price series prices.csv: [Errno 21] Is a directory: 'prices.csv'\n"),
            # past the csv module's default field limit of 131,072 characters
            (f"date,price\n2020-01-01,{'4' * 200_000}\n", "90", 2,
             "error: price series prices.csv: line 2: field larger than field limit (131072)\n"),
            ("date,price\n2020-01-01,40\n2020-07-01,nan\n", "90", 2,
             "error: price series prices.csv: line 3: price must be finite, got nan\n"),
        ],
        ids=["past-validity", "price-file-a-directory", "price-field-too-long", "price-not-finite"],
    )
    def test_an_operation_refused_in_its_session_leaves_the_ledger_and_sidecar_as_they_were(
        self, tmp_path, prices, dt, code, error
    ):
        if prices is None:
            (tmp_path / "prices.csv").mkdir()
        else:
            (tmp_path / "prices.csv").write_text(prices, encoding="utf-8")
        dcm(*ISSUE_ARGS, "--validity-days", "100", cwd=tmp_path)
        files = tmp_path / "dcm-ledger.log", tmp_path / SIDECAR
        before = [path.read_bytes() for path in files]
        result = dcm(*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", dt, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (code, "", error)
        assert [path.read_bytes() for path in files] == before

    def test_unknown_certificate_exits_validation(self, tmp_path):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        result = dcm(
            "--prices", "prices.csv", "quote", "--cert", "ghost", "--dt", "1",
            cwd=tmp_path,
        )
        assert result.returncode == 2


SIDECAR = "dcm-ledger.log.ckpt"
PRICED = ["--prices", "prices.csv", "--price-per-units", "1000"]
SESSION = [
    ISSUE_ARGS,
    ISSUE_ARGS,
    [*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", "183"],
    ["deliver", "--cert", "LME-copper-0001", "--dt", "365"],
    ["deliver", "--cert", "LME-copper-0001", "--dt", "366"],
    [*PRICED, "buyback", "--cert", "LME-copper-0002", "--dt", "100"],
    [*PRICED, "quote", "--cert", "LME-copper-0002", "--dt", "101"],
    ISSUE_ARGS,
]


class TestCheckpoint:
    def test_each_command_resumes_from_the_checkpoint_with_the_same_output(self, tmp_path):
        with_sidecar, without = tmp_path / "with", tmp_path / "without"
        outputs = {}
        for where in (with_sidecar, without):
            where.mkdir()
            (where / "prices.csv").write_text(PRICES, encoding="utf-8")
            outputs[where] = []
            for args in SESSION:
                (without / SIDECAR).unlink(missing_ok=True)
                result = dcm(*args, cwd=where)
                outputs[where].append((result.returncode, result.stdout))
                assert "warning" not in result.stderr
        assert [code for code, _ in outputs[with_sidecar]] == [0, 0, 0, 0, 3, 0, 3, 0]
        assert outputs[with_sidecar] == outputs[without]
        assert (with_sidecar / "dcm-ledger.log").read_bytes() == (without / "dcm-ledger.log").read_bytes()
        resumed = LedgerFile(with_sidecar / "dcm-ledger.log")
        assert resumed.load().ledger.events == () and resumed.ignored is None
        assert "ok: 6 events, 3 certificates" in dcm("replay-verify", cwd=with_sidecar).stdout

    @pytest.mark.parametrize(
        "command, stdout, docket",
        [
            ("quote", "residual_weight: 996.41\nprice: 39.8564\n", 996.41),  # 39.8563 on the 4-place docket
            ("buyback", "buyback_weight: 994.41\ncash: 39.7764\n", 994.41),  # 39.7765 on the 4-place docket
        ],
        ids=["quote", "buyback"],
    )
    @pytest.mark.parametrize("sidecar", ["resumed", "replayed"])
    def test_a_settling_command_settles_on_the_weight_places_docket(self, tmp_path, command, stdout, docket, sidecar):
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        if sidecar == "replayed":
            (tmp_path / SIDECAR).unlink()
        result = dcm(*PRICED, "--weight-places", "2", command, "--cert", "LME-copper-0001", "--dt", "90", cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")
        *_, settled = read_events((tmp_path / "dcm-ledger.log").read_text(encoding="utf-8").splitlines())
        assert settled.payload["docket_weight"] == docket

    def test_tampered_prefix_with_a_valid_checkpoint_exits_integrity(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        text = ledger_file.read_text(encoding="utf-8")
        position = text.index("1000.0")
        ledger_file.write_text(text[:position] + "9" + text[position + 1 :], encoding="utf-8")
        result = dcm("deliver", "--cert", "LME-copper-0002", "--dt", "10", cwd=tmp_path)
        assert result.returncode == 4
        assert "hash mismatch" in result.stderr
        assert f"warning: ignoring checkpoint {SIDECAR}" in result.stderr

    def test_forged_checkpoint_state_fails_replay_verify(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        forge_sidecar(tmp_path / SIDECAR, lambda state: [line.replace('"client-1"', '"mallory"') for line in state])
        result = dcm("replay-verify", cwd=tmp_path)
        assert result.returncode == 4
        assert "checkpoint disagrees with the ledger at seq 1" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "spoil",
        ["garbled", "truncated", "list-header", "version-1", "version-2", "version-3", "forged-state",
         "state-not-utf8", "deep-header", "deep-state", "stale"],
    )
    def test_unusable_checkpoint_gives_the_same_output_as_none_and_a_warning(self, tmp_path, spoil):
        spoiled, plain = tmp_path / "spoiled", tmp_path / "plain"
        spoiled.mkdir()
        (spoiled / "prices.csv").write_text(PRICES, encoding="utf-8")
        dcm(*ISSUE_ARGS, cwd=spoiled)
        sidecar = spoiled / SIDECAR
        warning = None  # the reason the warning gives, where a row pins it
        if spoil == "garbled":
            sidecar.write_bytes(b"\x00\x01 not a checkpoint")
        elif spoil == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        elif spoil == "list-header":  # JSON, but not an object
            sidecar.write_bytes(b"[]\n" + sidecar.read_bytes().split(b"\n", 1)[1])
            warning = "unknown header"
        elif spoil == "version-1":  # the header of the format without issue counters
            header, state = sidecar.read_bytes().split(b"\n", 1)
            fields = {key: value for key, value in json.loads(header).items() if key != "issue_counts"}
            sidecar.write_bytes(canonical_payload({**fields, "version": 1}).encode("utf-8") + b"\n" + state)
        elif spoil == "version-2":  # the header of the format whose state digest leaves out the issue counters
            header, state = sidecar.read_bytes().split(b"\n", 1)
            fields = {**json.loads(header), "version": 2, "state_sha256": hashlib.sha256(state).hexdigest()}
            sidecar.write_bytes(canonical_payload(fields).encode("utf-8") + b"\n" + state)
        elif spoil == "version-3":  # the header of the format that also held the chain head
            header, state = sidecar.read_bytes().split(b"\n", 1)
            head = (spoiled / "dcm-ledger.log").read_text(encoding="utf-8").rstrip("\n").rsplit("|", 1)[1]
            fields = {**json.loads(header), "version": 3, "last_seq": 1, "head_hash": head}
            sidecar.write_bytes(canonical_payload(fields).encode("utf-8") + b"\n" + state)
            warning = "version 3, not 4"
        elif spoil == "forged-state":  # on the line of the certificate the command names
            forge_sidecar(sidecar, lambda state: [line.replace('"ACTIVE"', '"LOST"') for line in state])
        elif spoil == "state-not-utf8":  # under a state digest recomputed to match it
            header, state = sidecar.read_bytes().split(b"\n", 1)
            state = state.replace(b'"ACTIVE"', b'"\xffACTIVE"')
            fields = json.loads(header)
            counts = canonical_payload(fields["issue_counts"]).encode("utf-8")
            fields["state_sha256"] = hashlib.sha256(counts + b"\n" + state).hexdigest()
            sidecar.write_bytes(canonical_payload(fields).encode("utf-8") + b"\n" + state)
            at = state.index(0xFF)
            warning = f"bad state: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
        elif spoil == "deep-header":
            sidecar.write_bytes(b"[" * DEEP + b"]" * DEEP + b"\n" + sidecar.read_bytes().split(b"\n", 1)[1])
        elif spoil == "deep-state":  # each line keeps its cert_id, and its form nests too deep to decode
            deep = "[" * DEEP + "]" * DEEP
            forge_sidecar(sidecar, lambda state: [f'{line.split(",", 1)[0]},{deep}]' for line in state])
        else:  # an older ledger file restored under a newer sidecar
            older = (spoiled / "dcm-ledger.log").read_bytes()
            dcm(*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", "10", cwd=spoiled)
            (spoiled / "dcm-ledger.log").write_bytes(older)
        shutil.copytree(spoiled, plain)
        (plain / SIDECAR).unlink()
        command = [*PRICED, "buyback", "--cert", "LME-copper-0001", "--dt", "365"]
        results = [dcm(*command, cwd=where) for where in (spoiled, plain)]
        assert results[0].returncode == results[1].returncode == 0
        assert results[0].stdout == results[1].stdout
        assert f"warning: ignoring checkpoint {SIDECAR}" in results[0].stderr
        assert results[1].stderr == ""
        if warning is not None:
            assert results[0].stderr == f"warning: ignoring checkpoint {SIDECAR}: {warning}\n"
        assert json.loads(sidecar.read_bytes().split(b"\n", 1)[0])["version"] == 4

    @pytest.mark.parametrize(
        "line, warning, error",
        [
            (b"not a record", "line 2: malformed record (wrong field count)",
             "line 2: malformed record (wrong field count)"),
            (b"\xff", "line 2: not UTF-8 (invalid start byte)", "line 2, byte offset {offset}: not UTF-8 (invalid start byte)"),
        ],
        ids=["malformed", "not-utf-8"],
    )
    def test_a_sidecar_for_a_file_whose_last_line_does_not_parse_means_the_replay_that_refuses_it(
        self, tmp_path, line, warning, error
    ):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        offset = ledger_file.stat().st_size
        with ledger_file.open("ab") as handle:
            handle.write(line + b"\n")
        data = ledger_file.read_bytes()
        digests = {"prefix_bytes": len(data), "prefix_sha256": hashlib.sha256(data).hexdigest()}
        forge_sidecar(tmp_path / SIDECAR, lambda state: state, lambda header: {**header, **digests})
        result = dcm("deliver", "--cert", "LME-copper-0001", "--dt", "10", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (4, "")
        assert result.stderr == (
            f"warning: ignoring checkpoint {SIDECAR}: bad last line: {warning}\n"
            f"error: {error.format(offset=offset)}\n"
        )
        assert ledger_file.read_bytes() == data

    def test_forged_issue_counters_fail_replay_verify(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        sidecar = tmp_path / SIDECAR
        assert json.loads(sidecar.read_bytes().split(b"\n", 1)[0])["issue_counts"] == [["LME", "copper", 2]]
        # the state digest covers the counters, so the forger recomputes it
        forged = [["LME", "copper", 1], ["LME", "steel", 1]]
        forge_sidecar(sidecar, lambda state: state, lambda header: {**header, "issue_counts": forged})
        result = dcm("replay-verify", cwd=tmp_path)
        assert result.returncode == 4
        assert "checkpoint disagrees with the ledger at seq 2" in result.stderr

    def test_a_forged_line_no_command_reads_is_carried_until_replay_verify(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        forge_sidecar(tmp_path / SIDECAR, lambda state: [state[0].replace('"ACTIVE"', '"LOST"'), *state[1:]])
        delivered = dcm("deliver", "--cert", "LME-copper-0002", "--dt", "10", cwd=tmp_path)
        assert delivered.returncode == 0
        assert delivered.stderr == ""
        assert '"LOST"' in (tmp_path / SIDECAR).read_text(encoding="utf-8")
        result = dcm("replay-verify", cwd=tmp_path)
        assert result.returncode == 4
        assert "checkpoint disagrees with the ledger at seq 3" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "field, value",
        [("issue_counts", [["LMX", "copper", 2]])],
        ids=["renamed-issuer"],
    )
    def test_a_forged_header_field_means_a_full_replay_and_an_append_that_chains(self, tmp_path, field, value):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        sidecar = tmp_path / SIDECAR
        header, state = sidecar.read_bytes().split(b"\n", 1)
        forged = canonical_payload({**json.loads(header), field: value})  # both digests kept
        sidecar.write_bytes(forged.encode("utf-8") + b"\n" + state)
        result = dcm(*ISSUE_ARGS, cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.startswith("code: LME-copper-0003\n")
        assert f"warning: ignoring checkpoint {SIDECAR}" in result.stderr
        verified = dcm("replay-verify", cwd=tmp_path)
        assert (verified.returncode, verified.stderr) == (0, "")
        assert verified.stdout.startswith("ok: 3 events, 3 certificates")


# issues COUNT certificates in one process, each by ``main`` with ARGS, once its stdin closes
WRITER = """\
import sys
from dcm.cli import main

count, args = int(sys.argv[1]), ["dcm", *sys.argv[2:]]
sys.stdin.read()
for _ in range(count):
    sys.argv = args
    main()
"""


class TestLedgerLock:
    """A command that appends holds an exclusive lock on the ledger file from its read to its sidecar's rewrite."""

    def test_two_writers_at_once_append_every_event(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        count = 10
        read_end, write_end = os.pipe()
        try:
            writers = [
                start("-c", WRITER, str(count), *_edit("issue", "--issuer", issuer), cwd=tmp_path, stdin=read_end)
                for issuer in ("LME", "SHFE")
            ]
        finally:
            os.close(read_end)
        os.close(write_end)  # both writers start together: their stdin ends
        results = [writer.communicate(timeout=120) for writer in writers]
        assert [(writer.returncode, err) for writer, (_, err) in zip(writers, results)] == [(0, ""), (0, "")]
        for issuer, (out, _) in zip(("LME", "SHFE"), results):
            first = 2 if issuer == "LME" else 1
            codes = [line for line in out.splitlines() if line.startswith("code: ")]
            assert codes == [f"code: {issuer}-copper-{n:04d}" for n in range(first, first + count)]
        verified = dcm("replay-verify", cwd=tmp_path)
        assert (verified.returncode, verified.stderr) == (0, "")
        assert verified.stdout.startswith(f"ok: {1 + 2 * count} events, {1 + 2 * count} certificates, head ")

    @pytest.mark.parametrize(
        "held, args, waits",
        [
            (fcntl.LOCK_SH, ISSUE_ARGS, True),
            (fcntl.LOCK_EX, ["replay-verify"], True),
            (fcntl.LOCK_SH, ["replay-verify"], False),
        ],
        ids=["writer-waits-for-a-reader", "verify-waits-for-a-writer", "verify-shares-with-a-reader"],
    )
    def test_a_command_waits_for_a_lock_it_conflicts_with(self, tmp_path, held, args, waits):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        ledger_file = tmp_path / "dcm-ledger.log"
        before = ledger_file.read_bytes()
        fd = os.open(ledger_file, os.O_RDONLY)
        try:
            fcntl.flock(fd, held)
            command = start("-m", "dcm.cli", *args, cwd=tmp_path)
            if waits:
                with pytest.raises(subprocess.TimeoutExpired):
                    command.wait(timeout=1.5)
                assert ledger_file.read_bytes() == before
            else:
                command.wait(timeout=120)
        finally:
            os.close(fd)
        out, err = command.communicate(timeout=120)
        assert (command.returncode, err) == (0, "")
        assert out.startswith("code: LME-copper-0002\n" if args == ISSUE_ARGS else "ok: 1 events, 1 certificates")

    def test_the_lock_ends_with_its_block_and_loading_or_appending_takes_none(self, tmp_path):
        dcm(*ISSUE_ARGS, cwd=tmp_path)
        path = tmp_path / "dcm-ledger.log"
        fd = os.open(path, os.O_RDONLY)
        try:
            with LedgerFile(path).locked():
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
                app = AppContext(path, None, 1.0, RoundingProfile())
                registry = app.load_registry()
                assert app.load_registry().ledger.last_seq == registry.ledger.last_seq == 1
                registry.physical_delivery("LME-copper-0001", 10)
                AppContext(path, None, 1.0, RoundingProfile()).append_new_events(registry.ledger, 1)
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
        assert path.read_bytes().count(b"\n") == 2

    def test_a_refused_writer_leaves_an_empty_ledger_file_where_there_was_none(self, tmp_path):
        result = dcm(*_edit("issue", "--theta", "1.5"), cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert [(path.name, path.stat().st_size) for path in tmp_path.iterdir()] == [("dcm-ledger.log", 0)]
        verified = dcm("replay-verify", cwd=tmp_path)
        assert (verified.returncode, verified.stdout) == (0, f"ok: 0 events, 0 certificates, head {GENESIS_HASH}\n")


class TestRun:
    def test_bundled_scenario_by_name(self, tmp_path):
        result = dcm("run", "lme_copper", cwd=tmp_path)
        assert result.returncode == 0
        assert "992.7066" in result.stdout

    def test_json_report_file(self, tmp_path):
        result = dcm("run", "shfe_steel", "--report", "out.jsonl", "--format", "json", cwd=tmp_path)
        assert result.returncode == 0
        report = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
        assert result.stdout == report
        assert report.count("\n") == 6

    def test_failing_step_reports_its_index_and_kind(self, tmp_path):
        (tmp_path / "failing.yaml").write_text(FAILING_SCENARIO, encoding="utf-8")
        result = dcm("run", "failing.yaml", cwd=tmp_path)
        assert result.returncode == 3
        assert "step 3" in result.stderr

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("face_weight: 1000, owner: LME-float}", "face_weight: '1000', owner: LME-float}",
             "script step 1 (issue): face_weight must be a number, got '1000'"),
            ("cert: c1, date: 2020-07-01}", "cert: c1, date: 2020-07-01, premium: '0.25'}",
             "script step 3 (quote): premium must be a number, got '0.25'"),
            ("purity: 0.9999", "purity: '0.9999'", "issuer: purity must be a number, got '0.9999'"),
            ("theta: 0.99996",
             "theta_derivation: {mode: warehouse-only, daily_warehouse_charge: 0.2, cif_price: '5000'}",
             "theta_derivation: cif_price must be a number, got '5000'"),
            ("per_units: 1000", "per_units: '1000'", "prices: per_units must be a number, got '1000'"),
            ("[1, 10, 100, 1000]", "[1, 10, 100, '1000']",
             "issuer: denominations must be a number, got '1000'"),
            ("cert: c1, face_weight", "cert: ~, face_weight", "script step 1: cert must be a string, got None"),
            ("cert: c1, face_weight", "cert: [a], face_weight", "script step 1: cert must be a string, got ['a']"),
            ("action: issue,    cert: c1", "action: ~,    cert: c1",
             "script step 1: action must be a string, got None"),
            # an integer field takes only a YAML int: not text, and not a float, even a whole one
            ("{dt: 183, action: quote", "{dt: '183', action: quote", "script step 3: dt must be an integer, got '183'"),
            ("{dt: 183, action: quote", "{dt: 183.0, action: quote", "script step 3: dt must be an integer, got 183.0"),
            ("    delivery_location: LME designated warehouse\n",
             "    delivery_location: LME designated warehouse\n    validity_days: '30'\n",
             "delivery_rules: validity_days must be an integer, got '30'"),
            ("weight_places: 4", "weight_places: '4'", "rounding: weight_places must be an integer, got '4'"),
        ],
        ids=["face-weight", "premium", "purity", "cif-price", "per-units", "denomination", "cert-null", "cert-list",
             "action-null", "dt-quoted", "dt-whole-float", "validity-quoted", "places-quoted"],
    )
    def test_a_quoted_figure_or_a_step_name_that_is_not_text_exits_validation(self, tmp_path, old, new, message):
        bundled = SRC / "dcm" / "data"
        text = (bundled / "lme_copper.yaml").read_text(encoding="utf-8")
        assert old in text
        (tmp_path / "edited.yaml").write_text(text.replace(old, new, 1), encoding="utf-8")
        shutil.copy(bundled / "lme_copper_prices.csv", tmp_path)
        result = dcm("run", "edited.yaml", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    def test_non_numeric_scenario_value_exits_validation(self, tmp_path):
        (tmp_path / "bad.yaml").write_text(FAILING_SCENARIO.replace("face_weight: 5", "face_weight: five"), encoding="utf-8")
        result = dcm("run", "bad.yaml", cwd=tmp_path)
        assert result.returncode == 2
        assert "face_weight must be a number, got 'five'" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        ("step", "column"),
        [
            ("  - {dt: 0, action: issue, cert: d1, face_weight: 5, owner: " + "[" * DEEP + "]" * DEEP + "}", 90),
            ("  - {dt: 0, action: issue, cert: d1, face_weight: " + "[" * 20_000 + "]" * 20_000 + ", owner: a}", 80),
        ],
        ids=["owner", "face-weight"],
    )
    def test_a_scenario_nested_too_deep_exits_validation(self, tmp_path, step, column):
        (tmp_path / "deep.yaml").write_text(FAILING_SCENARIO + step + "\n", encoding="utf-8")
        result = dcm("run", "deep.yaml", cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == (
            f"error: cannot parse scenario deep.yaml: nested deeper than 32 levels at line 16, column {column}\n"
        )

    @pytest.mark.parametrize(
        ("edit", "cause"),
        [
            (("issue_date: 2020-01-01", "issue_date: 2020-02-30"), "day is out of range for month"),
            (("{dt: 1, action: deliver", "{dt: 0b_, action: deliver"), "invalid literal for int() with base 2: ''"),
        ],
        ids=["date", "binary-int"],
    )
    def test_a_scalar_that_does_not_build_exits_validation(self, tmp_path, edit, cause):
        (tmp_path / "bad.yaml").write_text(FAILING_SCENARIO.replace(*edit), encoding="utf-8")
        result = dcm("run", "bad.yaml", cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == f"error: cannot parse scenario bad.yaml: {cause}\n"

    @pytest.mark.parametrize(
        ("owner", "shown"), [("~", "None"), ("[a, b]", "['a', 'b']")], ids=["null", "list"]
    )
    def test_an_owner_that_is_not_a_string_exits_validation(self, tmp_path, owner, shown):
        (tmp_path / "bad.yaml").write_text(FAILING_SCENARIO.replace("owner: a", f"owner: {owner}"), encoding="utf-8")
        result = dcm("run", "bad.yaml", cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr == f"error: script step 1 (issue): owner must be a string, got {shown}\n"
        assert result.stdout == ""

    def test_a_text_field_that_is_not_a_string_exits_validation(self, tmp_path):
        text = FAILING_SCENARIO.replace("name: failing", "name: ~\ncurrency: [1, 2]")
        (tmp_path / "bad.yaml").write_text(text, encoding="utf-8")
        result = dcm("run", "bad.yaml", cwd=tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: scenario: name must be a string, got None\n"

    def test_scenario_that_is_not_utf8_exits_validation(self, tmp_path):
        (tmp_path / "bad.yaml").write_bytes(FAILING_SCENARIO.encode("utf-8") + b"# \xff\n")
        result = dcm("run", "bad.yaml", cwd=tmp_path)
        assert result.returncode == 2
        assert "cannot read scenario bad.yaml: byte" in result.stderr
        assert "is not UTF-8" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_scenario_exits_validation(self, tmp_path):
        result = dcm("run", "not-a-scenario", cwd=tmp_path)
        assert result.returncode == 2

    def test_bad_flag_exits_validation(self, tmp_path):
        result = dcm("theta", "--warehouse-charge", "abc", "--cif", "5000", cwd=tmp_path)
        assert result.returncode == 2


class TestProject:
    def test_projection_output(self, tmp_path):
        result = dcm("project", "--weight", "4e8", "--theta", "0.999945", "--days", "3650", cwd=tmp_path)
        assert result.returncode == 0
        assert "residual_weight: 327244967.4214" in result.stdout
        assert "issuer_accrued_weight: 72755032.5786" in result.stdout

    @pytest.mark.parametrize(
        "weight, message",
        [("nan", "anchor_weight must be finite, got nan"), ("-1", "anchor_weight must be > 0")],
        ids=["nan", "negative"],
    )
    def test_the_anchor_weight_is_refused_by_its_own_name(self, tmp_path, monkeypatch, capsys, weight, message):
        with pytest.raises(package.DomainError) as excinfo:
            package.wealth_projection(float(weight), 0.99, 3)
        assert str(excinfo.value) == message
        monkeypatch.chdir(tmp_path)
        argv = _edit("project", "--weight", weight)
        assert _run_in_process(argv, monkeypatch, capsys) == (2, "", f"error: {message}\n")


GOLDEN_SESSION = [
    (
        ["theta", "--warehouse-charge", "0.2", "--transfer-charge", "0.5", "--bank-rate", "0.03", "--cif", "5000",
         "--mode", "full-cost"],
        "0.999778 (full-cost)\n",
    ),
    (
        [*ISSUE_ARGS, "--validity-days", "400", "--location", "LME warehouse"],
        "code: LME-copper-0001\nissuer: LME\nmaterial: copper\nface_weight: 1000.0\nweight_unit: kg\n"
        "purity: 0.9999\nissue_date: 2020-01-01\ntheta: 0.999960\ndelivery_charge_ratio: 0.003\n"
        "withdrawal_charge_ratio: 0.002\nmin_delivery_weight: 1000.0\ndelivery_location: LME warehouse\n"
        "validity_days: 400\n",
    ),
    (
        ISSUE_ARGS,
        "code: LME-copper-0002\nissuer: LME\nmaterial: copper\nface_weight: 1000.0\nweight_unit: kg\n"
        "purity: 0.9999\nissue_date: 2020-01-01\ntheta: 0.999960\ndelivery_charge_ratio: 0.003\n"
        "withdrawal_charge_ratio: 0.002\nmin_delivery_weight: 1000.0\ndelivery_location: \n"
        "validity_days: none\n",
    ),
    (
        [*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", "183", "--premium", "0.25"],
        "residual_weight: 992.7066\nprice: 297.8120\n",
    ),
    (
        ["deliver", "--cert", "LME-copper-0001", "--dt", "365"],
        "residual_weight: 985.5058\ndelivered_weight: 982.5493\n",
    ),
    (
        [*PRICED, "--money-places", "2", "buyback", "--cert", "LME-copper-0002", "--dt", "365"],
        "buyback_weight: 983.5348\ncash: 49.18\n",
    ),
    (
        ["project", "--weight", "4e8", "--theta", "0.999945", "--days", "3650"],
        "residual_weight: 327244967.4214\nissuer_accrued_weight: 72755032.5786\n",
    ),
    (
        ["replay-verify"],
        "ok: 5 events, 2 certificates, head 2577f3cd98ede097e7e91d83616a7974bb379da1777702aaec07362e461da688\n",
    ),
    (
        ["run", "lme_copper"],
        "scenario lme_copper (USD)\n"
        "  step 1: action=issue, cert_id=LME-copper-0001, dt=0, owner=LME-float, theta_display=0.999960\n"
        "  step 2: action=issue, cert_id=LME-copper-0002, dt=0, owner=LME-float, theta_display=0.999960\n"
        "  step 3: action=quote, cert_id=LME-copper-0001, dt=183, price_display=4963.5330, "
        "residual_weight_display=992.7066\n"
        "  step 4: action=transfer, cert_id=LME-copper-0001, dt=183, to_owner=customer-1\n"
        "  step 5: action=deliver, cert_id=LME-copper-0001, charged_weight_display=2.9565, "
        "delivered_weight_display=982.5493, dt=365, residual_weight_display=985.5058\n"
        "  step 6: action=buyback, buyback_weight_display=983.5348, cash_display=5409.4414, "
        "cert_id=LME-copper-0002, charged_weight_display=1.9710, dt=365, residual_weight_display=985.5058\n"
        "  (6 steps)\n",
    ),
]
GOLDEN_FILES = {
    "dcm-ledger.log": "ad0b3f2d769a530b017c5425ec6a35d816d787a5e8156f94c2c2895b4b2b408a",
    SIDECAR: "a94a2652a581a4b61ae6b111889aaa3a8cb1126b54677d68dfdd4515d30f7dc3",
}


def test_each_command_prints_and_writes_the_pinned_bytes(tmp_path):
    (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
    for args, stdout in GOLDEN_SESSION:
        result = dcm(*args, cwd=tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_FILES}
    assert digests == GOLDEN_FILES


# A valid argument list per subcommand; the contract rows mutate it.
SUBCOMMANDS = {
    "theta": ["theta", "--warehouse-charge", "0.2", "--cif", "5000"],
    "issue": ISSUE_ARGS,
    "quote": ["quote", "--cert", "LME-copper-0001", "--dt", "3", "--premium", "0.1"],
    "deliver": ["deliver", "--cert", "LME-copper-0001", "--dt", "3"],
    "buyback": ["buyback", "--cert", "LME-copper-0001", "--dt", "3"],
    "run": ["run", "lme_copper", "--format", "text"],
    "project": ["project", "--weight", "4e8", "--theta", "0.999945", "--days", "3650"],
    "replay-verify": ["replay-verify"],
}


def _edit(name: str, flag: str, value: str | None = None) -> list[str]:
    """The subcommand's valid arguments with ``flag``'s value replaced, or with the flag removed."""
    args = SUBCOMMANDS[name]
    if flag not in args:
        return [*args, flag, value]
    at = args.index(flag)
    return [*args[:at], *args[at + 2 :]] if value is None else [*args[: at + 1], value, *args[at + 2 :]]


# rows that need an option of the subcommand's own; every subcommand also gets the group-option rows below
LOCAL_USAGE_ERRORS = {
    "theta": {"missing": _edit("theta", "--cif"), "float": _edit("theta", "--cif", "1e3x"),
              "mode": _edit("theta", "--mode", "explicit"), "abbreviated": ["theta", "--ware", "0.2", "--cif", "5000"]},
    "issue": {"missing": _edit("issue", "--owner"), "float": _edit("issue", "--purity", "pure"),
              "denominations": _edit("issue", "--denominations", "1,x"),
              "int": _edit("issue", "--validity-days", "0.5"), "date": _edit("issue", "--issue-date", "2020-13-01"),
              "date-basic-form": _edit("issue", "--issue-date", "20200101"),
              "date-week-form": _edit("issue", "--issue-date", "2020-W01-3"),
              "abbreviated": ["issue", "--own", "x", *ISSUE_ARGS[1:-2]]},
    "quote": {"missing": _edit("quote", "--dt"), "float": _edit("quote", "--premium", "1,5"),
              "int": _edit("quote", "--dt", "3.5"), "abbreviated": _edit("quote", "--prem", "0.1")},
    "deliver": {"missing": _edit("deliver", "--cert"), "int": _edit("deliver", "--dt", "3.0"),
                "abbreviated": ["deliver", "--ce", "LME-copper-0001", "--dt", "3"]},
    "buyback": {"missing": _edit("buyback", "--dt"), "int": _edit("buyback", "--dt", "1e2"),
                "abbreviated": ["buyback", "--cert", "LME-copper-0001", "--d", "3"]},
    "run": {"missing": ["run"], "format": _edit("run", "--format", "yaml"), "abbreviated": _edit("run", "--form", "json")},
    "project": {"missing": _edit("project", "--theta"), "float": _edit("project", "--weight", ""),
                "int": _edit("project", "--days", "36.5"), "abbreviated": _edit("project", "--day", "3"),
                # not usage errors but values the computation refuses: exit 2 all the same
                "days-beyond-float": _edit("project", "--days", "1" + "0" * 400),
                "places-beyond-precision": ["--weight-places", "30", *SUBCOMMANDS["project"]],
                "negative-places": ["--weight-places", "-1", *SUBCOMMANDS["project"]]},
    "replay-verify": {},
}
GROUP_USAGE_ERRORS = {
    "float": ["--price-per-units", "ten"],
    "not-positive": ["--price-per-units", "0"],
    "nan": ["--price-per-units", "nan"],
    "inf": ["--price-per-units", "inf"],
    "int": ["--weight-places", "2.5"],
    "prices": ["--prices", "no-such-prices.csv"],
    "prices-long-name": ["--prices", LONG],
    "abbreviated": ["--pri", "prices.csv"],
}
CONTRACT = [
    *(pytest.param([*group, *SUBCOMMANDS[name]], id=f"{name}-group-{row}")
      for name in SUBCOMMANDS for row, group in GROUP_USAGE_ERRORS.items()),
    *(pytest.param(argv, id=f"{name}-{row}") for name, rows in LOCAL_USAGE_ERRORS.items() for row, argv in rows.items()),
    *(pytest.param([*SUBCOMMANDS[name], "--no-such-flag"], id=f"{name}-unknown-flag") for name in SUBCOMMANDS),
    pytest.param(["no-such-command"], id="unknown-subcommand"),
]


def _run_in_process(argv, monkeypatch, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``dcm ARGV`` run by ``main`` in this process."""
    from dcm.cli import main

    monkeypatch.setattr(sys, "argv", ["dcm", *argv])
    try:
        main()
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodeContract:
    @pytest.mark.parametrize("argv", CONTRACT)
    def test_a_usage_error_exits_2_without_a_traceback(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        code, out, err = _run_in_process(argv, monkeypatch, capsys)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert not any(tmp_path.glob("dcm-ledger.log*"))

    @pytest.mark.parametrize("argv", [[], *([name] for name in SUBCOMMANDS)], ids=["group", *SUBCOMMANDS])
    def test_help_exits_0(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = _run_in_process([*argv, "--help"], monkeypatch, capsys)
        assert code == 0
        assert "--help" in out
        assert err == ""

    def test_a_closed_stdout_pipe_exits_1_without_a_message(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so its first write to stdout finds no reader
        try:
            result = python("-m", "dcm.cli", *SUBCOMMANDS["project"], cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")

    def test_an_interrupt_exits_130_with_one_newline(self, tmp_path, monkeypatch, capsys):
        from dcm import cli

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "wealth_projection", interrupted)
        assert _run_in_process(SUBCOMMANDS["project"], monkeypatch, capsys) == (130, "", "\n")

    def test_a_negative_number_in_exponent_form_is_a_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "prices.csv").write_text(PRICES, encoding="utf-8")
        assert _run_in_process(ISSUE_ARGS, monkeypatch, capsys)[0] == 0
        quoted = [*PRICED, "quote", "--cert", "LME-copper-0001", "--dt", "183", "--premium", "-1e-3"]
        assert _run_in_process(quoted, monkeypatch, capsys) == (0, "residual_weight: 992.7066\nprice: 48.6426\n", "")
