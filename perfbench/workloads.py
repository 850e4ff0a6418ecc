"""The three benchmark workloads: ledger replay, long scenario and CLI session.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has returned.  ``setup`` builds the inputs from
the seed, ``measure`` runs the timed loop for a fixed number of seconds, and
``unit``/``layer_data`` serve the traced run in layers.py.  Correctness
checks run outside the timed regions.  Each in-process pass starts from a
collected heap with the previous pass's results released, as a fresh
process would, so the cyclic collector does not make pass times bimodal.

Every workload repeats one fixed sequence of operations in rounds until the
time is up: the passes over a ledger, the run + report passes on a loaded
scenario, or the commands of a CLI session restored to the same ledger file.
The host's speed drifts by tens of percent within seconds and by up to 1.8
times over minutes, at every operation alike, so no statistic of raw times
taken inside one run repeats from run to run.  Every timed operation
therefore runs between two runs of a fixed reference job (``reference``),
and its time is reported in reference milliseconds: its seconds over the
mean of the two reference times, times ``REFERENCE_MS``.  An operation's
figure is the median of these over the rounds.  The raw times go into the
detail line beside them.

A failed operation (an exception, or a command exiting non-zero where the
reference succeeds) counts in ``failed``.  ``correct`` turns false only when
an operation that completed produced a result different from its reference.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from dcm import (
    AttenuationSpec,
    CertStatus,
    DCMError,
    DeliveryRules,
    MarketQuote,
    export_certificate,
    fmt,
    load_scenario,
    load_series,
    quote_at,
    read_events,
    replay,
    run_scenario,
)
from dcm.cli import AppContext
from dcm.rounding import RoundingProfile

import gen

BLOCK_EVENTS = 1000  # ledger_replay times its stream in blocks of this many events
CHILD_TIMEOUT_S = 170
REFERENCE_MS = 20.0  # the reference job's nominal time; see reference()

# Reads a ledger file and replays it, as a library user would in a fresh process.
REPLAY_CHILD = """\
import sys
from dcm import read_events, replay
with open(sys.argv[1], encoding="utf-8") as handle:
    lines = handle.read().splitlines()
registry = replay(read_events(lines))
print(registry.ledger.last_seq, registry.ledger.head_hash)
"""


@dataclass
class Outcome:
    """What one benchmark run reports besides its metrics."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: Counter = field(default_factory=Counter)

    def fail(self, kind: str, operations: int = 1, *, wrong: bool = False) -> None:
        self.failed += operations
        self.failures[kind] += 1
        if wrong:
            self.correct = False


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile of at least two samples, interpolated between them.

    The inclusive method never reads beyond the largest sample, as the
    exclusive one does on a handful of samples.
    """
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def per_operation(rounds: list[list[float]]) -> list[float]:
    """Each operation's median time over rounds of the same operations."""
    return [median(times) for times in zip(*rounds)]


def reference() -> float:
    """Run the fixed reference job once; returns its seconds.

    The job is stdlib work of the kind the ledger does for every event
    (canonical JSON, SHA-256, ``json.loads``, dict inserts) on fixed inputs.
    It does not depend on the program, so its time follows only the host's
    speed.  It takes about REFERENCE_MS on an idle two-vCPU virtual machine
    (CPython 3.11).
    """
    started = perf_counter()
    seen = {}
    for i in range(2000):
        text = json.dumps({"a": i, "b": str(i) * 3, "c": i * 1.5, "d": [i, i + 1]}, sort_keys=True)
        seen[hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]] = json.loads(text)
    return perf_counter() - started


def timed(fn, *args):
    """Run ``fn(*args)`` between two runs of the reference job.

    Returns the result, the elapsed milliseconds and the elapsed reference
    milliseconds.
    """
    before = reference()
    started = perf_counter()
    result = fn(*args)
    elapsed = perf_counter() - started
    after = reference()
    return result, elapsed * 1e3, elapsed * REFERENCE_MS * 2 / (before + after)


def time_metrics(figures: dict) -> dict:
    """The end-to-end time metrics, with their units, from a workload's figures."""
    return {name: (value, "1/s" if name == "throughput_per_s" else "ms") for name, value in figures.items()}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def child_env(src: Path) -> dict:
    """Subprocess environment with the absolute ``src`` directory on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def flip_byte(lines: list[str]) -> list[str]:
    """Copy of ``lines`` with one payload byte of the middle record changed."""
    lines = list(lines)
    middle = len(lines) // 2
    line = lines[middle]
    position = line.index("{") + 2
    replacement = "Y" if line[position] == "X" else "X"
    lines[middle] = line[:position] + replacement + line[position + 1 :]
    return lines


def ledger_text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    why = ""
    bypasses = ""

    def __init__(self, seed: int, work: Path, env: dict, scale: float = 1.0, tamper: bool = False):
        self.seed = seed
        self.work = work
        self.env = env
        self.scale = scale
        self.tamper = tamper

    def size(self, full: int) -> int:
        return max(20, int(full * self.scale))


def _stamped(lines, every: int, stamps: list[float]):
    clock = perf_counter
    for index, line in enumerate(lines):
        if index % every == 0:
            stamps.append(clock())
        yield line
    stamps.append(clock())


class LedgerReplay(Workload):
    name = "ledger_replay"
    why = (
        "the library read path: replay(read_events(lines)) over a ~100k-event ledger of mixed kinds, "
        "the path the ledger speed-up targets"
    )
    bypasses = "registry operations, ledger append, rounding, market, scenario and the CLI do no work"
    OPS = 100_000

    def setup(self) -> None:
        self.lines = self.expected = None
        live = gen.populate(random.Random(self.seed), self.size(self.OPS))
        self.lines = live.ledger.to_lines()
        self.expected = live.snapshot()  # the live registry itself is not kept
        live = None
        replay(read_events(self.lines[:BLOCK_EVENTS]))
        if self.tamper:
            self.lines = flip_byte(self.lines)

    def check(self, rebuilt, out: Outcome) -> None:
        if rebuilt.snapshot() != self.expected:
            out.fail("replay_state", len(self.lines), wrong=True)

    def replay_once(self, out: Outcome, stamps: list[float]):
        out.attempted += len(self.lines)
        try:
            return replay(read_events(_stamped(self.lines, BLOCK_EVENTS, stamps)))
        except DCMError:
            out.fail("replay", len(self.lines))
            return None

    def child_peak_rss_mb(self, out: Outcome) -> float:
        """Replay the ledger from a file in a child process; returns the child's peak RSS."""
        path = self.work / "replay.log"
        path.write_text(ledger_text(self.lines), encoding="utf-8")
        out.attempted += len(self.lines)
        result = subprocess.run(
            [sys.executable, "-c", REPLAY_CHILD, str(path)],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        path.unlink()
        if result.returncode != 0:
            out.fail("child_replay", len(self.lines))
        elif result.stdout != f"{self.expected.last_seq} {self.expected.head_hash}\n":
            out.fail("child_replay", len(self.lines), wrong=True)
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def figures(self, rounds: list[list[float]]) -> dict:
        """Time metrics from the block times of each pass, in ms."""
        blocks = per_operation(rounds)
        if not blocks:
            return dict.fromkeys(("throughput_per_s", "op_p50_ms", "op_p90_ms", "replay_verify_ms"), 0.0)
        total_ms = sum(blocks)
        full = blocks[: len(self.lines) // BLOCK_EVENTS] or blocks
        return {
            "throughput_per_s": len(self.lines) * 1e3 / total_ms,
            "op_p50_ms": median(full),
            "op_p90_ms": percentile(full, 90),
            "replay_verify_ms": total_ms,
        }

    def measure(self, seconds: float, out: Outcome) -> tuple[dict, dict]:
        raw: list[list[float]] = []  # per pass, the time of each block
        scaled: list[list[float]] = []  # the same in reference ms
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            stamps: list[float] = []
            gc.collect()
            rebuilt, ms, ref_ms = timed(self.replay_once, out, stamps)
            if rebuilt is None:
                continue
            blocks = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
            raw.append(blocks)
            scaled.append([t * ref_ms / ms for t in blocks])
            self.check(rebuilt, out)
            rebuilt = None
        figures = self.figures(scaled)
        metrics = time_metrics(figures)
        metrics["peak_rss_mb"] = (self.child_peak_rss_mb(out), "MB")
        detail = {
            "events": len(self.lines),
            "replay_events_per_s": figures["throughput_per_s"],
            "raw": self.figures(raw),
            "samples": {"passes": len(raw), "blocks_of_1000_events": len(raw[0]) if raw else 0},
        }
        return metrics, detail

    # -- traced run ---------------------------------------------------------

    def unit(self, tracer, out: Outcome) -> None:
        n = len(self.lines)
        out.attempted += n
        try:
            if tracer is None:
                events = list(read_events(self.lines))
                rebuilt = replay(events)
            else:
                with tracer.span("ledger.read_events", count=n):
                    events = list(read_events(self.lines))
                with tracer.span("registry.replay_apply", count=n):
                    rebuilt = replay(events)
        except DCMError:
            out.fail("replay", n)
            return
        events = None
        self.check(rebuilt, out)
        self.registry = rebuilt

    def layer_data(self) -> dict:
        return {"lines": self.lines, "registry": self.registry, "series_text": None, "ledger_path": None}


class ScenarioLong(Workload):
    name = "scenario_long"
    why = (
        "the write path: load_scenario, run_scenario and to_json_lines on ~5k mixed steps against "
        "a ten-year daily price series, what `dcm run` does"
    )
    bypasses = "ledger parse/verify (except in the correctness check) and the CLI do no work"
    STEPS = 5_000
    EXECS = 4  # run + report passes on each loaded config

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.series_text = gen.price_csv(rng)
        (self.work / "prices.csv").write_text(self.series_text, encoding="utf-8")
        self.path = self.work / "long.yaml"
        self.steps = self.size(self.STEPS)
        self.path.write_text(gen.scenario_yaml(rng, self.steps, "prices.csv"), encoding="utf-8")
        self.report_sha = None
        run_scenario(load_scenario(self.path))[0].to_json_lines()

    def check(self, report, text: str, registry, out: Outcome) -> float | None:
        """Check one pass; returns the in-process replay-verify's (ms, reference ms)."""
        for record in report.steps:
            settled = record.get("delivered_weight", record.get("buyback_weight"))
            if settled is not None and settled + record["charged_weight"] != record["residual_weight"]:
                out.fail("settlement_balance", self.steps, wrong=True)
                return None
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.report_sha is None:
            self.report_sha = digest
        elif digest != self.report_sha:
            out.fail("report_repeatable", self.steps, wrong=True)
            return None
        lines = registry.ledger.to_lines()
        if self.tamper:
            lines = flip_byte(lines)
        gc.collect()
        try:
            rebuilt, ms, ref_ms = timed(replay, read_events(lines))
        except DCMError:
            out.fail("ledger_replay", self.steps)
            return None
        if rebuilt.snapshot() != registry.snapshot():
            out.fail("ledger_replay", self.steps, wrong=True)
            return None
        return ms, ref_ms

    def _run(self, config, out: Outcome):
        out.attempted += self.steps
        try:
            report, registry = run_scenario(config)
        except DCMError:
            out.fail("run_scenario", self.steps)
            return None
        return report, report.to_json_lines(), registry

    def round(self, out: Outcome) -> tuple[list[tuple], list[tuple]] | None:
        """Load the scenario, then run + report it EXECS times.

        Returns load + first run + report followed by each run + report, and
        the replay-verify of each check, each as (ms, reference ms); None on
        a failure.
        """
        times: list[tuple] = []
        verifies: list[tuple] = []
        gc.collect()
        config, *loaded = timed(load_scenario, self.path)
        for _ in range(self.EXECS):
            result = None
            gc.collect()
            result, *elapsed = timed(self._run, config, out)
            if result is None:
                return None
            times.append(elapsed)
            verify = self.check(*result, out)
            if verify is None:
                return None
            verifies.append(verify)
        first = [a + b for a, b in zip(loaded, times[0])]
        return [first, *times], verifies

    def figures(self, rounds: list[list[float]], verifies: list[float]) -> dict:
        """Time metrics from each round's operation times and the replay-verify times, in ms."""
        if not rounds:
            return dict.fromkeys(("throughput_per_s", "op_p50_ms", "op_p90_ms", "replay_verify_ms"), 0.0)
        full, *execs = per_operation(rounds)
        return {
            "throughput_per_s": self.steps * 1e3 / full,
            "op_p50_ms": median(execs),
            "op_p90_ms": percentile(execs, 90),
            "replay_verify_ms": median(verifies),
        }

    def measure(self, seconds: float, out: Outcome) -> tuple[dict, dict]:
        rounds: list[list[tuple]] = []
        verifies: list[tuple] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            measured = self.round(out)
            if measured is not None:
                rounds.append(measured[0])
                verifies.extend(measured[1])
        # pairs hold (ms, reference ms)
        raw = self.figures([[op[0] for op in ops] for ops in rounds], [v[0] for v in verifies])
        figures = self.figures([[op[1] for op in ops] for ops in rounds], [v[1] for v in verifies])
        metrics = time_metrics(figures)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        detail = {
            "steps": self.steps,
            "scenario_steps_per_s": figures["throughput_per_s"],
            "scenario_exec_steps_per_s": self.steps * 1e3 / figures["op_p50_ms"] if rounds else 0.0,
            "raw": raw,
            "samples": {"rounds": len(rounds), "run_report_per_round": self.EXECS, "replay_verify": len(verifies)},
        }
        return metrics, detail

    # -- traced run ---------------------------------------------------------

    def unit(self, tracer, out: Outcome) -> None:
        if tracer is None:
            result = self._run(load_scenario(self.path), out)
        else:
            with tracer.span("scenario.load_scenario"):
                config = load_scenario(self.path)
            out.attempted += self.steps
            try:
                with tracer.span("scenario.run_scenario", count=self.steps):
                    report, registry = run_scenario(config)
                with tracer.span("scenario.report", count=self.steps):
                    text = report.to_json_lines()
                result = report, text, registry
            except DCMError:
                out.fail("run_scenario", self.steps)
                result = None
        if result is not None:
            self.check(*result, out)
            self.registry = result[2]

    def layer_data(self) -> dict:
        return {
            "lines": self.registry.ledger.to_lines(),
            "registry": self.registry,
            "series_text": self.series_text,
            "ledger_path": None,
        }


def _tail_hash(path: Path) -> str:
    with path.open("rb") as handle:
        handle.seek(max(0, path.stat().st_size - 4096))
        last = handle.read().decode("utf-8").rstrip("\n").rsplit("\n", 1)[-1]
    return last.rsplit("|", 1)[1]


@dataclass
class Command:
    kind: str
    argv: list[str]
    expected_code: int
    expected_stdout: str


class CliSession(Workload):
    name = "cli_session"
    why = (
        "the operator path: python -m dcm.cli quote/deliver/buyback/issue and a periodic replay-verify "
        "against a ~10k-event ledger file, each command re-reading and re-verifying the whole file"
    )
    bypasses = "the only workload paying interpreter start, imports, file append and load_series per command"
    OPS = 10_000
    # A session is CYCLES repeats of this fixed cycle, each followed by a
    # replay-verify, so every run has the same command mix; only the
    # arguments come from the seed.  Kinds differ in cost (a failing issue skips the append, priced
    # commands load the series), so a random mix would move the median.
    CYCLE = ("quote", "issue", "deliver", "buyback")
    CYCLES = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.live = None
        self.live = gen.populate(rng, self.size(self.OPS))
        self.series_text = gen.price_csv(rng)
        self.series = load_series(self.series_text)
        self.prices = self.work / "prices.csv"
        self.prices.write_text(self.series_text, encoding="utf-8")
        self.ledger_path = self.work / "session.log"
        lines = self.live.ledger.to_lines()
        if self.tamper:
            lines = flip_byte(lines)
        self.initial = ledger_text(lines).encode("utf-8")
        self.ledger_path.write_bytes(self.initial)
        self.seed_events = len(lines)
        self.seed_certs = len(self.live.certificates)
        self.session = self._script(random.Random(self.seed + 1))
        self.dcm("replay-verify")

    def dcm(self, *args: str) -> subprocess.CompletedProcess:
        argv = [
            sys.executable, "-m", "dcm.cli",
            "--ledger", str(self.ledger_path),
            "--prices", str(self.prices),
            "--price-per-units", f"{gen.PRICE_PER_UNITS:g}",
            *args,
        ]
        return subprocess.run(
            argv, env=self.env, cwd=self.work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )

    def _market(self, cert, dt: int, premium: float) -> MarketQuote:
        when = cert.issue_date + timedelta(days=dt)
        return MarketQuote(quotation=quote_at(self.series, when) / gen.PRICE_PER_UNITS, premium=premium)

    def _reference(self, kind: str, args: dict) -> tuple[int, str]:
        """Exit code and stdout that the live in-process registry gives for the command."""
        live = self.live
        try:
            if kind == "issue":
                cert = live.issue(
                    issuer=gen.ISSUER,
                    material=args["material"],
                    face_weight=float(args["face_weight"]),
                    purity=float(args["purity"]),
                    issue_date=gen.ISSUE_DATE,
                    theta=AttenuationSpec(theta_daily=float(args["theta"])),
                    rules=DeliveryRules(
                        delivery_charge_ratio=float(args["delivery_charge"]),
                        withdrawal_charge_ratio=float(args["withdrawal_charge"]),
                        min_delivery_weight=1.0,
                        validity_days=args["validity_days"],
                    ),
                    owner=args["owner"],
                )
                return 0, export_certificate(cert)
            cert = live.certificate(args["cert"])
            if kind == "quote":
                result = live.quote_transaction_price(cert.cert_id, self._market(cert, args["dt"], args["premium"]), args["dt"])
                return 0, f"residual_weight: {fmt(result.residual_weight, 4)}\nprice: {fmt(result.price, 4)}\n"
            if kind == "deliver":
                result = live.physical_delivery(cert.cert_id, args["dt"])
                return 0, (
                    f"residual_weight: {fmt(result.residual_weight, 4)}\n"
                    f"delivered_weight: {fmt(result.delivered_weight, 4)}\n"
                )
            result = live.buyback(cert.cert_id, args["dt"], self._market(cert, args["dt"], 0.0))
            return 0, f"buyback_weight: {fmt(result.buyback_weight, 4)}\ncash: {fmt(result.cash, 4)}\n"
        except DCMError as exc:
            return exc.exit_code, ""

    def _command(self, kind: str, rng: random.Random, targets: list[str]) -> tuple[str, dict, list[str]]:
        if kind == "issue" or not targets:
            kind = "issue"
            args = gen.issue_args(rng)
            argv = [
                "issue", "--issuer", gen.ISSUER, "--material", args["material"],
                "--face-weight", args["face_weight"], "--purity", args["purity"],
                "--issue-date", gen.ISSUE_DATE.isoformat(), "--theta", args["theta"],
                "--denominations", ",".join(f"{d:g}" for d in gen.DENOMINATIONS),
                "--delivery-charge", args["delivery_charge"],
                "--withdrawal-charge", args["withdrawal_charge"],
                "--min-delivery", "1", "--owner", args["owner"],
            ]
            if args["validity_days"] is not None:
                argv += ["--validity-days", str(args["validity_days"])]
            return kind, args, argv
        cert = self.live.certificate(targets[rng.randrange(len(targets))])
        args = {"cert": cert.cert_id, "dt": rng.randrange(0, (cert.rules.validity_days or 1000) + 1)}
        argv = [kind, "--cert", cert.cert_id, "--dt", str(args["dt"])]
        if kind == "quote":
            args["premium"] = rng.randrange(0, 500) / 10000
            argv += ["--premium", repr(args["premium"])]
        return kind, args, argv

    def _script(self, rng: random.Random) -> list[Command]:
        """The session's mutating commands, each with the live registry's answer.

        Commands address only certificates that are active in the seed ledger
        file; a certificate leaves the pool once delivered or bought back.
        """
        targets = [c.cert_id for c in self.live.certificates.values() if c.status is CertStatus.ACTIVE]
        session = []
        for _ in range(self.CYCLES):
            for kind in self.CYCLE:
                kind, args, argv = self._command(kind, rng, targets)
                code, stdout = self._reference(kind, args)
                if code == 0 and kind in ("deliver", "buyback"):
                    targets.remove(args["cert"])
                session.append(Command(kind, argv, code, stdout))
        return session

    def round(self, out: Outcome) -> tuple[list[list[float]], list[list[float]]]:
        """Restore the seed ledger file and run the session once.

        Returns each command's and each replay-verify's (ms, reference ms).
        """
        self.ledger_path.write_bytes(self.initial)
        events, certs = self.seed_events, self.seed_certs
        times, verifies = [], []
        for index, command in enumerate(self.session, 1):
            result, *elapsed = timed(self.dcm, *command.argv)
            times.append(elapsed)
            out.attempted += 1
            if result.returncode == 0:
                events += 1
                certs += command.kind == "issue"
                if command.expected_code != 0 or result.stdout != command.expected_stdout:
                    out.fail(command.kind, wrong=True)
            elif result.returncode != command.expected_code:
                out.fail(command.kind, wrong=command.expected_code != 0)
            if index % len(self.CYCLE) == 0:
                verifies.append(self.verify(out, events, certs))
        return times, verifies

    def verify(self, out: Outcome, events: int, certs: int) -> list[float]:
        result, *elapsed = timed(self.dcm, "replay-verify")
        out.attempted += 1
        expected = f"ok: {events} events, {certs} certificates, head {_tail_hash(self.ledger_path)}\n"
        if result.returncode != 0:
            out.fail("replay-verify")
        elif result.stdout != expected:
            out.fail("replay-verify", wrong=True)
        return elapsed

    @staticmethod
    def figures(rounds: list[list[float]], verifies: list[float]) -> dict:
        """Time metrics from each round's command times and the replay-verify times, in ms."""
        commands = per_operation(rounds)
        return {
            "throughput_per_s": len(commands) * 1e3 / sum(commands),
            "op_p50_ms": median(commands),
            "op_p90_ms": percentile(commands, 90),
            "replay_verify_ms": median(verifies),
        }

    def measure(self, seconds: float, out: Outcome) -> tuple[dict, dict]:
        rounds: list[list[list[float]]] = []
        verifies: list[list[float]] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            times, verified = self.round(out)
            rounds.append(times)
            verifies.extend(verified)
        # pairs hold (ms, reference ms)
        raw = self.figures([[op[0] for op in ops] for ops in rounds], [v[0] for v in verifies])
        figures = self.figures([[op[1] for op in ops] for ops in rounds], [v[1] for v in verifies])
        metrics = time_metrics(figures)
        metrics["peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
        detail = {
            "seed_events": self.seed_events,
            "cli_cmd_p50_ms": figures["op_p50_ms"],
            "cli_cmd_p90_ms": figures["op_p90_ms"],
            "replay_verify_ms": figures["replay_verify_ms"],
            "raw": raw,
            "samples": {
                "rounds": len(rounds),
                "mutating_commands_per_round": len(self.session),
            },
        }
        return metrics, detail

    # -- traced run ---------------------------------------------------------

    def unit(self, tracer, out: Outcome) -> None:
        """What every command does in-process first: replay the ledger file."""
        app = AppContext(self.ledger_path, None, gen.PRICE_PER_UNITS, RoundingProfile())
        out.attempted += 1
        try:
            if tracer is None:
                registry = app.load_registry()
            else:
                with tracer.span("cli.load_registry"):
                    registry = app.load_registry()
        except DCMError:
            out.fail("load_registry")
            return
        if len(registry.ledger) != self.seed_events or registry.ledger.head_hash != _tail_hash(self.ledger_path):
            out.fail("load_registry", wrong=True)

    def layer_data(self) -> dict:
        return {
            "lines": self.ledger_path.read_text(encoding="utf-8").splitlines(),
            "registry": self.live,
            "series_text": self.series_text,
            "ledger_path": self.ledger_path,
        }


WORKLOADS = {w.name: w for w in (LedgerReplay, ScenarioLong, CliSession)}
