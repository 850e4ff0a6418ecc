"""The traced run: spans around calls into each layer's public functions.

Spans are recorded by the benchmark's own code, never inside ``src/dcm``.
A span has a name, a parent, a start, an end and a count of the work items
it covered; spans stay in memory and are summarised on stderr at the end.
Per-layer metrics are span time divided by span count.

Every traced run reports every layer.  The workload's own path is traced
where it calls the layer; a layer the workload does not call is probed on the
workload's data (its ledger, registry and price series), and where the
workload has no such data, on a small input generated from the same seed.
The tracing overhead is the workload's unit timed with spans against the
same unit timed without them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import subprocess
import sys
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path
from time import perf_counter

from dcm import (
    CertStatus,
    Ledger,
    MarketQuote,
    fmt,
    load_scenario,
    load_series,
    quantize_to_float,
    quote_at,
    read_events,
    replay,
    residual_weight,
    run_scenario,
)
from dcm.cli import AppContext
from dcm.ledger import canonical_payload
from dcm.rounding import RoundingProfile

import gen
from workloads import Outcome

PROBE_EVENTS = 20_000  # per-event probes use at most this many events
PROBE_OPS = 5_000
PROBE_CALLS = 20_000
PROBE_STEPS = 1_000  # scenario probe size for workloads without a scenario
SUBPROCESS_REPEATS = 5

# name -> (unit, span it is computed from, scale of seconds into the unit)
PER_LAYER = {
    "ledger.read_events_us": ("us", "ledger.read_events", 1e6),
    "ledger.canonical_payload_us": ("us", "ledger.canonical_payload", 1e6),
    "ledger.append_us": ("us", "ledger.append", 1e6),
    "ledger.to_lines_us": ("us", "ledger.to_lines", 1e6),
    "ledger.sha256_floor_us": ("us", "ledger.sha256_floor", 1e6),
    "ledger.json_loads_floor_us": ("us", "ledger.json_loads_floor", 1e6),
    "registry.replay_apply_us": ("us", "registry.replay_apply", 1e6),
    "registry.ops_us": ("us", "registry.ops", 1e6),
    "market.quote_at_us": ("us", "market.quote_at", 1e6),
    "market.load_series_ms": ("ms", "market.load_series", 1e3),
    "decay.residual_weight_us": ("us", "decay.residual_weight", 1e6),
    "rounding.fmt_us": ("us", "rounding.fmt", 1e6),
    "rounding.quantize_to_float_us": ("us", "rounding.quantize_to_float", 1e6),
    "scenario.load_scenario_s": ("s", "scenario.load_scenario", 1.0),
    "scenario.run_scenario_us": ("us", "scenario.run_scenario", 1e6),
    "scenario.report_us": ("us", "scenario.report", 1e6),
    "cli.interpreter_ms": ("ms", "cli.interpreter", 1e3),
    "cli.import_ms": ("ms", "cli.import", 1e3),
    "cli.load_registry_ms": ("ms", "cli.load_registry", 1e3),
    "cli.append_new_events_ms": ("ms", "cli.append_new_events", 1e3),
}


class Tracer:
    """In-memory spans: [name, parent index, start, end, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, count: int = 1):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, parent, perf_counter(), None, count])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def record(self, name: str, seconds: float, count: int = 1) -> None:
        """A span whose duration was measured elsewhere, such as in a child process."""
        end = perf_counter()
        self.spans.append([name, self._open[-1] if self._open else None, end - seconds, end, count])

    def totals(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total seconds, total count)."""
        out: dict[str, list] = {}
        for name, _, start, end, count in self.spans:
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start
            entry[1] += count
        return {name: tuple(v) for name, v in out.items()}

    def has(self, name: str) -> bool:
        return any(span[0] == name for span in self.spans)


def _probe_ledger(tracer: Tracer, lines: list[str]) -> None:
    if tracer.has("ledger.read_events"):
        sample = list(read_events(lines[:PROBE_EVENTS]))
    else:
        with tracer.span("ledger.read_events", count=len(lines)):
            events = list(read_events(lines))
        with tracer.span("registry.replay_apply", count=len(events)):
            replay(events)
        sample = events[:PROBE_EVENTS]
    with tracer.span("ledger.canonical_payload", count=len(sample)):
        for event in sample:
            canonical_payload(event.payload)
    ledger = Ledger()
    with tracer.span("ledger.append", count=len(sample)):
        for event in sample:
            ledger.append(event.kind, event.cert_id, event.payload, event.timestamp)
    with tracer.span("ledger.to_lines", count=len(sample)):
        ledger.to_lines()
    bodies = [line.rsplit("|", 1)[0] for line in lines[:PROBE_EVENTS]]
    with tracer.span("ledger.sha256_floor", count=len(bodies)):
        for body in bodies:
            hashlib.sha256(body.encode("utf-8")).hexdigest()
    payloads = [line.split("|", 4)[4].rsplit("|", 2)[0] for line in lines[:PROBE_EVENTS]]
    with tracer.span("ledger.json_loads_floor", count=len(payloads)):
        for payload in payloads:
            json.loads(payload)


def _probe_values(tracer: Tracer, rng: random.Random, registry, series_text: str) -> None:
    certs = list(registry.certificates.values())
    picks = [(certs[rng.randrange(len(certs))], rng.randrange(0, 1001)) for _ in range(PROBE_CALLS)]
    residuals = []
    with tracer.span("decay.residual_weight", count=len(picks)):
        for cert, dt in picks:
            residuals.append(residual_weight(cert.face_weight, cert.theta, dt))
    with tracer.span("rounding.fmt", count=len(residuals)):
        for value in residuals:
            fmt(value, 4)
    with tracer.span("rounding.quantize_to_float", count=len(residuals)):
        for value in residuals:
            quantize_to_float(value, 4)
    for _ in range(3):
        series = tracer.call("market.load_series", load_series, series_text)
    days = [gen.ISSUE_DATE + timedelta(days=rng.randrange(gen.SERIES_DAYS)) for _ in range(PROBE_OPS)]
    with tracer.span("market.quote_at", count=len(days)):
        for when in days:
            quote_at(series, when)


def _probe_scenario(tracer: Tracer, rng: random.Random, work: Path) -> None:
    (work / "probe_prices.csv").write_text(gen.price_csv(rng), encoding="utf-8")
    path = work / "probe.yaml"
    path.write_text(gen.scenario_yaml(rng, PROBE_STEPS, "probe_prices.csv"), encoding="utf-8")
    config = tracer.call("scenario.load_scenario", load_scenario, path)
    with tracer.span("scenario.run_scenario", count=PROBE_STEPS):
        report, _ = run_scenario(config)
    with tracer.span("scenario.report", count=PROBE_STEPS):
        report.to_json_lines()


def _probe_cli(tracer: Tracer, env: dict, lines: list[str], ledger_path: Path | None, work: Path) -> None:
    for _ in range(SUBPROCESS_REPEATS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        tracer.record("cli.interpreter", perf_counter() - started)
    timer = "import time; t = time.perf_counter(); import dcm.cli; print(time.perf_counter() - t)"
    for _ in range(SUBPROCESS_REPEATS):
        result = subprocess.run([sys.executable, "-c", timer], env=env, check=True, timeout=60,
                                capture_output=True, text=True)
        tracer.record("cli.import", float(result.stdout))
    if ledger_path is None:
        ledger_path = work / "probe.log"
        ledger_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    app = AppContext(ledger_path, None, gen.PRICE_PER_UNITS, RoundingProfile())
    registry = tracer.call("cli.load_registry", app.load_registry)
    appended = work / "append.log"
    appended.write_bytes(ledger_path.read_bytes())
    app = AppContext(appended, None, gen.PRICE_PER_UNITS, RoundingProfile())
    active = [c for c in registry.certificates.values() if c.status is CertStatus.ACTIVE]
    for cert in active[:3]:
        known = len(registry.ledger)
        registry.quote_transaction_price(cert.cert_id, MarketQuote(quotation=5.0), 0)
        tracer.call("cli.append_new_events", app.append_new_events, registry.ledger, known)


def traced_run(workload, seconds: float, out: Outcome) -> tuple[dict, Tracer]:
    """Trace one workload; returns the per-layer metrics and the tracer.

    The workload's unit runs alternately without and with spans, each from a
    collected heap; the tracing overhead compares the best of each.
    """
    untraced, traced = [], []
    tracer = Tracer()
    deadline = perf_counter() + seconds / 2
    while not traced or perf_counter() < deadline:
        gc.collect()
        started = perf_counter()
        workload.unit(None, out)
        untraced.append(perf_counter() - started)
        gc.collect()
        started = perf_counter()
        workload.unit(tracer, out)
        traced.append(perf_counter() - started)

    data = workload.layer_data()
    rng = random.Random(workload.seed + 2)
    lines = data["lines"]
    _probe_ledger(tracer, lines)
    gen.populate(rng, PROBE_OPS, call=lambda fn, *a, **k: tracer.call("registry.ops", fn, *a, **k))
    _probe_values(tracer, rng, data["registry"], data["series_text"] or gen.price_csv(rng))
    if not tracer.has("scenario.load_scenario"):
        _probe_scenario(tracer, rng, workload.work)
    _probe_cli(tracer, workload.env, lines, data["ledger_path"], workload.work)

    totals = tracer.totals()
    metrics = {}
    for name, (unit, span, scale) in PER_LAYER.items():
        seconds_total, count = totals[span]
        metrics[name] = (seconds_total / count * scale, unit)
    metrics["ledger.bytes_per_event"] = (sum(len(line) + 1 for line in lines) / len(lines), "count")
    metrics["trace.overhead_pct"] = ((min(traced) / min(untraced) - 1.0) * 100.0, "%")
    return metrics, tracer


def summary(tracer: Tracer) -> str:
    """One line per span name: calls, items and total milliseconds."""
    calls: dict[str, int] = {}
    for span in tracer.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    rows = [f"{'span':32} {'calls':>7} {'items':>8} {'total_ms':>10}"]
    for name, (total, count) in sorted(tracer.totals().items()):
        rows.append(f"{name:32} {calls[name]:7d} {count:8d} {total * 1e3:10.2f}")
    return "\n".join(rows)
