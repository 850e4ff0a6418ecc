"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data, so the same
seed always yields the same ledger, price series, scenario and CLI session.
Dates are fixed calendar dates, never the wall clock.
"""

from __future__ import annotations

import math
import random
from datetime import date, timedelta

from dcm import AttenuationSpec, DeliveryRules, MarketQuote, Registry

ISSUER = "X"
DENOMINATIONS = (1.0, 10.0, 100.0, 1000.0)
MATERIALS = ("copper", "steel", "silver")
ISSUE_DATE = date(2020, 1, 1)
SERIES_DAYS = 3653  # ten years of daily quotations from ISSUE_DATE
PRICE_PER_UNITS = 1000.0  # series quotes per ton, certificates are in kg


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def populate(rng: random.Random, n_ops: int, call=_call) -> Registry:
    """Drive ``n_ops`` random operations through a fresh registry.

    Shaped like ``_random_operations`` in tests/test_acceptance.py: 35% issue,
    then transfer, quote, deliver, buyback and expire against a random active
    certificate.  ``call(fn, *args, **kwargs)`` wraps every registry
    operation, so a tracer can time the registry calls alone.
    """
    registry = Registry()
    registry.register_issuer(ISSUER, DENOMINATIONS)
    active: list[str] = []

    def settle(index: int) -> None:
        active[index] = active[-1]
        active.pop()

    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35 or not active:
            theta = AttenuationSpec(theta_daily=rng.uniform(0.99, 0.99999))
            rules = DeliveryRules(
                delivery_charge_ratio=rng.uniform(0.0, 0.01),
                withdrawal_charge_ratio=rng.uniform(0.0, 0.01),
                min_delivery_weight=1.0,
                validity_days=rng.choice([None, 1000]),
            )
            cert = call(
                registry.issue,
                issuer=ISSUER,
                material=rng.choice(MATERIALS),
                face_weight=rng.choice(DENOMINATIONS),
                purity=rng.uniform(0.5, 1.0),
                issue_date=ISSUE_DATE,
                theta=theta,
                rules=rules,
                owner=f"holder-{rng.randrange(20)}",
            )
            active.append(cert.cert_id)
            continue
        index = rng.randrange(len(active))
        cert = registry.certificate(active[index])
        horizon = cert.rules.validity_days or 1000
        t = rng.randrange(0, horizon + 1)
        if roll < 0.55:
            call(registry.transfer, cert.cert_id, f"holder-{rng.randrange(20)}", t)
        elif roll < 0.75:
            quote = MarketQuote(quotation=rng.uniform(1.0, 100.0))
            call(registry.quote_transaction_price, cert.cert_id, quote, t)
        elif roll < 0.85:
            call(registry.physical_delivery, cert.cert_id, t)
            settle(index)
        elif roll < 0.95:
            quote = MarketQuote(quotation=rng.uniform(1.0, 100.0))
            call(registry.buyback, cert.cert_id, t, quote)
            settle(index)
        elif cert.rules.validity_days is not None:
            call(registry.expire, cert.cert_id, cert.rules.validity_days + 1 + rng.randrange(100))
            settle(index)
    return registry


def price_csv(rng: random.Random, days: int = SERIES_DAYS) -> str:
    """Daily ``date,price`` CSV: a log-normal random walk around 6000 per ton."""
    lines = ["date,price"]
    log_price = math.log(6000.0)
    for day in range(days):
        log_price += rng.gauss(0.0, 0.01)
        lines.append(f"{(ISSUE_DATE + timedelta(days=day)).isoformat()},{math.exp(log_price):.2f}")
    return "\n".join(lines) + "\n"


def scenario_yaml(rng: random.Random, n_steps: int, prices_file: str) -> str:
    """A scenario of ``n_steps`` issue/transfer/quote/deliver/buyback steps.

    Step days rise evenly over the ten-year price series, so every quote and
    buyback finds a quotation.  Certificates are open-ended, so no step can
    hit the validity window, and every step is legal.
    """
    lines = [
        "name: perfbench_long",
        "currency: USD",
        f"issue_date: {ISSUE_DATE.isoformat()}",
        "issuer:",
        f"  id: {ISSUER}",
        "  material: copper",
        "  weight_unit: kg",
        "  purity: 0.9999",
        "  denominations: [1, 10, 100, 1000]",
        "  theta: 0.99996",
        "  delivery_rules:",
        "    delivery_charge_ratio: 0.003",
        "    withdrawal_charge_ratio: 0.002",
        "    min_delivery_weight: 1",
        "    delivery_location: designated warehouse",
        "prices:",
        f"  path: {prices_file}",
        f"  per_units: {PRICE_PER_UNITS:g}",
        "rounding:",
        "  weight_places: 4",
        "  money_places: 4",
        "script:",
    ]
    active: list[str] = []
    issued = 0
    last_day = SERIES_DAYS - 1
    for step in range(n_steps):
        dt = step * last_day // n_steps
        roll = rng.random()
        if roll < 0.3 or not active:
            issued += 1
            alias = f"c{issued}"
            active.append(alias)
            face = rng.choice([1, 10, 100, 1000])
            lines.append(
                f"  - {{dt: {dt}, action: issue, cert: {alias}, face_weight: {face}, "
                f"owner: holder-{rng.randrange(50)}}}"
            )
            continue
        index = rng.randrange(len(active))
        alias = active[index]
        if roll < 0.5:
            lines.append(
                f"  - {{dt: {dt}, action: transfer, cert: {alias}, "
                f"new_owner: holder-{rng.randrange(50)}}}"
            )
        elif roll < 0.75:
            premium = rng.randrange(0, 500) / 10000
            lines.append(f"  - {{dt: {dt}, action: quote, cert: {alias}, premium: {premium}}}")
        else:
            action = "deliver" if roll < 0.87 else "buyback"
            lines.append(f"  - {{dt: {dt}, action: {action}, cert: {alias}}}")
            active[index] = active[-1]
            active.pop()
    return "\n".join(lines) + "\n"


def issue_args(rng: random.Random) -> dict:
    """CLI ``issue`` options for an issuer/material pair the seed ledger already holds.

    Values are short decimals, so the CLI's float parsing and the reference
    registry see identical numbers.
    """
    return {
        "material": rng.choice(MATERIALS),
        "face_weight": rng.choice(["1", "10", "100", "1000"]),
        "purity": f"{rng.randrange(5000, 10001) / 10000}",
        "theta": f"{rng.randrange(99000, 99999) / 100000}",
        "delivery_charge": f"{rng.randrange(0, 100) / 10000}",
        "withdrawal_charge": f"{rng.randrange(0, 100) / 10000}",
        "validity_days": rng.choice([None, 1000]),
        "owner": f"holder-{rng.randrange(20)}",
    }
