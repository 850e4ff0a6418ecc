"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Each test is self-contained and seeded, so the randomized suites
are reproducible.
"""

from __future__ import annotations

import random
import time
from datetime import date
from decimal import Decimal

import numpy as np

from dcm import (
    AttenuationSpec,
    CifQuote,
    DeliveryRules,
    LogisticsParams,
    MarketQuote,
    Registry,
    StorageTariff,
    ThetaMode,
    attenuation_coefficient,
    bundled_scenario_path,
    load_scenario,
    optimal_order_quantity,
    read_events,
    replay,
    residual_weight,
    run_scenario,
    total_logistics_cost,
    wealth_projection,
)
from dcm.ledger import LedgerIntegrityError

DAYS = 365.0


def report(line: str) -> None:
    print(f"\n{line}")


def display_within(shown: str, pinned: str, tol: str) -> bool:
    return abs(Decimal(shown) - Decimal(pinned)) <= Decimal(tol)


def test_criterion_1_lme_copper_golden_scenario():
    started = time.perf_counter()
    result, _ = run_scenario(load_scenario(bundled_scenario_path("lme_copper")))
    elapsed = time.perf_counter() - started
    steps = {s["action"]: s for s in result.steps if s["action"] != "issue"}

    assert display_within(steps["quote"]["residual_weight_display"], "992.7066", "0.0001")
    assert display_within(steps["quote"]["price_display"], "4963.5331", "0.0001")
    assert display_within(steps["deliver"]["delivered_weight_display"], "982.5493", "0.0001")
    assert display_within(steps["buyback"]["buyback_weight_display"], "983.5348", "0.0001")
    assert display_within(steps["buyback"]["cash_display"], "5409.4414", "0.0001")
    assert elapsed < 1.0
    report(
        "PASS criterion 1: LME copper golden scenario "
        f"(residual 992.7066, purchase {steps['quote']['price_display']}, "
        f"delivery 982.5493, buyback 983.5348 / 5409.4414; {elapsed:.3f}s)"
    )


def test_criterion_2_shfe_steel_golden_scenario():
    started = time.perf_counter()
    result, _ = run_scenario(load_scenario(bundled_scenario_path("shfe_steel")))
    elapsed = time.perf_counter() - started
    steps = {s["action"]: s for s in result.steps if s["action"] != "issue"}

    assert display_within(steps["quote"]["residual_weight_display"], "98.99856", "0.0001")
    assert display_within(steps["quote"]["price_display"], "247496", "1")
    assert display_within(steps["deliver"]["delivered_weight_display"], "97.5224", "0.0001")
    assert display_within(steps["buyback"]["buyback_weight_display"], "97.8164", "0.0001")
    assert display_within(steps["buyback"]["cash_display"], "254323", "1")
    assert elapsed < 1.0
    report(
        "PASS criterion 2: SHFE steel golden scenario "
        f"(residual {steps['quote']['residual_weight_display']}, purchase "
        f"{steps['quote']['price_display']}, delivery 97.5224, buyback 97.8164 / "
        f"{steps['buyback']['cash_display']}; {elapsed:.3f}s)"
    )


def test_criterion_3_daily_cost_recovery_closure():
    # 1000 randomized (tariff, cif, rate) triples keeping both derivations in (0, 1)
    rng = random.Random(0x5EED03)
    checked = 0
    for _ in range(1000):
        rate = rng.uniform(0.02, 0.2)
        margin = rng.uniform(1e-4, 4e-3)  # warehouse+transfer ratio above the daily interest
        ratio = margin + rate / DAYS
        price = rng.uniform(100.0, 50000.0)
        split = rng.uniform(0.2, 0.8)
        tariff = StorageTariff(
            daily_warehouse_charge=split * ratio * price,
            outbound_transfer_charge=(1.0 - split) * ratio * price,
            bank_rate=rate,
        )
        cif = CifQuote(price_per_unit=price)
        daily_cost = (
            tariff.daily_warehouse_charge
            + price * rate / DAYS
            + tariff.outbound_transfer_charge
        )

        balanced = attenuation_coefficient(tariff, cif, ThetaMode.FULL_COST).theta_daily
        lhs = price * (1.0 - balanced)
        assert abs(lhs - daily_cost) <= 1e-12 * daily_cost

        credited = attenuation_coefficient(tariff, cif, ThetaMode.INTEREST_CREDITED).theta_daily
        lhs = price * (1.0 - credited)
        signed_residual = daily_cost - lhs
        expected = 2.0 * rate * price / DAYS
        assert abs(lhs - daily_cost) > 1e-9 * daily_cost  # closure must fail for rate > 0
        assert abs(signed_residual - expected) <= 1e-12 * expected
        checked += 1
    report(
        "PASS criterion 3: one-day cost-recovery closure on "
        f"{checked} random triples (balanced mode within 1e-12 relative; "
        "credited-interest mode off by exactly 2*rate*price/365)"
    )


def test_criterion_4_order_quantity_oracle():
    started = time.perf_counter()
    rng = random.Random(0x5EED04)
    worst = 0.0
    for _ in range(1000):
        params = LogisticsParams(
            ordering_cost=rng.uniform(1.0, 500.0),
            annual_demand=rng.uniform(10.0, 10000.0),
            purchase_price=rng.uniform(0.5, 200.0),
            unit_warehouse_cost=rng.uniform(0.01, 50.0),
            transport_cost=rng.uniform(0.0, 20.0),
            transit_days=rng.uniform(0.0, 60.0),
            bank_rate=rng.uniform(0.0, 0.3),
        )
        q_star = optimal_order_quantity(params)
        c_star = total_logistics_cost(params, q_star)

        half_width = min(10.0, max(1.0, 0.01 * q_star))
        grid = q_star + np.arange(-half_width, half_width + 5e-4, 1e-3)
        grid = grid[grid > 1e-9]
        carrying = params.carrying_rate()
        fixed = (
            params.purchase_price * params.annual_demand
            + params.transport_cost * params.annual_demand
            + params.bank_rate * params.purchase_price * params.annual_demand * params.transit_days / DAYS
        )
        costs = params.ordering_cost * params.annual_demand / grid + grid / 2.0 * carrying + fixed
        best = float(costs.min())
        worst = max(worst, (c_star - best) / c_star)
        assert c_star <= best * (1.0 + 1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(
        "PASS criterion 4: 1e-3 grid around the closed-form optimum never wins "
        f"by more than 1e-6 relative on 1000 random cost models "
        f"(worst gap {worst:.2e}; {elapsed:.2f}s)"
    )


def test_criterion_5_decay_composition_and_monotonicity():
    rng = random.Random(0x5EED05)
    for _ in range(10_000):
        weight = 10.0 ** rng.uniform(-3, 9)
        theta = rng.uniform(0.99, 0.999999)
        a = rng.randrange(0, 20000)
        b = rng.randrange(0, 20000)
        direct = residual_weight(weight, theta, a + b)
        staged = residual_weight(residual_weight(weight, theta, a), theta, b)
        assert abs(staged - direct) <= 1e-9 * direct

    for _ in range(10_000):
        weight = 10.0 ** rng.uniform(-3, 9)
        theta = rng.uniform(0.99, 0.999899)
        t = rng.randrange(0, 20000)
        assert residual_weight(weight, theta, t + 1) < residual_weight(weight, theta, t)
        bumped = theta + rng.uniform(1e-7, 1e-4)
        assert residual_weight(weight, bumped, t + 1) > residual_weight(weight, theta, t + 1)
    report(
        "PASS criterion 5: decay composition within 1e-9 relative and strict "
        "monotonicity in time and retention factor, 10000 random cases each"
    )


def _random_operations(rng: random.Random, length: int) -> Registry:
    registry = Registry()
    registry.register_issuer("X", [1.0, 10.0, 100.0, 1000.0])
    active: list[str] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.35 or not active:
            cert = registry.issue(
                issuer="X",
                material=rng.choice(["copper", "steel", "silver"]),
                face_weight=rng.choice([1.0, 10.0, 100.0, 1000.0]),
                purity=rng.uniform(0.5, 1.0),
                issue_date=date(2020, 1, 1),
                theta=AttenuationSpec(theta_daily=rng.uniform(0.99, 0.99999)),
                rules=DeliveryRules(
                    delivery_charge_ratio=rng.uniform(0.0, 0.01),
                    withdrawal_charge_ratio=rng.uniform(0.0, 0.01),
                    min_delivery_weight=1.0,
                    validity_days=rng.choice([None, 1000]),
                ),
                owner=f"holder-{rng.randrange(20)}",
            )
            active.append(cert.cert_id)
            continue
        cert_id = active[rng.randrange(len(active))]
        cert = registry.certificate(cert_id)
        horizon = cert.rules.validity_days or 1000
        t = rng.randrange(0, horizon + 1)
        if roll < 0.55:
            registry.transfer(cert_id, f"holder-{rng.randrange(20)}", t)
        elif roll < 0.75:
            registry.quote_transaction_price(
                cert_id, MarketQuote(quotation=rng.uniform(1.0, 100.0)), t
            )
        elif roll < 0.85:
            registry.physical_delivery(cert_id, t)
            active.remove(cert_id)
        elif roll < 0.95:
            registry.buyback(cert_id, t, MarketQuote(quotation=rng.uniform(1.0, 100.0)))
            active.remove(cert_id)
        elif cert.rules.validity_days is not None:
            registry.expire(cert_id, cert.rules.validity_days + 1 + rng.randrange(100))
            active.remove(cert_id)
    return registry


def test_criterion_6_replay_determinism_and_tamper_detection():
    started = time.perf_counter()
    rng = random.Random(0x5EED06)
    total_events = 0
    for _ in range(1000):
        registry = _random_operations(rng, rng.randrange(1, 1001))
        lines = registry.ledger.to_lines()
        total_events += len(lines)
        rebuilt = replay(read_events(lines))
        assert rebuilt.snapshot() == registry.snapshot()

    # tamper detection: a compact stream exercising every event kind, then
    # every byte of the wire text (separators included) mutated one at a time
    small = _random_operations(random.Random(0x7A6), 40)
    text = "\n".join(small.ledger.to_lines())
    kinds = {event.kind.value for event in small.ledger.events}
    assert kinds == {"ISSUE", "TRANSFER", "QUOTE", "DELIVER", "BUYBACK", "EXPIRE"}
    mutations = 0
    for position in range(len(text)):
        replacement = "X" if text[position] != "X" else "Y"
        mutated = text[:position] + replacement + text[position + 1 :]
        try:
            replay(read_events(mutated.split("\n")))
        except LedgerIntegrityError:
            mutations += 1
        else:
            raise AssertionError(f"byte {position} mutated without detection")
    elapsed = time.perf_counter() - started
    report(
        "PASS criterion 6: 1000 random operation sequences "
        f"({total_events} events) replay to identical state; all {mutations} "
        f"single-byte mutations caught as integrity errors ({elapsed:.1f}s)"
    )


def test_reducer_state_round_trips_through_its_json_form():
    rng = random.Random(0x5EED07)
    for _ in range(100):
        registry = _random_operations(rng, rng.randrange(1, 1001))
        lines = registry.state_lines()
        head = registry.ledger
        restored = Registry.from_state_lines(
            dict(zip(registry.certificates, lines)), registry.issue_counts(), head.last_seq, head.head_hash,
            source="state",
        )
        assert restored.snapshot() == registry.snapshot()
        assert restored.state_lines() == lines  # each line built above, and encoded again


def test_verified_lines_are_the_stored_lines():
    sources = [run_scenario(load_scenario(bundled_scenario_path(name)))[1] for name in ("lme_copper", "shfe_steel")]
    sources.append(_random_operations(random.Random(0x5EED06), 1000))
    for registry in sources:
        lines = registry.ledger.to_lines()
        assert [event.line for event in read_events(lines)] == lines


def test_criterion_7_wealth_projection():
    result = wealth_projection(0.4e9, 0.999945, 3650)
    assert 3.272e8 <= result.residual_weight <= 3.274e8
    assert result.residual_weight + result.issuer_accrued_weight == 0.4e9
    report(
        "PASS criterion 7: ten-year projection of 0.4e9 ton at 0.999945/day "
        f"leaves {result.residual_weight:.4e} ton with holders and "
        f"{result.issuer_accrued_weight:.4e} ton accrued to the issuer "
        "(headline figures round these to 0.3e9 / 0.1e9)"
    )
