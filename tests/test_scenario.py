"""Scenario loading, golden runs, report invariants, and wealth projection."""

from __future__ import annotations

import hashlib
import json
import random
import sys
from datetime import date, timedelta
from decimal import Decimal

import pytest
import yaml

import dcm.cli
import dcm.scenario
from dcm import (
    AttenuationSpec,
    CertStatus,
    ConfigError,
    EventKind,
    Registry,
    ScenarioConfig,
    ScenarioStepError,
    ScriptStep,
    bundled_scenario_path,
    load_scenario,
    replay,
    run_scenario,
    wealth_projection,
)
from dcm.errors import EXIT_SETTLEMENT
from dcm.ledger import read_events
from dcm.scenario import report_record
from conftest import same_json

MINIMAL_SCENARIO = """\
name: toy
currency: USD
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
prices:
  path: prices.csv
script:
{script}
"""

PRICES_CSV = "date,price\n2020-01-01,40\n"

ISSUE_STEP = "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n"


def write_scenario(tmp_path, script: str, body_extras: str = ""):
    text = MINIMAL_SCENARIO.format(script=script)
    if body_extras:
        text += body_extras
    path = tmp_path / "toy.yaml"
    path.write_text(text, encoding="utf-8")
    (tmp_path / "prices.csv").write_text(PRICES_CSV, encoding="utf-8")
    return path


def steps_by_action(report):
    by_action = {}
    for step in report.steps:
        by_action.setdefault(step["action"], []).append(step)
    return by_action


# sha256 of each bundled scenario's report, (to_json_lines(), to_text()): the bytes `dcm run` prints
REPORT_SHA256 = {
    "lme_copper": (
        "cdf78731802862895925f921bd5fc067214c37eaecc726a5adc4ee70969402d5",
        "e294a8530ad798898bde87ed1413b54c774425ab96ea88095b5b0dd4ee5427cc",
    ),
    "shfe_steel": (
        "38b4874eb1a4f6c903cd791b0d726ba71fe196a00991c7f6541813c4853aa181",
        "732378b68739cc734bae4b6c4f1d380c78a7629022a075f44dd7c2a7cded3e32",
    ),
}

# every action once, and a lapsed certificate swept to the issuer
SIX_ACTIONS = (
    "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n"
    "  - {dt: 0, action: issue, cert: c2, face_weight: 5, owner: a, date: 2020-01-03}\n"
    "  - {dt: 2, action: issue, cert: c3, face_weight: 5, owner: b}\n"
    "  - {dt: 3, action: transfer, cert: c1, new_owner: b}\n"
    "  - {dt: 4, action: quote, cert: c1, premium: 0.5, date: 2020-01-06}\n"
    "  - {dt: 5, action: deliver, cert: c1}\n"
    "  - {dt: 6, action: buyback, cert: c2}\n"
    "  - {dt: 31, action: expire, cert: c3}\n"
)


def six_actions_scenario(tmp_path):
    path = write_scenario(tmp_path, SIX_ACTIONS)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("min_delivery_weight: 5\n", "min_delivery_weight: 5\n    validity_days: 30\n"))
    return path


class TestGoldenScenarios:
    def test_lme_copper_reproduces_the_case_study(self):
        report, registry = run_scenario(load_scenario(bundled_scenario_path("lme_copper")))
        steps = steps_by_action(report)
        quote = steps["quote"][0]
        assert quote["residual_weight_display"] == "992.7066"
        assert abs(Decimal(quote["price_display"]) - Decimal("4963.5331")) <= Decimal("0.0001")
        deliver = steps["deliver"][0]
        assert deliver["delivered_weight_display"] == "982.5493"
        buyback = steps["buyback"][0]
        assert buyback["buyback_weight_display"] == "983.5348"
        assert buyback["cash_display"] == "5409.4414"
        assert registry.certificate(quote["cert_id"]).status is CertStatus.DELIVERED

    def test_shfe_steel_reproduces_the_case_study(self):
        report, _ = run_scenario(load_scenario(bundled_scenario_path("shfe_steel")))
        steps = steps_by_action(report)
        quote = steps["quote"][0]
        assert abs(Decimal(quote["residual_weight_display"]) - Decimal("98.99856")) <= Decimal("0.0001")
        assert abs(Decimal(quote["price_display"]) - Decimal("247496")) <= Decimal("1")
        assert steps["deliver"][0]["delivered_weight_display"] == "97.5224"
        buyback = steps["buyback"][0]
        assert buyback["buyback_weight_display"] == "97.8164"
        assert abs(Decimal(buyback["cash_display"]) - Decimal("254323")) <= Decimal("1")

    @pytest.mark.parametrize("name", ["lme_copper", "shfe_steel"])
    def test_runs_are_byte_identical(self, name):
        config = load_scenario(bundled_scenario_path(name))
        first, _ = run_scenario(config)
        second, _ = run_scenario(load_scenario(bundled_scenario_path(name)))
        assert first.to_json_lines() == second.to_json_lines()

    @pytest.mark.parametrize("name", ["lme_copper", "shfe_steel"])
    def test_displayed_settlements_balance_to_the_last_digit(self, name):
        report, _ = run_scenario(load_scenario(bundled_scenario_path(name)))
        for step in report.steps:
            if step["action"] == "deliver":
                out, kept = step["delivered_weight_display"], step["charged_weight_display"]
            elif step["action"] == "buyback":
                out, kept = step["buyback_weight_display"], step["charged_weight_display"]
            else:
                continue
            assert Decimal(out) + Decimal(kept) == Decimal(step["residual_weight_display"])

    @pytest.mark.parametrize("name", ["lme_copper", "shfe_steel"])
    def test_ledger_replays_after_a_golden_run(self, name):
        from dcm import read_events, replay

        _, registry = run_scenario(load_scenario(bundled_scenario_path(name)))
        rebuilt = replay(read_events(registry.ledger.to_lines()))
        assert rebuilt.snapshot() == registry.snapshot()

    @pytest.mark.parametrize("name", ["lme_copper", "shfe_steel"])
    def test_reports_have_the_pinned_bytes(self, name):
        report, _ = run_scenario(load_scenario(bundled_scenario_path(name)))
        json_sha256, text_sha256 = REPORT_SHA256[name]
        assert hashlib.sha256(report.to_json_lines().encode("utf-8")).hexdigest() == json_sha256
        assert hashlib.sha256(report.to_text().encode("utf-8")).hexdigest() == text_sha256

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError, match="available"):
            bundled_scenario_path("nope")


class TestScenarioLoading:
    def test_empty_script_runs_to_an_empty_report(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text(MINIMAL_SCENARIO.format(script="  []").replace("prices:\n  path: prices.csv\n", ""), encoding="utf-8")
        report, registry = run_scenario(load_scenario(path))
        assert report.steps == []
        assert len(registry.ledger) == 0

    def test_quote_without_prices_is_rejected(self, tmp_path):
        text = MINIMAL_SCENARIO.format(
            script="  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n"
                   "  - {dt: 1, action: quote, cert: c1}\n"
        ).replace("prices:\n  path: prices.csv\n", "")
        path = tmp_path / "noprices.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="price series"):
            load_scenario(path)

    def test_missing_series_file_is_rejected(self, tmp_path):
        path = tmp_path / "toy.yaml"
        path.write_text(
            MINIMAL_SCENARIO.format(script="  []"), encoding="utf-8"
        )  # prices.csv intentionally absent
        with pytest.raises(ConfigError, match=r"^cannot read price series .*prices\.csv: \[Errno 2\] No such file"):
            load_scenario(path)

    def test_theta_and_derivation_are_mutually_exclusive(self, tmp_path):
        path = write_scenario(tmp_path, "  []")
        text = path.read_text(encoding="utf-8").replace(
            "  theta: 0.9999\n",
            "  theta: 0.9999\n  theta_derivation: {mode: warehouse-only, daily_warehouse_charge: 0.2, cif_price: 5000}\n",
        )
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="exactly one"):
            load_scenario(path)

    def test_derived_theta_scenario(self, tmp_path):
        path = write_scenario(tmp_path, "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n")
        text = path.read_text(encoding="utf-8").replace(
            "  theta: 0.9999\n",
            "  theta_derivation: {mode: warehouse-only, daily_warehouse_charge: 0.2, cif_price: 5000}\n",
        )
        path.write_text(text, encoding="utf-8")
        report, _ = run_scenario(load_scenario(path))
        assert report.steps[0]["theta_display"] == "0.999960"

    @pytest.mark.parametrize(
        ("script", "edit", "message"),
        [
            (
                ISSUE_STEP,
                ("    min_delivery_weight: 5\n", "    min_delivery_weight: 5\n    valditiy_days: 30\n"),
                "delivery_rules: unknown key 'valditiy_days'",
            ),
            (
                ISSUE_STEP + "  - {dt: 1, action: quote, cert: c1, premuim: 0.5}\n",
                None,
                r"script step 2 \(quote\): unknown key 'premuim'",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: 5, ownr: alice}\n",
                None,
                r"script step 1 \(issue\): unknown key 'ownr'",
            ),
            (
                ISSUE_STEP,
                ("script:\n", "rates:\n  - {date: 2020-01-01, rate: 0.05}\nscript:\n"),
                r"scenario .*toy\.yaml: unknown key 'rates'",
            ),
            (ISSUE_STEP, ("script:\n", "rounding: 4\nscript:\n"), "rounding must be a mapping"),
        ],
        ids=["misspelled-rule", "misspelled-quote-arg", "misspelled-issue-arg", "stale-rates-block", "scalar-section"],
    )
    def test_keys_the_loader_does_not_read_are_rejected(self, tmp_path, script, edit, message):
        path = write_scenario(tmp_path, script)
        if edit is not None:
            path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)

    @pytest.mark.parametrize(
        "script, edit, message",
        [
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: five, owner: a}\n",
                None,
                r"script step 1 \(issue\): face_weight must be a number, got 'five'",
            ),
            (
                "  - {dt: zero, action: issue, cert: c1, face_weight: 5, owner: a}\n",
                None,
                "script step 1: dt must be an integer, got 'zero'",
            ),
            (ISSUE_STEP, ("  theta: 0.9999\n", "  theta: 0.9999\n  purity: x\n"), "issuer: purity must be a number, got 'x'"),
            (
                ISSUE_STEP,
                ("  theta: 0.9999\n", "  theta_derivation: {mode: daily, daily_warehouse_charge: 0.2, cif_price: 5000}\n"),
                "theta_derivation: unknown mode 'daily'",
            ),
            (
                "  - {dt: 0.9, action: issue, cert: c1, face_weight: 5, owner: a}\n",
                None,
                "script step 1: dt must be an integer, got 0.9",
            ),
            (
                "  - {dt: .inf, action: issue, cert: c1, face_weight: 5, owner: a}\n",
                None,
                "script step 1: dt must be an integer, got inf",
            ),
            (
                ISSUE_STEP,
                ("    min_delivery_weight: 5\n", "    min_delivery_weight: 5\n    validity_days: 30.5\n"),
                "delivery_rules: validity_days must be an integer, got 30.5",
            ),
            (
                ISSUE_STEP,
                ("script:\n", "rounding: {weight_places: 2.5}\nscript:\n"),
                "rounding: weight_places must be an integer, got 2.5",
            ),
            (
                "  - {dt: true, action: issue, cert: c1, face_weight: 5, owner: a}\n",
                None,
                "script step 1: dt must be an integer, got True",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: yes, owner: a}\n",
                None,
                r"script step 1 \(issue\): face_weight must be a number, got True",
            ),
            (
                ISSUE_STEP,
                ("  denominations: [5]\n", "  denominations: [1, true]\n"),
                r"issuer: denominations must be a number, got True",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: ~}\n",
                None,
                r"script step 1 \(issue\): owner must be a string, got None",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: [a, b]}\n",
                None,
                r"script step 1 \(issue\): owner must be a string, got \['a', 'b'\]",
            ),
            (
                ISSUE_STEP + "  - {dt: 1, action: transfer, cert: c1, new_owner: 123}\n",
                None,
                r"script step 2 \(transfer\): new_owner must be a string, got 123",
            ),
            (ISSUE_STEP, ("issue_date: 2020-01-01", "issue_date: 20200101"), "issue_date: bad date 20200101"),
            (
                ISSUE_STEP,
                ("issue_date: 2020-01-01", "issue_date: '2020-W01-3'"),
                "issue_date: bad date '2020-W01-3'",
            ),
            (
                ISSUE_STEP,
                ("issue_date: 2020-01-01", "issue_date: 2020-01-01 10:00:00"),
                r"issue_date: bad date datetime.datetime\(2020, 1, 1, 10, 0\)",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a, date: 20200101}\n",
                None,
                "script step 1: bad date 20200101",
            ),
            # a quoted figure is text, as is 1e2: YAML 1.1 reads a float only with a dot and a signed exponent
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: '5', owner: a}\n",
                None,
                r"script step 1 \(issue\): face_weight must be a number, got '5'",
            ),
            (
                "  - {dt: 0, action: issue, cert: c1, face_weight: 5e0, owner: a}\n",
                None,
                r"script step 1 \(issue\): face_weight must be a number, got '5e0'",
            ),
            (
                ISSUE_STEP + "  - {dt: 1, action: quote, cert: c1, premium: '0.5'}\n",
                None,
                r"script step 2 \(quote\): premium must be a number, got '0.5'",
            ),
            (
                ISSUE_STEP,
                ("  theta: 0.9999\n", "  theta: 0.9999\n  purity: '0.9'\n"),
                "issuer: purity must be a number, got '0.9'",
            ),
            (
                ISSUE_STEP,
                (
                    "  theta: 0.9999\n",
                    "  theta_derivation: {mode: warehouse-only, daily_warehouse_charge: 0.2, cif_price: '5000'}\n",
                ),
                "theta_derivation: cif_price must be a number, got '5000'",
            ),
            (
                ISSUE_STEP,
                ("  path: prices.csv\n", "  path: prices.csv\n  per_units: '1000'\n"),
                "prices: per_units must be a number, got '1000'",
            ),
            (
                ISSUE_STEP,
                ("  denominations: [5]\n", "  denominations: [1, '5']\n"),
                r"issuer: denominations must be a number, got '5'",
            ),
            (
                ISSUE_STEP,
                ("  denominations: [5]\n", "  denominations: 5\n"),
                "issuer: denominations must be a list of numbers, got 5",
            ),
            (ISSUE_STEP, ("  id: X\n", ""), "issuer: missing key 'id'"),
            (
                ISSUE_STEP,
                ("  path: prices.csv\n", "  path: prices.csv\n  per_units: 0\n"),
                r"prices\.per_units must be > 0",
            ),
            ("  - [0, issue, c1]\n", None, "script step 1 must be a mapping"),
            ("", ("script:\n", "script: 5\n"), "script must be a list of steps, got 5"),
            ("", ("script:\n", "script: {a: 1}\n"), r"script must be a list of steps, got \{'a': 1\}"),
            ("", ("script:\n", "script: abc\n"), "script must be a list of steps, got 'abc'"),
        ],
        ids=[
            "face-weight", "dt", "purity", "theta-mode", "dt-fraction", "dt-infinite", "validity-fraction",
            "places-fraction", "dt-boolean", "face-weight-boolean", "denomination-boolean", "owner-null",
            "owner-list", "new-owner-integer", "issue-date-basic-form", "issue-date-week-form",
            "issue-date-with-time", "step-date-basic-form", "face-weight-quoted", "face-weight-exponent-text",
            "premium-quoted", "purity-quoted", "cif-price-quoted", "per-units-quoted", "denomination-quoted",
            "denominations-not-a-list", "missing-key", "per-units-zero", "step-not-a-mapping",
            "script-integer", "script-mapping", "script-text",
        ],
    )
    def test_values_of_the_wrong_type_are_config_errors(self, tmp_path, script, edit, message):
        path = write_scenario(tmp_path, script)
        if edit is not None:
            path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("name: toy\n", "name: ~\n"), "scenario: name must be a string, got None"),
            (("name: toy\n", "name: 2024\n"), "scenario: name must be a string, got 2024"),
            (("currency: USD\n", "currency: [1, 2]\n"), "scenario: currency must be a string, got [1, 2]"),
            (("  id: X\n", "  id: [X]\n"), "issuer: id must be a string, got ['X']"),
            (("  material: tin\n", "  material: 7\n"), "issuer: material must be a string, got 7"),
            (
                ("  material: tin\n", "  material: tin\n  weight_unit: ~\n"),
                "issuer: weight_unit must be a string, got None",
            ),
            (
                ("    min_delivery_weight: 5\n", "    min_delivery_weight: 5\n    delivery_location: {a: 1}\n"),
                "delivery_rules: delivery_location must be a string, got {'a': 1}",
            ),
            (("cert: c1", "cert: ~"), "script step 1: cert must be a string, got None"),
            (("cert: c1", "cert: [a]"), "script step 1: cert must be a string, got ['a']"),
            (("action: issue", "action: ~"), "script step 1: action must be a string, got None"),
            (("path: prices.csv", "path: ~"), "prices: path must be a string, got None"),
            (("path: prices.csv", "path: 5"), "prices: path must be a string, got 5"),
            (("path: prices.csv", "path: [a]"), "prices: path must be a string, got ['a']"),
        ],
        ids=["name-null", "name-integer", "currency-list", "issuer-id-list", "material-integer", "weight-unit-null",
             "location-mapping", "cert-null", "cert-list", "action-null", "prices-path-null", "prices-path-integer",
             "prices-path-list"],
    )
    def test_a_text_field_that_is_not_a_string_is_a_config_error(self, tmp_path, edit, message):
        path = write_scenario(tmp_path, ISSUE_STEP)
        path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == message

    def test_expire_step_accrues_to_the_issuer(self, tmp_path):
        path = write_scenario(
            tmp_path,
            "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n"
            "  - {dt: 31, action: expire, cert: c1}\n",
        )
        text = path.read_text(encoding="utf-8").replace(
            "    min_delivery_weight: 5\n",
            "    min_delivery_weight: 5\n    validity_days: 30\n",
        )
        path.write_text(text, encoding="utf-8")
        report, registry = run_scenario(load_scenario(path))
        expire = report.steps[-1]
        assert expire["action"] == "expire"
        assert Decimal(expire["issuer_accrued_weight_display"]) > 0
        cert_id = report.steps[0]["cert_id"]
        assert registry.certificate(cert_id).status is CertStatus.EXPIRED


class TestReportProjection:
    """Each report record is ``report_record`` of the event its step sealed."""

    @pytest.mark.parametrize(
        "make_path",
        [
            lambda tmp_path: bundled_scenario_path("lme_copper"),
            lambda tmp_path: bundled_scenario_path("shfe_steel"),
            six_actions_scenario,
            lambda tmp_path: generated_scenario(tmp_path),
        ],
        ids=["lme_copper", "shfe_steel", "six-actions", "generated"],
    )
    def test_records_rebuilt_from_the_read_ledger_equal_the_live_report(self, tmp_path, make_path):
        config = load_scenario(make_path(tmp_path))
        report, registry = run_scenario(config)
        events = list(read_events(registry.ledger.to_lines()))
        assert len(events) == len(config.script) == len(report.steps)
        rebuilt = [
            report_record(event, config.rounding, index, step)
            for index, (step, event) in enumerate(zip(config.script, events), start=1)
        ]
        assert rebuilt == report.steps
        assert all(map(same_json, rebuilt, report.steps))
        if make_path is six_actions_scenario:
            assert [record["action"] for record in rebuilt] == [
                "issue", "issue", "issue", "transfer", "quote", "deliver", "buyback", "expire"
            ]
            assert [record["date"] for record in rebuilt[:3]] == ["2020-01-01", "2020-01-03", "2020-01-03"]

    def test_a_record_that_cannot_be_displayed_fails_its_step_before_a_later_failing_step(self, tmp_path):
        # a delivery settles unrounded, so only its display needs 31 digits; step 3 fails in the registry
        path = write_scenario(
            tmp_path,
            ISSUE_STEP + "  - {dt: 1, action: deliver, cert: c1}\n  - {dt: 2, action: deliver, cert: c1}\n",
            "rounding: {weight_places: 30}\n",
        )
        with pytest.raises(ScenarioStepError) as excinfo:
            run_scenario(load_scenario(path))
        assert excinfo.value.step_index == 2
        assert excinfo.value.exit_code == 2
        assert "cannot round 4.9995 to 30 places in 28 digits" in str(excinfo.value)


def generated_scenario(tmp_path, n_steps: int = 300):
    """A flow-style script of every action, with ``date:`` overrides, ints, floats and quoted owners."""
    rng = random.Random(7)
    validity = 400
    start = date(2020, 1, 1)
    prices = [f"{start + timedelta(days=day)},{40 + day % 17 + 0.25 * (day % 3)}" for day in range(0, 500, 7)]
    (tmp_path / "prices.csv").write_text("date,price\n" + "\n".join(prices) + "\n", encoding="utf-8")
    lines = [
        "name: generated",
        "currency: USD",
        f"issue_date: {start}",
        "issuer: {id: G, material: tin, purity: 0.995, denominations: [1, 10, 100.0], theta: 0.99995,",
        f"  delivery_rules: {{delivery_charge_ratio: 0.003, withdrawal_charge_ratio: 0.002, "
        f"min_delivery_weight: 1, validity_days: {validity}}}}}",
        "prices: {path: prices.csv, per_units: 1000}",
        "rounding: {weight_places: 3, money_places: 2}",
        "script:",
    ]
    owners = ["plain-owner", '"double quoted: owner"', "'single # quoted'", '"caf\\u00e9"', "'123'"]
    active, issued = [], 0

    def step(dt, action, alias, extra=""):
        when = f", date: {start + timedelta(days=dt + rng.randrange(3))}" if rng.random() < 0.2 else ""
        lines.append(f"  - {{dt: {dt}, action: {action}, cert: {alias}{when}{extra}}}")

    for index in range(n_steps):
        dt = index * validity // n_steps
        roll = rng.random()
        if roll < 0.3 or not active:
            issued += 1
            active.append(f"c{issued}")
            face = rng.choice(["1", "10", "10.0", "100", "1.0e+2", "1.e+2"])  # YAML 1.1 reads 1e2 as text
            step(dt, "issue", active[-1], f", face_weight: {face}, owner: {rng.choice(owners)}")
        elif roll < 0.5:
            step(dt, "transfer", rng.choice(active), f", new_owner: {rng.choice(owners)}")
        elif roll < 0.7:
            step(dt, "quote", rng.choice(active), f", premium: {rng.choice(['0', '2', '0.5', '1.25'])}")
        else:
            alias = active.pop(rng.randrange(len(active)))
            step(dt, "deliver" if roll < 0.85 else "buyback", alias)
    for offset, alias in enumerate(active, start=1):
        step(validity + offset, "expire", alias)
    path = tmp_path / "generated.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def perfbench_shaped_scenario(tmp_path, n_steps: int = 300):
    """A block-style header and one flow mapping per step, as in ``perfbench/gen.py``'s ``scenario_yaml``."""
    rng = random.Random(11)
    start = date(2020, 1, 1)
    prices = [f"{start + timedelta(days=day)},{6000 + day % 97}" for day in range(n_steps)]
    (tmp_path / "prices.csv").write_text("date,price\n" + "\n".join(prices) + "\n", encoding="utf-8")
    lines = [
        "name: perfbench_long", "currency: USD", f"issue_date: {start}",
        "issuer:", "  id: LME", "  material: copper", "  weight_unit: kg", "  purity: 0.9999",
        "  denominations: [1, 10, 100, 1000]", "  theta: 0.99996", "  delivery_rules:",
        "    delivery_charge_ratio: 0.003", "    withdrawal_charge_ratio: 0.002", "    min_delivery_weight: 1",
        "    delivery_location: designated warehouse",
        "prices:", "  path: prices.csv", "  per_units: 1000",
        "rounding:", "  weight_places: 4", "  money_places: 4",
        "script:",
    ]
    active, issued = [], 0
    for dt in range(n_steps):
        roll = rng.random()
        if roll < 0.3 or not active:
            issued += 1
            active.append(f"c{issued}")
            lines.append(f"  - {{dt: {dt}, action: issue, cert: c{issued}, "
                         f"face_weight: {rng.choice([1, 10, 100, 1000])}, owner: holder-{rng.randrange(50)}}}")
        elif roll < 0.5:
            lines.append(f"  - {{dt: {dt}, action: transfer, cert: {rng.choice(active)}, "
                         f"new_owner: holder-{rng.randrange(50)}}}")
        elif roll < 0.75:
            lines.append(f"  - {{dt: {dt}, action: quote, cert: {rng.choice(active)}, "
                         f"premium: {rng.randrange(500) / 10000}}}")
        else:
            alias = active.pop(rng.randrange(len(active)))
            lines.append(f"  - {{dt: {dt}, action: {'deliver' if roll < 0.87 else 'buyback'}, cert: {alias}}}")
    path = tmp_path / "perfbench_long.yaml"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# sha256 of a generated scenario's to_json_lines(), to_text() and ledger lines: between them every action,
# date: overrides, int and float figures, quoted owners, and 3/2- and 4/4-place rounding
GENERATED_SHA256 = {
    "generated": (
        generated_scenario,
        "b5b908ea2b754a1e853eea0d035f155a80356aa2d6ff8c8d84683082d2f59779",
        "60b7feef57bf3d248df54fd80eb319f06464a03f0ac8b32a10065f277396cb88",
        "22fd0e2cf0724f1cc1e02cb56af93fd171d1eb5f3c9dfa8dc9d95eb7c4a92b9d",
    ),
    "perfbench-shaped": (
        perfbench_shaped_scenario,
        "f2cb6c85edd143ae48d4862b8d30839fad713e7cb48202827b6c522f5598267c",
        "30d6b021733d409f1ff8991e6135e65c9ef2a466c8ecd6b82d3ab32fd6991e5d",
        "f7e03adc3b377cb321be49ced2c02f11568b9df15082974ad249c5aded602d82",
    ),
}


@pytest.mark.parametrize("make_path, json_sha256, text_sha256, ledger_sha256", GENERATED_SHA256.values(),
                         ids=GENERATED_SHA256.keys())
def test_generated_reports_and_ledgers_have_the_pinned_bytes(tmp_path, make_path, json_sha256, text_sha256,
                                                             ledger_sha256):
    report, registry = run_scenario(load_scenario(make_path(tmp_path)))
    ledger = "".join(line + "\n" for line in registry.ledger.to_lines())
    assert [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (
        report.to_json_lines(), report.to_text(), ledger
    )] == [json_sha256, text_sha256, ledger_sha256]


@pytest.mark.parametrize("make_path", [generated_scenario, perfbench_shaped_scenario],
                         ids=["generated", "perfbench-shaped"])
def test_each_event_is_decided_once_live_and_on_replay(tmp_path, monkeypatch, make_path):
    config = load_scenario(make_path(tmp_path))
    decided = []
    legal = Registry._legal

    def counted(self, kind, cert_id, t):
        decided.append((kind, cert_id))
        return legal(self, kind, cert_id, t)

    monkeypatch.setattr(Registry, "_legal", counted)
    _, registry = run_scenario(config)
    events = list(read_events(registry.ledger.to_lines()))
    expected = [(event.kind, event.cert_id) for event in events if event.kind is not EventKind.ISSUE]
    assert 0 < len(expected) < len(events)
    assert decided == expected
    decided.clear()
    assert replay(events).snapshot() == registry.snapshot()
    assert decided == expected


YAML_LOAD = yaml.load  # the reference the event builder is held to; the tests here run with it patched away


def _no_composer(*args, **kwargs):
    raise AssertionError("a scenario input reached PyYAML's composer")


@pytest.fixture(autouse=True)
def no_composer(monkeypatch):
    """Every test here runs with ``yaml.load``, ``yaml.compose`` and ``yaml.compose_all`` raising."""
    for name in ("load", "compose", "compose_all"):
        monkeypatch.setattr(yaml, name, _no_composer)


def load_scenario_through_yaml_load(path, monkeypatch):
    """``load_scenario`` as it was before the event builder: ``yaml.load`` with the same loader."""
    with monkeypatch.context() as patch:
        patch.setattr(dcm.scenario, "_load_yaml", lambda text: YAML_LOAD(text, Loader=dcm.scenario._LOADER))
        return load_scenario(path)


class TestLoaders:
    """The default loader (libyaml's, where PyYAML has it) against PyYAML's pure-Python SafeLoader."""

    @pytest.mark.parametrize(
        "make_path",
        [
            lambda tmp_path: bundled_scenario_path("lme_copper"),
            lambda tmp_path: bundled_scenario_path("shfe_steel"),
            generated_scenario,
        ],
        ids=["lme_copper", "shfe_steel", "generated"],
    )
    def test_both_loaders_give_the_same_config_and_report(self, tmp_path, monkeypatch, make_path):
        assert dcm.scenario._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
        path = make_path(tmp_path)
        loaded = load_scenario(path)
        monkeypatch.setattr(dcm.scenario, "_LOADER", yaml.SafeLoader)
        reference = load_scenario(path)
        assert loaded == reference
        report = run_scenario(loaded)[0]
        assert report.to_json_lines() == run_scenario(reference)[0].to_json_lines()
        if path.name == "generated.yaml":
            assert {record["action"] for record in report.steps} == {
                "issue", "transfer", "quote", "deliver", "buyback", "expire"
            }
            assert any(step.date is not None for step in loaded.script)

    @pytest.mark.parametrize(
        "make_path",
        [
            lambda tmp_path: bundled_scenario_path("lme_copper"),
            lambda tmp_path: bundled_scenario_path("shfe_steel"),
            generated_scenario,
            perfbench_shaped_scenario,
        ],
        ids=["lme_copper", "shfe_steel", "generated", "perfbench-shaped"],
    )
    def test_real_scenarios_load_as_yaml_load_reads_them(self, tmp_path, monkeypatch, make_path):
        path = make_path(tmp_path)
        assert load_scenario(path) == load_scenario_through_yaml_load(path, monkeypatch)

    def test_an_anchored_issuer_block_is_a_config_error(self, tmp_path):
        path = write_scenario(tmp_path, ISSUE_STEP)
        path.write_text(path.read_text(encoding="utf-8").replace("issuer:\n", "issuer: &terms\n"), encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == f"cannot parse scenario {path}: unsupported anchor &terms at line 4, column 9"
        assert excinfo.value.exit_code == 2

    @pytest.mark.parametrize("reference", [False, True], ids=["default", "safe-loader"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, monkeypatch, reference):
        if reference:
            monkeypatch.setattr(dcm.scenario, "_LOADER", yaml.SafeLoader)
        path = tmp_path / "bad.yaml"
        path.write_text("a: [1, 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse scenario") as excinfo:
            load_scenario(path)
        assert excinfo.value.exit_code == 2


def outcome(load, text):
    """What loading ``text`` gives: the value's type and repr, or the exception's type and message."""
    try:
        value = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


def assert_builds_like_yaml_load(text):
    reference = outcome(lambda text: YAML_LOAD(text, Loader=dcm.scenario._LOADER), text)
    assert outcome(dcm.scenario._load_yaml, text) == reference, text


def refused_construct(text):
    """The refusal the event builder owes ``text``: its first construct outside the accepted subset, or None.

    The parser's events are read up to the first parse error, which ends the
    search: the builder raises that error first, as ``yaml.load`` does.
    """
    documents = 0
    collections = []  # [is a mapping, nodes read in it] for each open collection
    try:
        for event in yaml.parse(text, Loader=dcm.scenario._LOADER):
            mark = event.start_mark
            where = f" at line {mark.line + 1}, column {mark.column + 1}"
            if isinstance(event, yaml.DocumentStartEvent):
                documents += 1
                if documents == 2:
                    return "unsupported second document" + where
            elif isinstance(event, yaml.CollectionEndEvent):
                collections.pop()
            elif isinstance(event, yaml.NodeEvent):
                if isinstance(event, yaml.AliasEvent):
                    return f"unsupported alias *{event.anchor}" + where
                if event.anchor is not None:
                    return f"unsupported anchor &{event.anchor}" + where
                if event.tag not in (None, "!"):
                    return f"unsupported tag {event.tag}" + where
                plain = isinstance(event, yaml.ScalarEvent) and event.implicit[0]
                if plain and event.value in ("<<", "="):
                    return f"unsupported {'merge' if event.value == '<<' else 'value'} key {event.value}" + where
                if collections:
                    is_mapping, count = collections[-1]
                    if is_mapping and count % 2 == 0 and isinstance(event, yaml.CollectionStartEvent):
                        return "unsupported collection as a mapping key" + where
                    collections[-1][1] += 1
                if isinstance(event, yaml.CollectionStartEvent):
                    collections.append([isinstance(event, yaml.MappingStartEvent), 0])
    except yaml.YAMLError:
        pass
    return None


LOADERS = pytest.mark.parametrize("loader", ["default", "safe-loader"], indirect=True)


@pytest.fixture
def loader(request, monkeypatch):
    if request.param == "safe-loader":
        monkeypatch.setattr(dcm.scenario, "_LOADER", yaml.SafeLoader)


# documents the event builder reads: it builds what yaml.load builds, or raises what yaml.load raises
DOCUMENTS = {
    "booleans": "[yes, No, on, OFF, true, False, y, n, YES]",
    "nulls": "a: ~\nb:\nc: null\nd: [~, Null, '']\n",
    "ints": "[1_000, 0x1F, 017, 0b101, 1:20, -0x1f, +12, 0, -0, 08]",
    "floats": "[1e3, 1.0e+3, .inf, -.Inf, .NaN, 6.8523015e+5, 685.230_15e+03, 190:20:30.15, 1., .5]",
    "timestamps": "[2001-12-14t21:59:43.10-05:00, 2001-12-14 21:59:43.10 -5, 2002-12-14, 2001-12-15T02:59:43.1Z]",
    "quoted": "['1', \"yes\", ! 3, '', \"a\\tb\", 'it''s', \"caf\\u00e9\"]",
    "block-scalars": "a: |\n  x\n   y\nb: >-\n  folded\n  text\nc: |+\n  kept\n\n",
    "duplicate-keys": "a: 1\nb: [2]\na: {c: 3}\n",
    "duplicate-flow-keys": "{a: 1, b: 2, a: 3}",
    "scalar-keys": "{1: a, 1.5: b, true: c, ~: d, 2020-01-01: e, '1': f, 0x10: g, .nan: h, -.inf: i}",
    "colliding-keys": "{1: int, true: bool, 1.0: float}",
    "explicit-key": "? a\n: 1\n? b\n",
    "nested": "a:\n  - {b: [1, {c: d}], e: []}\n  - - x\n    - {}\nf: {g: {h: {i: j}}}\n",
    "scenario-step": "script:\n  - {dt: 0, action: issue, cert: c1, face_weight: 1.0e+2, owner: 'caf\\u00e9'}\n",
    "tagged-collection": "a: ! [1, 2]\nb: ! {c: d}\n",
    "quoted-merge-and-value": "{'<<': 1, \"=\": 2, a: '<<'}",
    # a scalar its constructor refuses raises its ValueError, unless the stream does not parse
    "bad-int": "a: 0b_\n",
    "bad-date": "a: 2020-02-30\n",
    "bad-date-then-parse-error": "a: 2020-02-30\nb: [\n",
    # empty streams
    "empty": "",
    "comment-only": "# nothing\n",
    "empty-document": "---\n",
    "document-end": "---\na: 1\n...\n",
    "directives": "%YAML 1.1\n%TAG !e! tag:example.com,2000:\n--- {a: 1, b: ! c}\n",
    "byte-order-mark": "\ufeffa: 1\n",
    # parse errors
    "unclosed-flow": "a: [1, 2\n",
    "mapping-in-scalar": "a: b: c\n",
    "unterminated-quote": "a: 'open\n",
    "extra-bracket": "{a: 1}}\n",
    "tab-indent": "a:\n\t- 1\n",
    "control-character": "a: \x07\n",
    "parse-error-then-anchor": "a: [1\nb: &x 2\n",
}

# each construct the event builder refuses, where it starts: (document, the refusal)
REFUSALS = {
    "anchored-scalar": ("a: &x 1\nb: *x\n", "unsupported anchor &x at line 1, column 4"),
    "anchored-mapping": ("a: &x {k: [1, 2]}\nb: *x\nc: [*x, *x]\n", "unsupported anchor &x at line 1, column 4"),
    "anchored-sequence": ("a:\n  - 1\nb: &seq\n  - 2\n", "unsupported anchor &seq at line 3, column 4"),
    "recursive-alias": ("- &a [*a]\n", "unsupported anchor &a at line 1, column 3"),
    "duplicate-anchor": ("- &a 1\n- &a 2\n", "unsupported anchor &a at line 1, column 3"),
    "merge-key": ("base: &b {x: 1, y: 2}\nthis: {<<: *b, y: 3}\n", "unsupported anchor &b at line 1, column 7"),
    "alias": ("a: 1\nb: *x\n", "unsupported alias *x at line 2, column 4"),
    "undefined-alias": ("- *nothing\n", "unsupported alias *nothing at line 1, column 3"),
    "explicit-str": ("!!str 3", "unsupported tag tag:yaml.org,2002:str at line 1, column 1"),
    "explicit-map": ("!!map {a: 1}", "unsupported tag tag:yaml.org,2002:map at line 1, column 1"),
    "explicit-seq": ("a: !!seq [1]\n", "unsupported tag tag:yaml.org,2002:seq at line 1, column 4"),
    "binary": ("!!binary aGVsbG8=", "unsupported tag tag:yaml.org,2002:binary at line 1, column 1"),
    "set": ("!!set {a, b}", "unsupported tag tag:yaml.org,2002:set at line 1, column 1"),
    "omap": ("!!omap [a: 1, b: 2]", "unsupported tag tag:yaml.org,2002:omap at line 1, column 1"),
    "local-tag": ("a: !foo bar\n", "unsupported tag !foo at line 1, column 4"),
    "handle-tag": ("%TAG !e! tag:example.com,2000:\n---\na: !e!x 1\n", "unsupported tag tag:example.com,2000:x at line 3, column 4"),
    "merge-list": ("- &a {x: 1}\n- &b {y: 2}\n- {<<: [*a, *b], z: 3}\n", "unsupported anchor &a at line 1, column 3"),
    "merge-without-alias": ("{<<: {x: 1}, y: 2}", "unsupported merge key << at line 1, column 2"),
    "merge-scalar": ("{<<: 1}", "unsupported merge key << at line 1, column 2"),
    "merge-as-value": ("a: <<\n", "unsupported merge key << at line 1, column 4"),
    "value-key": ("{=: 1, a: 2}", "unsupported value key = at line 1, column 2"),
    "value-as-value": ("a: =\n", "unsupported value key = at line 1, column 4"),
    "sequence-key": ("? [1, 2]\n: x\n", "unsupported collection as a mapping key at line 1, column 3"),
    "mapping-key": ("? {a: 1}\n: x\n", "unsupported collection as a mapping key at line 1, column 3"),
    "flow-key": ("{[1]: 2}", "unsupported collection as a mapping key at line 1, column 2"),
    "second-document": ("a: 1\n---\nb: 2\n", "unsupported second document at line 2, column 1"),
    "second-document-unparsable": ("a: 1\n---\nb: [\n", "unsupported second document at line 2, column 1"),
    "bad-date-then-anchor": ("a: 2020-02-30\nb: &x 1\n", "unsupported anchor &x at line 2, column 4"),
}


class TestEventBuilder:
    """``_load_yaml`` against ``yaml.load`` with the same loader, its refusals and its depth limit."""

    @LOADERS
    @pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_builds_what_yaml_load_builds(self, loader, text):
        assert refused_construct(text) is None
        assert_builds_like_yaml_load(text)

    @LOADERS
    @pytest.mark.parametrize("text, refusal", REFUSALS.values(), ids=REFUSALS.keys())
    def test_a_construct_outside_the_subset_is_refused_where_it_starts(self, loader, text, refusal):
        assert refused_construct(text) == refusal
        assert outcome(dcm.scenario._load_yaml, text) == (yaml.YAMLError, refusal)

    @pytest.mark.parametrize("text, refusal", REFUSALS.values(), ids=REFUSALS.keys())
    def test_dcm_run_refuses_the_construct_and_writes_nothing(self, tmp_path, monkeypatch, capsys, text, refusal):
        path = tmp_path / "refused.yaml"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(sys, "argv", ["dcm", "run", str(path), "--report", str(tmp_path / "report.jsonl")])
        with pytest.raises(SystemExit) as excinfo:
            dcm.cli.main()
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", f"error: cannot parse scenario {path}: {refusal}\n")
        assert sorted(child.name for child in tmp_path.iterdir()) == ["refused.yaml"]

    @LOADERS
    def test_random_documents_build_what_yaml_load_builds_or_are_refused(self, loader):
        rng = random.Random(13)
        words = ["yes", "No", "1e3", "0x1F", "1_000", "~", "", "null", "2020-01-01", "a: b", "- x", "#c", "'q'",
                 "two\nlines", "tab\there", "caf\u00e9", "<<", "=", "&a", "*a", "!t", " lead", "trail ", "[]"]
        scalars = [
            lambda: rng.randrange(-10**6, 10**6),
            lambda: rng.uniform(-1e6, 1e6),
            lambda: rng.choice([True, False, None, float("inf"), float("-inf"), float("nan"), 0.0, 1e-300]),
            lambda: date(2000, 1, 1) + timedelta(days=rng.randrange(10_000)),
            lambda: rng.choice(words),
        ]
        shared = []  # a collection placed twice is dumped with an anchor and an alias

        def value(depth):
            roll = rng.random()
            if depth < 3 and roll < 0.25:
                built = {rng.choice(scalars)(): value(depth + 1) for _ in range(rng.randrange(4))}
            elif depth < 3 and roll < 0.45:
                built = [value(depth + 1) for _ in range(rng.randrange(4))]
            elif shared and roll < 0.55:
                return rng.choice(shared)
            else:
                return rng.choice(scalars)()
            if rng.random() < 0.2:
                shared.append(built)
            return built

        noise = ":-[]{},&*!|>'\"#%@?=< \n\tab1."
        refused = 0
        for _ in range(300):
            shared.clear()
            text = yaml.safe_dump(value(0), default_flow_style=rng.choice([True, False, None]), sort_keys=False)
            if rng.random() < 0.3:
                at = rng.randrange(len(text))
                text = text[:at] + rng.choice(noise) + text[at + 1:]
            refusal = refused_construct(text)
            if refusal is None:
                assert_builds_like_yaml_load(text)
            else:
                refused += 1
                assert outcome(dcm.scenario._load_yaml, text) == (yaml.YAMLError, refusal), text
        assert 0 < refused < 300  # both sides of the oracle are exercised

    @LOADERS
    def test_nesting_past_the_limit_is_refused_where_it_starts(self, loader):
        limit = dcm.scenario._MAX_DEPTH
        assert_builds_like_yaml_load("a: " + "[" * (limit - 1) + "]" * (limit - 1))
        text = "a: 1\nb: " + "[" * limit + "]" * limit + "\n"
        with pytest.raises(yaml.YAMLError) as excinfo:
            dcm.scenario._load_yaml(text)
        assert str(excinfo.value) == f"nested deeper than {limit} levels at line 2, column {len('b: ') + limit}"

    def test_failing_step_reports_its_index_and_keeps_the_cause(self, tmp_path):
        path = write_scenario(
            tmp_path,
            "  - {dt: 0, action: issue, cert: c1, face_weight: 5, owner: a}\n"
            "  - {dt: 1, action: deliver, cert: c1}\n"
            "  - {dt: 2, action: deliver, cert: c1}\n",
        )
        with pytest.raises(ScenarioStepError) as excinfo:
            run_scenario(load_scenario(path))
        assert excinfo.value.step_index == 3
        assert excinfo.value.exit_code == EXIT_SETTLEMENT

    def test_a_settlement_rounded_past_the_decimal_precision_fails_its_step(self, tmp_path):
        path = write_scenario(
            tmp_path,
            ISSUE_STEP + "  - {dt: 1, action: quote, cert: c1}\n",
            "rounding: {weight_places: 30}\n",
        )
        with pytest.raises(ScenarioStepError) as excinfo:
            run_scenario(load_scenario(path))
        assert excinfo.value.step_index == 2
        assert excinfo.value.exit_code == 2
        assert "cannot round 4.9995 to 30 places in 28 digits" in str(excinfo.value)

def _step(dt, action, cert="c1", **args):
    return {"dt": dt, "action": action, "cert": cert, **args}


ISSUE_C1 = _step(0, "issue", face_weight=5, owner="a")

# a script, whether the scenario has prices, and the refusal of the script
SCRIPT_REFUSALS = {
    "unknown-action": ([ISSUE_C1, _step(1, "melt")], True, "script step 2: unknown action 'melt'"),
    "dt-below-zero": (
        [_step(-1, "issue", face_weight=5)], True,
        "script step 1 (issue): dt -1 is below 0: dt starts at 0 and never decreases",
    ),
    "dt-below-the-step-before": (
        [_step(10, "issue", face_weight=5), _step(5, "quote")], True,
        "script step 2 (quote): dt 5 is below 10: dt starts at 0 and never decreases",
    ),
    "dt-past-the-calendar": (
        [ISSUE_C1, _step(3_000_000, "deliver")], True,
        "script step 2 (deliver): dt 3000000 after 2020-01-01 falls outside the calendar, 0001-01-01 to 9999-12-31",
    ),
    "unknown-key": (
        [ISSUE_C1, _step(1, "deliver", premium=0.5)], True, "script step 2 (deliver): unknown key 'premium'"
    ),
    "missing-face-weight": ([_step(0, "issue", owner="a")], True, "script step 1 (issue): missing key 'face_weight'"),
    "missing-new-owner": ([ISSUE_C1, _step(1, "transfer")], True, "script step 2 (transfer): missing key 'new_owner'"),
    "reused-alias": (
        [ISSUE_C1, _step(0, "issue", "c2", face_weight=5), _step(1, "issue", face_weight=5)], True,
        "script step 3 (issue): alias 'c1' was issued by step 1",
    ),
    "unissued-alias": (
        [ISSUE_C1, _step(1, "deliver", "c2")], True,
        "script step 2 (deliver): alias 'c2' names no certificate an earlier step issued",
    ),
    "quote-without-prices": (
        [ISSUE_C1, _step(1, "quote")], False, "script step 2 (quote): no price series is configured"
    ),
    "buyback-without-prices": (
        [ISSUE_C1, _step(1, "buyback")], False, "script step 2 (buyback): no price series is configured"
    ),
    # each step's types, checked in the same pass: a quoted or whole-float day count is no integer
    "dt-quoted": ([ISSUE_C1, _step("183", "quote")], True, "script step 2: dt must be an integer, got '183'"),
    "dt-boolean": ([_step(True, "issue", face_weight=5)], True, "script step 1: dt must be an integer, got True"),
    "dt-fraction": ([ISSUE_C1, _step(0.5, "deliver")], True, "script step 2: dt must be an integer, got 0.5"),
    "action-integer": ([ISSUE_C1, _step(1, 5)], True, "script step 2: action must be a string, got 5"),
    "cert-integer": ([_step(0, "issue", 7, face_weight=5)], True, "script step 1: cert must be a string, got 7"),
    "cert-null": ([ISSUE_C1, _step(1, "deliver", None)], True, "script step 2: cert must be a string, got None"),
    "date-quoted-invalid": (
        [_step(0, "issue", face_weight=5, date="2020-02-30")], True, "script step 1: bad date '2020-02-30'"
    ),
    "face-weight-quoted": (
        [_step(0, "issue", face_weight="1000")], True, "script step 1 (issue): face_weight must be a number, got '1000'"
    ),
    "new-owner-integer": (
        [ISSUE_C1, _step(1, "transfer", new_owner=123)], True,
        "script step 2 (transfer): new_owner must be a string, got 123",
    ),
    # the first bad step is refused, whatever a later one holds
    "reused-alias-before-a-bad-owner": (
        [ISSUE_C1, _step(1, "issue", face_weight=5), _step(2, "quote"), _step(3, "transfer", new_owner=123)], True,
        "script step 2 (issue): alias 'c1' was issued by step 1",
    ),
}


def scripted_scenario(tmp_path, steps, prices: bool = True):
    """A scenario file running ``steps``, each written as a YAML flow mapping (JSON is one)."""
    path = write_scenario(tmp_path, "".join(f"  - {json.dumps(step)}\n" for step in steps))
    if not prices:
        path.write_text(path.read_text(encoding="utf-8").replace("prices:\n  path: prices.csv\n", ""))
    return path


def dcm_run(monkeypatch, capsys, *args) -> tuple[int, str, str]:
    """``dcm run ARGS`` in this process: its exit status, stdout and stderr."""
    monkeypatch.setattr(sys, "argv", ["dcm", "run", *map(str, args)])
    try:
        dcm.cli.main()
        status = 0
    except SystemExit as exc:
        status = exc.code
    return (status, *capsys.readouterr())


class TestScriptRefusals:
    """``ScenarioConfig`` refuses a script before any step runs, naming the step, in the library and in ``dcm run``."""

    @pytest.mark.parametrize("steps, prices, message", SCRIPT_REFUSALS.values(), ids=SCRIPT_REFUSALS.keys())
    def test_the_library_refuses_the_script(self, tmp_path, steps, prices, message):
        base = load_scenario(write_scenario(tmp_path, ISSUE_STEP))
        fields = ("dt", "action", "cert", "date")
        script = tuple(
            ScriptStep(*map(step.get, fields), args={key: step[key] for key in step if key not in fields})
            for step in steps
        )
        before = [(*step[:4], dict(step.args)) for step in script]
        with pytest.raises(ConfigError) as excinfo:
            ScenarioConfig(*base[:4], script, base.prices if prices else None)
        assert type(excinfo.value) is ConfigError
        assert str(excinfo.value) == message
        assert [(*step[:4], step.args) for step in script] == before  # the caller's steps are left as they were

    @pytest.mark.parametrize("steps, prices, message", SCRIPT_REFUSALS.values(), ids=SCRIPT_REFUSALS.keys())
    def test_dcm_run_refuses_the_script_and_writes_nothing(self, tmp_path, monkeypatch, capsys, steps, prices, message):
        path = scripted_scenario(tmp_path, steps, prices)
        before = sorted(child.name for child in tmp_path.iterdir())
        status = dcm_run(monkeypatch, capsys, path, "--report", tmp_path / "report.jsonl")
        assert status == (2, "", f"error: {message}\n")  # exit 2, nothing on stdout, one stderr line
        assert sorted(child.name for child in tmp_path.iterdir()) == before

    def test_an_issue_without_an_owner_issues_to_the_bearer(self, tmp_path):
        path = scripted_scenario(tmp_path, [_step(0, "issue", face_weight=5), _step(1, "quote")])
        report, registry = run_scenario(load_scenario(path))
        assert report.steps[0]["owner"] == "bearer"
        assert registry.certificate(report.steps[0]["cert_id"]).owner == "bearer"
        assert report.steps[1]["premium"] == 0.0


# a field given to the library ScenarioConfig, the scenario-file edit that gives load_scenario the same value,
# and the refusal both give
CONFIG_FIELD_REFUSALS = {
    "issue-date-integer": ({"issue_date": 5}, ("issue_date: 2020-01-01", "issue_date: 5"), "issue_date: bad date 5"),
    "issue-date-invalid-text": (
        {"issue_date": "2020-02-30"}, ("issue_date: 2020-01-01", "issue_date: '2020-02-30'"),
        "issue_date: bad date '2020-02-30'",
    ),
    "name-null": ({"name": None}, ("name: toy", "name: ~"), "scenario: name must be a string, got None"),
    "currency-integer": (
        {"currency": 5}, ("currency: USD", "currency: 5"), "scenario: currency must be a string, got 5"
    ),
    "per-units-zero": (
        {"price_per_units": 0}, ("  path: prices.csv\n", "  path: prices.csv\n  per_units: 0\n"),
        "prices.per_units must be > 0",
    ),
    "per-units-text": (
        {"price_per_units": "1"}, ("  path: prices.csv\n", "  path: prices.csv\n  per_units: '1'\n"),
        "prices: per_units must be a number, got '1'",
    ),
    "per-units-nan": (
        {"price_per_units": float("nan")}, ("  path: prices.csv\n", "  path: prices.csv\n  per_units: .nan\n"),
        "prices: per_units must be finite, got nan",
    ),
}


class TestConfigFields:
    """``ScenarioConfig`` checks its own fields, so the library and ``load_scenario`` read and refuse them alike."""

    @pytest.mark.parametrize("fields, edit, message", CONFIG_FIELD_REFUSALS.values(), ids=CONFIG_FIELD_REFUSALS.keys())
    def test_the_library_and_the_loader_refuse_a_field_alike(self, tmp_path, fields, edit, message):
        path = write_scenario(tmp_path, ISSUE_STEP)
        base = load_scenario(path)
        with pytest.raises(ConfigError) as library:
            base._replace(**fields)
        path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        with pytest.raises(ConfigError) as loaded:
            load_scenario(path)
        assert type(library.value) is type(loaded.value) is ConfigError
        assert str(library.value) == str(loaded.value) == message

    def test_an_iso_text_issue_date_is_read_as_the_loader_reads_it(self, tmp_path):
        path = write_scenario(tmp_path, ISSUE_STEP)
        base = load_scenario(path)
        assert base._replace(issue_date="2020-01-01").issue_date == date(2020, 1, 1)
        path.write_text(path.read_text(encoding="utf-8").replace("2020-01-01", "'2020-01-01'", 1), encoding="utf-8")
        assert load_scenario(path) == base

    def test_a_library_step_reports_as_the_same_yaml_step(self, tmp_path):
        quote = "  - {dt: 1, action: quote, cert: c1, premium: 0, date: '2020-01-03'}\n"
        path = write_scenario(tmp_path, ISSUE_STEP + quote)
        loaded = load_scenario(path)
        args = {"premium": 0}
        built = loaded._replace(script=(
            ScriptStep(0, "issue", "c1", None, {"face_weight": 5, "owner": "a"}),
            ScriptStep(1, "quote", "c1", "2020-01-03", args),
        ))
        assert built.script[1] == ScriptStep(1, "quote", "c1", date(2020, 1, 3), {"premium": 0.0})
        assert type(args["premium"]) is int  # the caller's step is left as it was
        lines = run_scenario(built)[0].to_json_lines()
        assert lines == run_scenario(loaded)[0].to_json_lines()
        assert '"premium":0.0' in lines


# a script of a shape no scenario file gives, handed to the library ScenarioConfig, and its refusal
LIBRARY_SCRIPT_REFUSALS = {
    "integer": (lambda steps: 5, "script must be a list of steps, got 5"),
    "none": (lambda steps: None, "script must be a list of steps, got None"),
    "three-fields": (
        lambda steps: (steps[0], (0, "issue", "c2"), *steps[2:]),
        "script step 2 must be a ScriptStep of five fields, got (0, 'issue', 'c2')",
    ),
    "args-integer": (
        lambda steps: (steps[0], (*steps[1][:4], 5), *steps[2:]), "script step 2: args must be a mapping, got 5"
    ),
}


@pytest.mark.parametrize("shape, message", LIBRARY_SCRIPT_REFUSALS.values(), ids=LIBRARY_SCRIPT_REFUSALS.keys())
def test_a_library_script_of_the_wrong_shape_is_a_config_error(shape, message):
    base = load_scenario(bundled_scenario_path("lme_copper"))
    with pytest.raises(ConfigError) as excinfo:
        base._replace(script=shape(base.script))
    assert type(excinfo.value) is ConfigError
    assert (str(excinfo.value), excinfo.value.exit_code) == (message, 2)


def test_a_null_script_runs_no_step(tmp_path):
    report, registry = run_scenario(load_scenario(write_scenario(tmp_path, "")))
    assert (report.steps, registry.ledger.last_seq) == ([], 0)


# an issuer term a value type refuses, and the refusal naming its section
ISSUER_TERM_REFUSALS = {
    "delivery-charge-ratio": (
        ("    delivery_charge_ratio: 0.003\n", "    delivery_charge_ratio: 0.5\n"),
        "delivery_rules: delivery_charge_ratio must lie in [0, 0.1]",
    ),
    "weight-places": (
        ("script:\n", "rounding: {weight_places: -1}\nscript:\n"), "rounding: rounding places must be >= 0"
    ),
    "no-denominations": (
        ("  denominations: [5]\n", "  denominations: []\n"), "issuer: denomination set must not be empty"
    ),
    "theta": (
        ("  theta: 0.9999\n", "  theta: 1.5\n"),
        "issuer: theta_daily 1.500000 (explicit) outside the open interval (0, 1)",
    ),
    "derived-theta": (
        (
            "  theta: 0.9999\n",
            "  theta_derivation: {mode: warehouse-only, daily_warehouse_charge: 5000, cif_price: 5000}\n",
        ),
        "theta_derivation: theta_daily 0.000000 (warehouse-only) outside the open interval (0, 1)",
    ),
}


@pytest.mark.parametrize("edit, message", ISSUER_TERM_REFUSALS.values(), ids=ISSUER_TERM_REFUSALS.keys())
def test_an_issuer_term_refusal_names_its_section_before_the_first_step(tmp_path, monkeypatch, capsys, edit, message):
    path = write_scenario(tmp_path, ISSUE_STEP)
    path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:  # not a ScenarioStepError: no step ran
        run_scenario(load_scenario(path))
    assert str(excinfo.value) == message
    assert dcm_run(monkeypatch, capsys, path) == (2, "", f"error: {message}\n")


def test_dcm_run_names_a_price_file_it_refuses(tmp_path, monkeypatch, capsys):
    path = write_scenario(tmp_path, ISSUE_STEP)
    (tmp_path / "prices.csv").write_text("date,price\n2020-07-01,nan\n", encoding="utf-8")
    before = {child.name: child.read_bytes() for child in tmp_path.iterdir()}
    assert dcm_run(monkeypatch, capsys, path, "--report", tmp_path / "report.jsonl") == (
        2, "", f"error: price series {tmp_path / 'prices.csv'}: line 2: price must be finite, got nan\n"
    )
    assert {child.name: child.read_bytes() for child in tmp_path.iterdir()} == before


class TestWealthProjection:
    def test_decade_scale_reference_case(self):
        # direct evaluation of face x theta^3650; the headline split is often
        # quoted rounded to 0.3e9 / 0.1e9 - documented as rounded, not asserted
        result = wealth_projection(0.4e9, 0.999945, 3650)
        assert 3.272e8 <= result.residual_weight <= 3.274e8
        assert result.issuer_accrued_weight == pytest.approx(7.2755e7, rel=1e-4)
        assert result.residual_weight + result.issuer_accrued_weight == 0.4e9

    def test_zero_horizon_keeps_everything(self):
        result = wealth_projection(123.0, AttenuationSpec(theta_daily=0.999945), 0)
        assert result.residual_weight == 123.0
        assert result.issuer_accrued_weight == 0.0

    def test_issuer_share_vanishes_as_theta_approaches_one(self):
        shares = [
            wealth_projection(1000.0, theta, 3650).issuer_accrued_weight
            for theta in (0.9999, 0.99999, 0.999999, 0.9999999)
        ]
        assert shares == sorted(shares, reverse=True)
        assert shares[-1] < 1000.0 * 4e-4

    def test_negative_horizon_is_rejected(self):
        from dcm import DomainError

        with pytest.raises(DomainError):
            wealth_projection(1000.0, 0.999945, -1)
