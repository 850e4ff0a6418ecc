"""Scenario loading, golden runs, report invariants, and wealth projection."""

from __future__ import annotations

import random
from datetime import date, timedelta
from decimal import Decimal

import pytest
import yaml

import dcm.scenario
from dcm import (
    AttenuationSpec,
    CertStatus,
    ConfigError,
    ScenarioStepError,
    bundled_scenario_path,
    load_scenario,
    run_scenario,
    wealth_projection,
)
from dcm.errors import EXIT_SETTLEMENT

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

    def test_decreasing_dt_is_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path,
            "  - {dt: 10, action: issue, cert: c1, face_weight: 5, owner: a}\n"
            "  - {dt: 5, action: quote, cert: c1}\n",
        )
        with pytest.raises(ConfigError, match="non-decreasing"):
            load_scenario(path)

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
        with pytest.raises(ConfigError, match="not found"):
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
                r"script step 1 \(issue\): face_weight must be numeric, got 'five'",
            ),
            (
                "  - {dt: zero, action: issue, cert: c1, face_weight: 5, owner: a}\n",
                None,
                "script step 1: dt must be an integer, got 'zero'",
            ),
            (ISSUE_STEP, ("  theta: 0.9999\n", "  theta: 0.9999\n  purity: x\n"), "issuer: purity must be numeric, got 'x'"),
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
                r"script step 1 \(issue\): face_weight must be numeric, got True",
            ),
            (
                ISSUE_STEP,
                ("  denominations: [5]\n", "  denominations: [1, true]\n"),
                r"issuer: denominations must be numeric, got \[1, True\]",
            ),
        ],
        ids=[
            "face-weight", "dt", "purity", "theta-mode", "dt-fraction", "dt-infinite", "validity-fraction",
            "places-fraction", "dt-boolean", "face-weight-boolean", "denomination-boolean",
        ],
    )
    def test_values_of_the_wrong_type_are_config_errors(self, tmp_path, script, edit, message):
        path = write_scenario(tmp_path, script)
        if edit is not None:
            path.write_text(path.read_text(encoding="utf-8").replace(*edit), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)

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
            face = rng.choice(["1", "10", "10.0", "100", "1.0e+2", "1e2"])
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

    @pytest.mark.parametrize("reference", [False, True], ids=["default", "safe-loader"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, monkeypatch, reference):
        if reference:
            monkeypatch.setattr(dcm.scenario, "_LOADER", yaml.SafeLoader)
        path = tmp_path / "bad.yaml"
        path.write_text("a: [1, 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse scenario") as excinfo:
            load_scenario(path)
        assert excinfo.value.exit_code == 2


class TestScenarioFailures:
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

    def test_unknown_alias_fails_the_step(self, tmp_path):
        path = write_scenario(tmp_path, "  - {dt: 0, action: quote, cert: ghost}\n")
        with pytest.raises(ScenarioStepError) as excinfo:
            run_scenario(load_scenario(path))
        assert excinfo.value.step_index == 1


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
