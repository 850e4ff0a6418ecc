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
        ],
        ids=[
            "face-weight", "dt", "purity", "theta-mode", "dt-fraction", "dt-infinite", "validity-fraction",
            "places-fraction", "dt-boolean", "face-weight-boolean", "denomination-boolean", "owner-null",
            "owner-list", "new-owner-integer",
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


def load_scenario_through_yaml_load(path, monkeypatch):
    """``load_scenario`` as it was before the event builder: ``yaml.load`` with the same loader."""
    with monkeypatch.context() as patch:
        patch.setattr(dcm.scenario, "_load_yaml", lambda text: yaml.load(text, Loader=dcm.scenario._LOADER))
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
    def test_real_scenarios_load_without_yaml_load(self, tmp_path, monkeypatch, make_path):
        path = make_path(tmp_path)
        reference = load_scenario_through_yaml_load(path, monkeypatch)
        monkeypatch.setattr(dcm.scenario.yaml, "load", None)
        assert load_scenario(path) == reference

    def test_an_anchored_issuer_block_loads_through_yaml_load(self, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, ISSUE_STEP)
        path.write_text(path.read_text(encoding="utf-8").replace("issuer:\n", "issuer: &terms\n"), encoding="utf-8")
        reference = load_scenario_through_yaml_load(path, monkeypatch)
        calls = []
        load = yaml.load
        monkeypatch.setattr(dcm.scenario.yaml, "load", lambda *args, **kwargs: calls.append(args) or load(*args, **kwargs))
        assert load_scenario(path) == reference
        assert len(calls) == 1

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
    reference = outcome(lambda text: yaml.load(text, Loader=dcm.scenario._LOADER), text)
    assert outcome(dcm.scenario._load_yaml, text) == reference, text


LOADERS = pytest.mark.parametrize("loader", ["default", "safe-loader"], indirect=True)


@pytest.fixture
def loader(request, monkeypatch):
    if request.param == "safe-loader":
        monkeypatch.setattr(dcm.scenario, "_LOADER", yaml.SafeLoader)


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
    # every construct that falls back to yaml.load
    "anchored-scalar": "a: &x 1\nb: *x\n",
    "anchored-mapping": "a: &x {k: [1, 2]}\nb: *x\nc: [*x, *x]\n",
    "recursive-alias": "- &a [*a]\n",
    "duplicate-anchor": "- &a 1\n- &a 2\n",
    "undefined-alias": "- *nothing\n",
    "explicit-str": "!!str 3",
    "explicit-map": "!!map {a: 1}",
    "binary": "!!binary aGVsbG8=",
    "set": "!!set {a, b}",
    "omap": "!!omap [a: 1, b: 2]",
    "local-tag": "a: !foo bar\n",
    "handle-tag": "%TAG !e! tag:example.com,2000:\n---\na: !e!x 1\n",
    "tagged-collection": "a: ! [1, 2]\nb: ! {c: d}\n",
    "merge-key": "base: &b {x: 1, y: 2}\nthis: {<<: *b, y: 3}\n",
    "merge-without-alias": "{<<: {x: 1}, y: 2}",
    "merge-list": "- &a {x: 1}\n- &b {y: 2}\n- {<<: [*a, *b], z: 3}\n",
    "merge-scalar": "{<<: 1}",
    "merge-as-value": "a: <<\n",
    "value-key": "{=: 1, a: 2}",
    "value-as-value": "a: =\n",
    "sequence-key": "? [1, 2]\n: x\n",
    "mapping-key": "? {a: 1}\n: x\n",
    "second-document": "a: 1\n---\nb: 2\n",
    "second-document-unparsable": "a: 1\n---\nb: [\n",
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
}


class TestEventBuilder:
    """``_load_yaml`` against ``yaml.load`` with the same loader, and the depth limit on both of its paths."""

    @LOADERS
    @pytest.mark.parametrize("text", DOCUMENTS.values(), ids=DOCUMENTS.keys())
    def test_builds_what_yaml_load_builds(self, loader, text):
        assert_builds_like_yaml_load(text)

    @LOADERS
    def test_random_documents_build_what_yaml_load_builds(self, loader):
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
        for _ in range(300):
            shared.clear()
            text = yaml.safe_dump(value(0), default_flow_style=rng.choice([True, False, None]), sort_keys=False)
            if rng.random() < 0.3:
                at = rng.randrange(len(text))
                text = text[:at] + rng.choice(noise) + text[at + 1:]
            assert_builds_like_yaml_load(text)

    @LOADERS
    @pytest.mark.parametrize("anchor", ["", "&deep "], ids=["plain", "anchored"])
    def test_nesting_past_the_limit_is_refused_where_it_starts(self, loader, anchor, monkeypatch):
        limit = dcm.scenario._MAX_DEPTH
        assert_builds_like_yaml_load(f"a: {anchor}" + "[" * (limit - 1) + "]" * (limit - 1))
        monkeypatch.setattr(dcm.scenario.yaml, "load", None)  # the limit holds before yaml.load could run
        text = f"a: 1\nb: {anchor}" + "[" * limit + "]" * limit + "\n"
        with pytest.raises(yaml.YAMLError) as excinfo:
            dcm.scenario._load_yaml(text)
        column = len(f"b: {anchor}") + limit
        assert str(excinfo.value) == f"nested deeper than {limit} levels at line 2, column {column}"

    @LOADERS
    def test_an_alias_counts_as_deep_as_its_anchor(self, loader, monkeypatch):
        limit = dcm.scenario._MAX_DEPTH
        anchored = "[" * (limit - 1) + "]" * (limit - 1)
        assert_builds_like_yaml_load(f"- &a {anchored}\n- *a\n")
        monkeypatch.setattr(dcm.scenario.yaml, "load", None)
        with pytest.raises(yaml.YAMLError, match=f"nested deeper than {limit} levels at line 2, column 4$"):
            dcm.scenario._load_yaml(f"- &a {anchored}\n- [*a]\n")

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
