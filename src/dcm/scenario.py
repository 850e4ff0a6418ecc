"""Scripted end-to-end runs against a fresh registry.

A scenario file (YAML) declares the issuer's terms, optional price data, a
rounding profile, and an ordered script of (dt, action) steps.  The runner
executes the script, appending to a fresh ledger, and emits one report record
per step carrying every intermediate quantity both at full precision and in
display form.

Day counts are pinned explicitly in the script (``dt`` is days since
issuance); a step may also pin the calendar ``date`` used for the market
lookup and the ledger timestamp, because exchange-published day counts and
calendar dates do not always agree.  When ``date`` is omitted it derives as
issue_date + dt.
"""

from __future__ import annotations

from collections import namedtuple
from datetime import date, timedelta
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Any

import yaml
from yaml import AliasEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, ScalarNode
from yaml import SequenceEndEvent, SequenceStartEvent, StreamEndEvent

from .decay import AttenuationSpec, CifQuote, StorageTariff, ThetaMode, attenuation_coefficient
from .errors import ConfigError, DCMError, DomainError, ScenarioStepError
from .ledger import canonical_payload
from .market import PriceSeries, load_series, quote_at, read_text
from .registry import DeliveryRules, MarketQuote, Registry
from .rounding import RoundingProfile, fmt
from .values import Value

# each action and the step arguments it reads
_ACTIONS = {
    "issue": frozenset({"face_weight", "owner"}),
    "quote": frozenset({"premium"}),
    "transfer": frozenset({"new_owner"}),
    "deliver": frozenset(),
    "buyback": frozenset(),
    "expire": frozenset(),
}
_NUMERIC_ARGS = frozenset({"face_weight", "premium"})
_OWNER_ARGS = frozenset({"owner", "new_owner"})
_STEP_FIELDS = frozenset({"dt", "action", "cert", "date"})
# libyaml's parser where PyYAML was built with it; both loaders build values
# with the same SafeConstructor and resolver
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# a scenario nests 3 deep; a document nested past this is refused before
# libyaml's recursive composer, or the repr of one of its values, can
# exhaust the stack
_MAX_DEPTH = 32
_SCALAR_TAGS = frozenset("tag:yaml.org,2002:" + kind for kind in ("null", "bool", "int", "float", "timestamp", "str"))
_KEY = object()  # an open mapping awaits its next key; also a scalar not yet built


class ScriptStep(Value, namedtuple("ScriptStep", "dt action cert date args")):
    """One script line: ``cert`` is a script-local alias, ``date`` overrides the market/ledger date."""

    __slots__ = ()

    def __new__(
        cls, dt: int, action: str, cert: str, date: date | None = None, args: dict[str, Any] | None = None
    ):
        if dt < 0:
            raise ConfigError("step dt must be >= 0")
        if action not in _ACTIONS:
            raise ConfigError(f"unknown action {action!r}")
        return tuple.__new__(cls, (dt, action, cert, date, {} if args is None else args))


class IssuerTerms(Value, namedtuple(
    "IssuerTerms", "issuer_id material weight_unit purity denominations theta rules"
)):
    """The terms the scenario's issuer issues every certificate under."""

    __slots__ = ()


class ScenarioConfig(Value, namedtuple(
    "ScenarioConfig", "name currency issue_date issuer script prices price_per_units rounding"
)):
    """``price_per_units`` is the certificate weight units per quoted price unit."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        currency: str,
        issue_date: date,
        issuer: IssuerTerms,
        script: tuple[ScriptStep, ...],
        prices: PriceSeries | None = None,
        price_per_units: float = 1.0,
        rounding: RoundingProfile = RoundingProfile(),
    ):
        previous = 0
        for step in script:
            if step.dt < previous:
                raise ConfigError("script dt values must be non-decreasing")
            previous = step.dt
        needs_prices = any(s.action in ("quote", "buyback") for s in script)
        if needs_prices and prices is None:
            raise ConfigError("script quotes or buys back but no price series is configured")
        return tuple.__new__(cls, (name, currency, issue_date, issuer, script, prices, price_per_units, rounding))


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{context}: missing key {key!r}")
    return mapping[key]


def _check_keys(mapping: Any, allowed: AbstractSet[str], context: str) -> None:
    """Refuse a section that is not a mapping or holds a key the loader does not read."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a mapping")
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{context}: unknown key {key!r}")


_REQUIRED = object()


def _float(value: Any) -> float:
    """``float(value)``, refusing a boolean: YAML reads ``true`` and ``yes`` as one, and ``float`` takes it as 1.0."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _integer(value: Any) -> int:
    """``int(value)``, refusing a boolean and a fraction it would truncate."""
    if isinstance(value, bool):
        raise TypeError(value)
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(value)
    return number


def _number(mapping: dict, key: str, context: str, kind: Any = _float, default: Any = _REQUIRED) -> Any:
    """``kind(mapping[key])``; a missing key or a value ``kind`` refuses is a ConfigError naming both."""
    value = _require(mapping, key, context) if default is _REQUIRED else mapping.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        wanted = "an integer" if kind is _integer else "numeric"
        raise ConfigError(f"{context}: {key} must be {wanted}, got {value!r}") from None


def _as_date(value: Any, context: str) -> date:
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"{context}: bad date {value!r}") from None


def _theta_from_config(issuer_cfg: dict) -> AttenuationSpec:
    explicit = issuer_cfg.get("theta")
    derivation = issuer_cfg.get("theta_derivation")
    if (explicit is None) == (derivation is None):
        raise ConfigError("issuer must set exactly one of 'theta' or 'theta_derivation'")
    if explicit is not None:
        return AttenuationSpec(theta_daily=_number(issuer_cfg, "theta", "issuer"))
    _check_keys(
        derivation,
        {"mode", "daily_warehouse_charge", "outbound_transfer_charge", "bank_rate", "cif_price"},
        "theta_derivation",
    )
    mode = _require(derivation, "mode", "theta_derivation")
    try:
        mode = ThetaMode(mode)
    except ValueError:
        raise ConfigError(f"theta_derivation: unknown mode {mode!r}") from None
    tariff = StorageTariff(
        daily_warehouse_charge=_number(derivation, "daily_warehouse_charge", "theta_derivation"),
        outbound_transfer_charge=_number(derivation, "outbound_transfer_charge", "theta_derivation", default=0.0),
        bank_rate=_number(derivation, "bank_rate", "theta_derivation", default=0.0),
    )
    cif = CifQuote(price_per_unit=_number(derivation, "cif_price", "theta_derivation"))
    return attenuation_coefficient(tariff, cif, mode)


def _too_deep(event: Any) -> yaml.YAMLError:
    mark = event.start_mark
    return yaml.YAMLError(f"nested deeper than {_MAX_DEPTH} levels at line {mark.line + 1}, column {mark.column + 1}")


def _load_yaml(text: str) -> Any:
    """``yaml.load(text, Loader=_LOADER)``, built from the parser's events without a node graph.

    The loader's own resolver and safe constructors build each scalar,
    memoized by text and implicit flags: SafeLoader has no path resolvers and
    its scalars are immutable.  An anchor, an alias, an explicit tag other
    than ``!``, a merge or value key, a collection key, a second document or
    a scalar its constructor refuses sends the document to ``yaml.load``,
    once the rest of the stream is checked for depth.
    """
    loader = _LOADER(text)
    try:
        get_event, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
        built: dict = {}  # (value, implicit) -> the scalar built for it
        root = top = None  # the document, and its innermost open collection
        key: Any = _KEY  # in an open mapping, the key awaiting its value
        outer: list = []  # (collection, key) of each enclosing open collection
        documents = 0
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent or kind is MappingStartEvent or kind is SequenceStartEvent:
                if event.anchor is not None or event.tag not in (None, "!"):
                    break
                if kind is ScalarEvent:
                    memo = (event.value, event.implicit)
                    value = built.get(memo, _KEY)
                    if value is _KEY:
                        tag = resolve(ScalarNode, event.value, event.implicit)
                        if tag not in _SCALAR_TAGS:
                            break
                        try:
                            value = built[memo] = constructors[tag](loader, ScalarNode(tag, event.value))
                        except ValueError:
                            break
                else:
                    if len(outer) == _MAX_DEPTH:
                        raise _too_deep(event)
                    if key is _KEY and top.__class__ is dict:
                        break
                    value = {} if kind is MappingStartEvent else []
                if top.__class__ is list:
                    top.append(value)
                elif top is None:
                    root = value
                elif key is _KEY:
                    key = value
                else:
                    top[key] = value
                    key = _KEY
                if kind is not ScalarEvent:
                    outer.append((top, key))
                    top, key = value, _KEY
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                top, key = outer.pop()
            elif kind is AliasEvent:
                break
            elif kind is DocumentStartEvent:
                documents += 1
                if documents > 1:
                    break
            elif kind is StreamEndEvent:
                return root
        _check_depth(event, get_event, len(outer))
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_LOADER)


def _check_depth(event: Any, get_event: Any, depth: int) -> None:
    """Read the stream on from ``event``, inside ``depth`` open collections, refusing nesting past ``_MAX_DEPTH``.

    An alias counts as deep as its anchor's collection, so the value
    ``yaml.load`` builds is bounded too.  A parse error ends the reading, for
    the load to raise.
    """
    anchored: dict = {}  # anchor -> height of its collection
    heights: list = []  # [anchor, height] of each collection opened here
    while True:
        kind = event.__class__
        if kind is MappingStartEvent or kind is SequenceStartEvent:
            depth += 1
            if depth > _MAX_DEPTH:
                raise _too_deep(event)
            heights.append([event.anchor, 1])
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            depth -= 1
            if heights:
                anchor, height = heights.pop()
                anchored[anchor] = height
                if heights:
                    heights[-1][1] = max(heights[-1][1], height + 1)
        elif kind is AliasEvent:
            height = anchored.get(event.anchor, 0)
            if depth + height > _MAX_DEPTH:
                raise _too_deep(event)
            if heights:
                heights[-1][1] = max(heights[-1][1], height + 1)
        elif kind is StreamEndEvent:
            return
        try:
            event = get_event()
        except yaml.YAMLError:
            return


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a UTF-8 scenario file; referenced data paths resolve relative to it."""
    path = Path(path)
    text = read_text(path, "scenario")
    try:
        raw = _load_yaml(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a scalar that resolves but does not build (2020-02-30)
        raise ConfigError(f"cannot parse scenario {path}: {exc}") from None
    _check_keys(raw, {"name", "currency", "issue_date", "issuer", "prices", "rounding", "script"}, f"scenario {path}")

    issuer_cfg = _require(raw, "issuer", "scenario")
    _check_keys(
        issuer_cfg,
        {"id", "material", "weight_unit", "purity", "denominations", "theta", "theta_derivation", "delivery_rules"},
        "issuer",
    )
    rules_cfg = _require(issuer_cfg, "delivery_rules", "issuer")
    _check_keys(
        rules_cfg,
        {"delivery_charge_ratio", "withdrawal_charge_ratio", "min_delivery_weight", "delivery_location", "validity_days"},
        "delivery_rules",
    )
    issuer = IssuerTerms(
        issuer_id=str(_require(issuer_cfg, "id", "issuer")),
        material=str(_require(issuer_cfg, "material", "issuer")),
        weight_unit=str(issuer_cfg.get("weight_unit", "kg")),
        purity=_number(issuer_cfg, "purity", "issuer", default=1.0),
        denominations=_number(issuer_cfg, "denominations", "issuer", lambda values: tuple(map(_float, values))),
        theta=_theta_from_config(issuer_cfg),
        rules=DeliveryRules(
            delivery_charge_ratio=_number(rules_cfg, "delivery_charge_ratio", "delivery_rules"),
            withdrawal_charge_ratio=_number(rules_cfg, "withdrawal_charge_ratio", "delivery_rules"),
            min_delivery_weight=_number(rules_cfg, "min_delivery_weight", "delivery_rules"),
            delivery_location=str(rules_cfg.get("delivery_location", "")),
            validity_days=(
                None if rules_cfg.get("validity_days") is None
                else _number(rules_cfg, "validity_days", "delivery_rules", _integer)
            ),
        ),
    )

    prices = None
    per_units = 1.0
    if "prices" in raw:
        prices_cfg = raw["prices"]
        _check_keys(prices_cfg, {"path", "per_units"}, "prices")
        series_path = path.parent / str(_require(prices_cfg, "path", "prices"))
        if not series_path.exists():
            raise ConfigError(f"price series file not found: {series_path}")
        prices = load_series(
            read_text(series_path, "price series"),
            material=issuer.material,
            currency=str(raw.get("currency", "")),
        )
        per_units = _number(prices_cfg, "per_units", "prices", default=1.0)
        if per_units <= 0:
            raise ConfigError("prices.per_units must be > 0")

    rounding_cfg = raw.get("rounding", {})
    _check_keys(rounding_cfg, {"weight_places", "money_places"}, "rounding")
    rounding = RoundingProfile(
        weight_places=_number(rounding_cfg, "weight_places", "rounding", _integer, 4),
        money_places=_number(rounding_cfg, "money_places", "rounding", _integer, 4),
    )

    steps = []
    for index, step_cfg in enumerate(raw.get("script", []) or [], start=1):
        if not isinstance(step_cfg, dict):
            raise ConfigError(f"script step {index} must be a mapping")
        where = f"script step {index}"
        step = ScriptStep(
            dt=_number(step_cfg, "dt", where, _integer),
            action=str(_require(step_cfg, "action", where)),
            cert=str(_require(step_cfg, "cert", where)),
            date=_as_date(step_cfg["date"], where) if "date" in step_cfg else None,
            args={k: v for k, v in step_cfg.items() if k not in _STEP_FIELDS},
        )
        where = f"{where} ({step.action})"
        _check_keys(step.args, _ACTIONS[step.action], where)
        for key in _NUMERIC_ARGS & step.args.keys():
            step.args[key] = _number(step.args, key, where)
        for key in _OWNER_ARGS & step.args.keys():
            if not isinstance(step.args[key], str):
                raise ConfigError(f"{where}: {key} must be a string, got {step.args[key]!r}")
        steps.append(step)

    return ScenarioConfig(
        name=str(raw.get("name", path.stem)),
        currency=str(raw.get("currency", "")),
        issue_date=_as_date(_require(raw, "issue_date", "scenario"), "issue_date"),
        issuer=issuer,
        script=tuple(steps),
        prices=prices,
        price_per_units=per_units,
        rounding=rounding,
    )


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (``lme_copper``, ``shfe_steel``)."""
    root = resources.files("dcm") / "data"
    candidate = root / f"{name}.yaml"
    if not candidate.is_file():
        available = sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))
        raise ConfigError(f"no bundled scenario {name!r}; available: {', '.join(available)}")
    return Path(str(candidate))


class ScenarioReport(Value, namedtuple("ScenarioReport", "scenario currency steps")):
    """Per-step records with exact and display-rounded fields.

    ``to_json_lines`` is the machine-readable form: one sorted-key JSON object
    per step, no wall-clock content, so identical runs are byte-identical.
    """

    __slots__ = ()

    def to_json_lines(self) -> str:
        # every number in a record was sealed into a ledger payload or checked finite
        return "".join(canonical_payload(step) + "\n" for step in self.steps)

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} ({self.currency or 'no currency'})"]
        for step in self.steps:
            fields = ", ".join(
                f"{key}={value}"
                for key, value in sorted(step.items())
                if key.endswith("_display") or key in ("action", "cert_id", "dt", "owner", "to_owner")
            )
            lines.append(f"  step {step['step']}: {fields}")
        lines.append(f"  ({len(self.steps)} steps)")
        return "\n".join(lines) + "\n"


def run_scenario(config: ScenarioConfig) -> tuple[ScenarioReport, Registry]:
    """Execute the script against a fresh registry.

    Returns the report and the registry (whose ledger holds the full event
    stream).  The first failing step aborts with ScenarioStepError carrying
    the 1-based step index.
    """
    registry = Registry(weight_places=config.rounding.weight_places)
    registry.register_issuer(config.issuer.issuer_id, config.issuer.denominations)
    aliases: dict[str, str] = {}
    records: list[dict] = []
    for index, step in enumerate(config.script, start=1):
        try:
            records.append(_run_step(config, registry, aliases, index, step))
        except DCMError as exc:
            if isinstance(exc, ScenarioStepError):
                raise
            raise ScenarioStepError(index, step.action, exc) from exc
    return ScenarioReport(scenario=config.name, currency=config.currency, steps=records), registry


def _market_quote(config: ScenarioConfig, when: date, premium: float) -> MarketQuote:
    unit_price = quote_at(config.prices, when) / config.price_per_units
    return MarketQuote(quotation=unit_price, premium=premium)


def _cert_id(aliases: dict[str, str], alias: str) -> str:
    try:
        return aliases[alias]
    except KeyError:
        raise DomainError(f"script alias {alias!r} does not name an issued certificate") from None


def _run_step(
    config: ScenarioConfig,
    registry: Registry,
    aliases: dict[str, str],
    index: int,
    step: ScriptStep,
) -> dict:
    profile = config.rounding
    when = step.date if step.date is not None else config.issue_date + timedelta(days=step.dt)
    record: dict[str, Any] = {
        "step": index,
        "dt": step.dt,
        "date": when.isoformat(),
        "action": step.action,
        "cert": step.cert,
    }

    if step.action == "issue":
        cert = registry.issue(
            issuer=config.issuer.issuer_id,
            material=config.issuer.material,
            face_weight=step.args.get("face_weight", 0.0),
            purity=config.issuer.purity,
            issue_date=config.issue_date,
            theta=config.issuer.theta,
            rules=config.issuer.rules,
            owner=step.args.get("owner", "bearer"),
            weight_unit=config.issuer.weight_unit,
        )
        if step.cert in aliases:
            raise DomainError(f"script alias {step.cert!r} already used")
        aliases[step.cert] = cert.cert_id
        record.update(
            cert_id=cert.cert_id,
            face_weight=cert.face_weight,
            owner=cert.owner,
            theta=cert.theta.theta_daily,
            theta_display=fmt(cert.theta.theta_daily, 6),
        )
        return record

    cert_id = _cert_id(aliases, step.cert)
    record["cert_id"] = cert_id

    if step.action == "quote":
        quote = _market_quote(config, when, step.args.get("premium", 0.0))
        result = registry.quote_transaction_price(cert_id, quote, step.dt, timestamp=when)
        record.update(
            quotation=result.quotation,
            premium=result.premium,
            residual_weight=result.residual_weight,
            residual_weight_display=profile.weight(result.residual_weight),
            settlement_weight=result.docket_weight,
            price=result.price,
            price_display=profile.money(result.price),
        )
    elif step.action == "transfer":
        new_owner = _require(step.args, "new_owner", f"script step {index}")
        cert = registry.transfer(cert_id, new_owner, step.dt, timestamp=when)
        record.update(to_owner=cert.owner)
    elif step.action == "deliver":
        result = registry.physical_delivery(cert_id, step.dt, timestamp=when)
        residual_display = profile.weight(result.residual_weight)
        delivered_display = profile.weight(result.delivered_weight)
        record.update(
            residual_weight=result.residual_weight,
            residual_weight_display=residual_display,
            delivered_weight=result.delivered_weight,
            delivered_weight_display=delivered_display,
            charged_weight=result.charged_weight,
            # printed charge = printed residual - printed delivery, so the
            # displayed line balances to the last retained digit
            charged_weight_display=str(Decimal(residual_display) - Decimal(delivered_display)),
        )
    elif step.action == "buyback":
        quote = _market_quote(config, when, 0.0)
        result = registry.buyback(cert_id, step.dt, quote, timestamp=when)
        residual_display = profile.weight(result.residual_weight)
        weight_display = profile.weight(result.buyback_weight)
        record.update(
            quotation=result.quotation,
            residual_weight=result.residual_weight,
            residual_weight_display=residual_display,
            buyback_weight=result.buyback_weight,
            buyback_weight_display=weight_display,
            charged_weight=result.charged_weight,
            charged_weight_display=str(Decimal(residual_display) - Decimal(weight_display)),
            cash=result.cash,
            cash_display=profile.money(result.cash),
        )
    elif step.action == "expire":
        result = registry.expire(cert_id, step.dt, timestamp=when)
        record.update(
            issuer_accrued_weight=result.issuer_accrued_weight,
            issuer_accrued_weight_display=profile.weight(result.issuer_accrued_weight),
        )
    return record
