"""Scripted end-to-end runs against a fresh registry.

A scenario file (YAML) declares the issuer's terms, optional price data, a
rounding profile, and an ordered script of (dt, action) steps.  The runner
executes the script, appending to a fresh ledger one event per step, and then
reports one record per step: the projection of the event that step sealed
(``report_record``), with each figure at full precision and in display form.
The script gives only the step index, the alias ``cert`` and ``action``, and
for an ISSUE its ``dt`` and ``date``; every other field is the event's.

Day counts are pinned explicitly in the script (``dt`` is days since
issuance); a step may also pin the calendar ``date`` used for the market
lookup and the ledger timestamp, because exchange-published day counts and
calendar dates do not always agree.  When ``date`` is omitted it derives as
issue_date + dt.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from datetime import date, timedelta
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Any, Callable

import yaml
from yaml import AliasEvent, DocumentStartEvent, MappingEndEvent, MappingStartEvent, ScalarEvent, ScalarNode
from yaml import SequenceEndEvent, SequenceStartEvent, StreamEndEvent

from .decay import AttenuationSpec, CifQuote, StorageTariff, ThetaMode, attenuation_coefficient
from .errors import ConfigError, DCMError, DerivationError, DomainError, NoQuoteError, ScenarioStepError
from .ledger import EventKind, LedgerEvent, canonical_payload
from .market import PriceSeries, quote_at, read_series, read_text
from .registry import DeliveryRules, MarketQuote, Registry
from .rounding import RoundingProfile, fmt
from .values import Value, iso_date, require_integer, require_number, require_text, shown

# each action's step arguments, and whether a step must give each; the runner gives owner and premium defaults
_ACTIONS = {
    "issue": {"face_weight": True, "owner": False},
    "quote": {"premium": False},
    "transfer": {"new_owner": True},
    "deliver": {},
    "buyback": {},
    "expire": {},
}
_OWNER_ARGS = frozenset({"owner", "new_owner"})
_ISSUE, _TRANSFER, _QUOTE, _DELIVER, _BUYBACK, _EXPIRE = EventKind  # the members in definition order
_STEP_FIELDS = frozenset({"dt", "action", "cert", "date"})
# libyaml's parser where PyYAML was built with it; both loaders build values
# with the same SafeConstructor and resolver
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# a scenario nests 3 deep; a document nested past this is refused, so that no
# recursive walk of one of its values (a repr in an error message) can
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
        return tuple.__new__(cls, (dt, action, cert, date, {} if args is None else args))


class IssuerTerms(Value, namedtuple(
    "IssuerTerms", "issuer_id material weight_unit purity denominations theta rules"
)):
    """The terms the scenario's issuer issues every certificate under."""

    __slots__ = ()


class ScenarioConfig(Value, namedtuple(
    "ScenarioConfig", "name currency issue_date issuer script prices price_per_units rounding"
)):
    """``price_per_units`` is the certificate weight units per quoted price unit.

    ``script`` is a list or tuple of steps, each a ``ScriptStep`` or five
    values in its field order, whose ``args`` is a mapping.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        currency: str,
        issue_date: date | str,
        issuer: IssuerTerms,
        script: tuple[ScriptStep, ...],
        prices: PriceSeries | None = None,
        price_per_units: float = 1.0,
        rounding: RoundingProfile = RoundingProfile(),
    ):
        """Check the fields, then each step in order, rebuilt with float figures: a ConfigError names any refusal."""
        name = _built("scenario", require_text, "name", name)
        currency = _built("scenario", require_text, "currency", currency)
        issue_date = _as_date(issue_date, "issue_date")
        price_per_units = _built("prices", require_number, "per_units", price_per_units)
        if price_per_units <= 0:
            raise ConfigError("prices.per_units must be > 0")
        if not isinstance(script, (list, tuple)):
            raise ConfigError(f"script must be a list of steps, got {shown(script)}")
        last_dt = date.max.toordinal() - issue_date.toordinal()
        previous = 0
        issued: dict[str, int] = {}  # each alias, and the step that issued it
        steps = []
        for index, step in enumerate(script, start=1):
            where = f"script step {index}"
            try:
                dt, action, cert, when, args = step
            except (TypeError, ValueError):  # not iterable, or not five fields
                raise ConfigError(f"{where} must be a ScriptStep of five fields, got {shown(step)}") from None
            if not isinstance(args, Mapping):
                raise ConfigError(f"{where}: args must be a mapping, got {shown(args)}")
            try:
                dt = require_integer("dt", dt)
                require_text("action", action)
                require_text("cert", cert)
            except DomainError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if when is not None:
                when = _as_date(when, where)
            reads = _ACTIONS.get(action)
            if reads is None:
                raise ConfigError(f"{where}: unknown action {action!r}")
            args = dict(args)
            try:
                for key in reads:  # the action's arguments, each read by its kind; any other key is refused below
                    if key in args:
                        args[key] = (require_text if key in _OWNER_ARGS else require_number)(key, args[key])
            except DomainError as exc:
                raise ConfigError(f"{where} ({action}): {exc}") from None
            for key in args:
                if key not in reads:
                    raise ConfigError(f"{where} ({action}): unknown key {shown(key)}")
            for key, required in reads.items():
                if required and key not in args:
                    raise ConfigError(f"{where} ({action}): missing key {key!r}")
            if not previous <= dt <= last_dt:
                raise ConfigError(f"{where} ({action}): dt {dt} " + (
                    f"is below {previous}: dt starts at 0 and never decreases" if dt < previous
                    else f"after {issue_date} falls outside the calendar, {date.min} to {date.max}"))
            previous = dt
            if action == "issue":
                if issued.setdefault(cert, index) != index:
                    raise ConfigError(f"{where} ({action}): alias {cert!r} was issued by step {issued[cert]}")
            elif cert not in issued:
                raise ConfigError(f"{where} ({action}): alias {cert!r} names no certificate an earlier step issued")
            elif prices is None and action in ("quote", "buyback"):
                raise ConfigError(f"{where} ({action}): no price series is configured")
            steps.append(tuple.__new__(ScriptStep, (dt, action, cert, when, args)))
        return tuple.__new__(cls, (name, currency, issue_date, issuer, tuple(steps), prices, price_per_units, rounding))


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
            raise ConfigError(f"{context}: unknown key {shown(key)}")


_REQUIRED = object()


def _read(mapping: dict, key: str, context: str, kind: Callable = require_number, default: Any = _REQUIRED) -> Any:
    """``kind(key, mapping[key])``; a missing key, or a value ``kind`` refuses, is a ConfigError naming ``context``."""
    value = _require(mapping, key, context) if default is _REQUIRED else mapping.get(key, default)
    return _built(context, kind, key, value)


def _built(section: str, kind: Callable, *args: Any, **fields: Any) -> Any:
    """``kind(*args, **fields)``; a DomainError or DerivationError it raises is a ConfigError naming ``section``."""
    try:
        return kind(*args, **fields)
    except (DomainError, DerivationError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _figures(key: str, values: Any) -> tuple[float, ...]:
    """Each of ``values``, a YAML list, read by ``require_number``."""
    if not isinstance(values, list):
        raise DomainError(f"{key} must be a list of numbers, got {shown(values)}")
    return tuple(require_number(key, value) for value in values)


def _as_date(value: Any, context: str) -> date:
    """A YAML date (not a timestamp with a time), or a string in YYYY-MM-DD form."""
    try:
        return iso_date(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}: bad date {shown(value)}") from None


def _theta_from_config(issuer_cfg: dict) -> AttenuationSpec:
    explicit = issuer_cfg.get("theta")
    derivation = issuer_cfg.get("theta_derivation")
    if (explicit is None) == (derivation is None):
        raise ConfigError("issuer must set exactly one of 'theta' or 'theta_derivation'")
    if explicit is not None:
        return _built("issuer", AttenuationSpec, theta_daily=_read(issuer_cfg, "theta", "issuer"))
    _check_keys(
        derivation,
        {"mode", "daily_warehouse_charge", "outbound_transfer_charge", "bank_rate", "cif_price"},
        "theta_derivation",
    )
    mode = _require(derivation, "mode", "theta_derivation")
    try:
        mode = ThetaMode(mode)
    except ValueError:
        raise ConfigError(f"theta_derivation: unknown mode {shown(mode)}") from None
    tariff = _built(
        "theta_derivation", StorageTariff,
        daily_warehouse_charge=_require(derivation, "daily_warehouse_charge", "theta_derivation"),
        outbound_transfer_charge=derivation.get("outbound_transfer_charge", 0.0),
        bank_rate=derivation.get("bank_rate", 0.0),
    )
    cif = _built("theta_derivation", CifQuote, price_per_unit=_read(derivation, "cif_price", "theta_derivation"))
    return _built("theta_derivation", attenuation_coefficient, tariff, cif, mode)


def _refused(what: str, event: Any) -> yaml.YAMLError:
    mark = event.start_mark
    return yaml.YAMLError(f"{what} at line {mark.line + 1}, column {mark.column + 1}")


def _load_yaml(text: str) -> Any:
    """The one document of ``text``, built from the parser's events without a node graph.

    For a document it accepts this is ``yaml.load(text, Loader=_LOADER)``:
    the loader's own resolver and safe constructors build each scalar,
    memoized by text and implicit flags (SafeLoader has no path resolvers and
    its scalars are immutable).  A YAMLError naming the line and column
    refuses an anchor, an alias, an explicit tag other than ``!``, a merge key
    ``<<``, a value key ``=``, a collection as a mapping key, a second
    document, and nesting deeper than ``_MAX_DEPTH``.  A scalar its
    constructor refuses raises the constructor's ValueError once the rest of
    the stream parses, as ``yaml.load`` does.
    """
    loader = _LOADER(text)
    try:
        get_event, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
        built: dict = {}  # (value, implicit) -> the scalar built for it
        root = top = None  # the document, and its innermost open collection
        key: Any = _KEY  # in an open mapping, the key awaiting its value
        outer: list = []  # (collection, key) of each enclosing open collection
        refusal = None  # the ValueError of the first scalar the constructor refused
        documents = 0
        while True:
            event = get_event()
            kind = event.__class__
            if kind is ScalarEvent or kind is MappingStartEvent or kind is SequenceStartEvent:
                if event.anchor is not None:
                    raise _refused(f"unsupported anchor &{event.anchor}", event)
                if event.tag not in (None, "!"):
                    raise _refused(f"unsupported tag {event.tag}", event)
                if kind is ScalarEvent:
                    memo = (event.value, event.implicit)
                    value = built.get(memo, _KEY)
                    if value is _KEY:
                        tag = resolve(ScalarNode, event.value, event.implicit)
                        if tag not in _SCALAR_TAGS:  # merge or value: the resolver gives no other implicit tag
                            raise _refused(f"unsupported {tag.rpartition(':')[2]} key {event.value}", event)
                        try:
                            value = built[memo] = constructors[tag](loader, ScalarNode(tag, event.value))
                        except ValueError as exc:
                            refusal = refusal or exc
                            value = None
                else:
                    if len(outer) == _MAX_DEPTH:
                        raise _refused(f"nested deeper than {_MAX_DEPTH} levels", event)
                    if key is _KEY and top.__class__ is dict:
                        raise _refused("unsupported collection as a mapping key", event)
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
                raise _refused(f"unsupported alias *{event.anchor}", event)
            elif kind is DocumentStartEvent:
                documents += 1
                if documents > 1:
                    raise _refused("unsupported second document", event)
            elif kind is StreamEndEvent:
                if refusal is not None:
                    raise refusal
                return root
    finally:
        loader.dispose()


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a UTF-8 scenario file, whose data paths resolve relative to it; the types check the values it reads."""
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
    for key in ("delivery_charge_ratio", "withdrawal_charge_ratio", "min_delivery_weight"):
        _require(rules_cfg, key, "delivery_rules")
    issuer = IssuerTerms(
        issuer_id=_read(issuer_cfg, "id", "issuer", require_text),
        material=_read(issuer_cfg, "material", "issuer", require_text),
        weight_unit=_read(issuer_cfg, "weight_unit", "issuer", require_text, "kg"),
        purity=_read(issuer_cfg, "purity", "issuer", default=1.0),
        denominations=_read(issuer_cfg, "denominations", "issuer", _figures),
        theta=_theta_from_config(issuer_cfg),
        rules=_built("delivery_rules", DeliveryRules, **rules_cfg),
    )

    currency = raw.get("currency", "")
    prices = None
    per_units = 1.0
    if "prices" in raw:
        prices_cfg = raw["prices"]
        _check_keys(prices_cfg, {"path", "per_units"}, "prices")
        _read(raw, "currency", "scenario", require_text, "")  # as ScenarioConfig words it: read_series refuses it too
        prices = read_series(
            path.parent / _read(prices_cfg, "path", "prices", require_text), material=issuer.material, currency=currency
        )
        per_units = prices_cfg.get("per_units", 1.0)

    rounding_cfg = raw.get("rounding", {})
    _check_keys(rounding_cfg, {"weight_places", "money_places"}, "rounding")

    script = [] if raw.get("script") is None else raw["script"]
    if not isinstance(script, list):
        raise ConfigError(f"script must be a list of steps, got {shown(script)}")
    steps = []
    for index, step_cfg in enumerate(script, start=1):
        if not isinstance(step_cfg, dict):
            raise ConfigError(f"script step {index} must be a mapping")
        where = f"script step {index}"
        steps.append(ScriptStep(
            _require(step_cfg, "dt", where), _require(step_cfg, "action", where), _require(step_cfg, "cert", where),
            step_cfg.get("date"), {key: value for key, value in step_cfg.items() if key not in _STEP_FIELDS},
        ))

    return ScenarioConfig(
        name=raw.get("name", path.stem),
        currency=currency,
        issue_date=_require(raw, "issue_date", "scenario"),
        issuer=issuer,
        script=tuple(steps),
        prices=prices,
        price_per_units=per_units,
        rounding=_built("rounding", RoundingProfile, **rounding_cfg),
    )


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (``lme_copper``, ``shfe_steel``)."""
    root = resources.files("dcm") / "data"
    available = sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))
    if name not in available:
        raise ConfigError(f"no bundled scenario {name!r}; available: {', '.join(available)}")
    return Path(str(root / f"{name}.yaml"))


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
    stream).  Denominations the registry refuses are a ConfigError before the
    first step; a step the registry refuses, or whose record cannot be
    displayed, aborts with ScenarioStepError carrying its 1-based index.
    """
    registry = Registry(weight_places=config.rounding.weight_places)
    _built("issuer", registry.register_issuer, config.issuer.issuer_id, config.issuer.denominations)
    aliases: dict[str, str] = {}
    for index, step in enumerate(config.script, start=1):
        try:
            _run_step(config, registry, aliases, step)
        except DCMError as exc:
            _records(config, registry.ledger.events[: index - 1])  # a record an earlier step cannot display fails first
            raise ScenarioStepError(index, step.action, exc) from exc
    return ScenarioReport(config.name, config.currency, _records(config, registry.ledger.events)), registry


def _records(config: ScenarioConfig, events: tuple[LedgerEvent, ...]) -> list[dict]:
    """The report records of the script's steps, each of which sealed the event at its position in ``events``."""
    records = []
    for index, (step, event) in enumerate(zip(config.script, events), start=1):
        try:
            records.append(report_record(event, config.rounding, index, step))
        except DCMError as exc:  # a figure ``profile`` cannot round to its places
            raise ScenarioStepError(index, step.action, exc) from exc
    return records


def report_record(event: LedgerEvent, profile: RoundingProfile, index: int, step: ScriptStep) -> dict:
    """The report record of script step ``index``, ``step``, which sealed ``event``.

    Every figure is the event's, displayed through ``profile``.  The script
    gives only the step index, the alias ``cert`` and ``action``, and for an
    ISSUE, which is recorded at the issue date, the step's ``dt`` and ``date``.
    """
    payload = event.payload
    kind = event.kind
    if kind is _ISSUE:
        when = step.date if step.date is not None else event.timestamp + timedelta(days=step.dt)
        theta = payload["theta"]["theta_daily"]
        return {
            "step": index, "action": step.action, "cert": step.cert, "cert_id": event.cert_id,
            "dt": step.dt, "date": when.isoformat(), "face_weight": payload["face_weight"], "owner": payload["owner"],
            "theta": theta, "theta_display": _theta_display(theta),
        }
    dt, day = payload["t"], event.timestamp.isoformat()
    if kind is _TRANSFER:
        return {
            "step": index, "action": step.action, "cert": step.cert, "cert_id": event.cert_id, "dt": dt, "date": day,
            "to_owner": payload["to_owner"],
        }
    if kind is _QUOTE:
        residual, price = payload["residual_weight"], payload["price"]
        return {
            "step": index, "action": step.action, "cert": step.cert, "cert_id": event.cert_id, "dt": dt, "date": day,
            "quotation": payload["quotation"], "premium": payload["premium"], "residual_weight": residual,
            "residual_weight_display": profile.weight(residual), "settlement_weight": payload["docket_weight"],
            "price": price, "price_display": profile.money(price),
        }
    if kind is _EXPIRE:
        accrued = payload["issuer_accrued_weight"]
        return {
            "step": index, "action": step.action, "cert": step.cert, "cert_id": event.cert_id, "dt": dt, "date": day,
            "issuer_accrued_weight": accrued, "issuer_accrued_weight_display": profile.weight(accrued),
        }
    # DELIVER or BUYBACK: the residual splits into the holder's weight and the custodian's charge; the printed
    # charge is the printed residual less the printed held weight, so the displayed line balances to the last digit
    held = "delivered_weight" if kind is _DELIVER else "buyback_weight"
    residual, shown = profile.weight(payload["residual_weight"]), profile.weight(payload[held])
    record = {
        "step": index, "action": step.action, "cert": step.cert, "cert_id": event.cert_id, "dt": dt, "date": day,
        "residual_weight": payload["residual_weight"], "residual_weight_display": residual,
        held: payload[held], f"{held}_display": shown, "charged_weight": payload["charged_weight"],
        "charged_weight_display": str(Decimal(residual) - Decimal(shown)),
    }
    if kind is _BUYBACK:
        cash = payload["cash"]
        record.update(quotation=payload["quotation"], cash=cash, cash_display=profile.money(cash))
    return record


# fmt(theta, 6) of the first 64 float thetas in (0, 1) shown, where equal floats print alike: every ISSUE of a
# scenario shows one theta
_THETA_SHOWN: dict[float, str] = {}


def _theta_display(theta: float) -> str:
    shown = _THETA_SHOWN.get(theta) if theta.__class__ is float else None
    if shown is None:
        shown = fmt(theta, 6)
        if theta.__class__ is float and 0.0 < theta < 1.0 and len(_THETA_SHOWN) < 64:
            _THETA_SHOWN[theta] = shown
    return shown


def _market_quote(config: ScenarioConfig, registry: Registry, cert_id: str, step: ScriptStep, when: date) -> MarketQuote:
    try:
        unit_price = quote_at(config.prices, when) / config.price_per_units
    except NoQuoteError:  # a refusal of the event itself comes before the price's
        registry._legal(_QUOTE if step.action == "quote" else _BUYBACK, cert_id, step.dt)
        raise
    return MarketQuote(quotation=unit_price, premium=step.args.get("premium", 0.0))


def _run_step(config: ScenarioConfig, registry: Registry, aliases: dict[str, str], step: ScriptStep) -> None:
    """Run ``step``, which ``config`` checked, and which records exactly one event in ``registry``."""
    if step.action == "issue":
        aliases[step.cert] = registry.issue(
            issuer=config.issuer.issuer_id,
            material=config.issuer.material,
            face_weight=step.args["face_weight"],
            purity=config.issuer.purity,
            issue_date=config.issue_date,
            theta=config.issuer.theta,
            rules=config.issuer.rules,
            owner=step.args.get("owner", "bearer"),
            weight_unit=config.issuer.weight_unit,
        ).cert_id
        return
    cert_id = aliases[step.cert]
    when = step.date if step.date is not None else config.issue_date + timedelta(days=step.dt)
    if step.action == "quote":
        quote = _market_quote(config, registry, cert_id, step, when)
        registry.quote_transaction_price(cert_id, quote, step.dt, timestamp=when)
    elif step.action == "transfer":
        registry.transfer(cert_id, step.args["new_owner"], step.dt, timestamp=when)
    elif step.action == "deliver":
        registry.physical_delivery(cert_id, step.dt, timestamp=when)
    elif step.action == "buyback":
        registry.buyback(cert_id, step.dt, _market_quote(config, registry, cert_id, step, when), timestamp=when)
    elif step.action == "expire":
        registry.expire(cert_id, step.dt, timestamp=when)
