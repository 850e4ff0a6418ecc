"""Command-line front door for the certificate engine.

Exit codes: 0 success, 2 validation or usage error, 3 settlement/state error,
4 ledger-integrity error, 130 interrupted.

``main`` runs a command with the cyclic garbage collector off: a command
builds its registry without reference cycles, so the collector's passes over
it would free nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from contextlib import contextmanager
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .checkpoint import LedgerFile
from .decay import AttenuationSpec, CifQuote, StorageTariff, ThetaMode, attenuation_coefficient, wealth_projection
from .errors import ConfigError, DCMError, DomainError
from .ledger import EventKind, Ledger
from .market import quote_at, read_series
from .registry import DeliveryRules, MarketQuote, Registry, export_certificate
from .rounding import RoundingProfile, fmt
from .values import iso_date, require_number

_MODE_CHOICES = [m.value for m in ThetaMode if m is not ThetaMode.EXPLICIT]


class AppContext:
    def __init__(self, ledger_path: Path, prices_path: Path | None, per_units: float, profile: RoundingProfile):
        self.ledger_path = ledger_path
        self.prices_path = prices_path
        self.per_units = per_units
        self.profile = profile

    @cached_property
    def ledger_file(self) -> LedgerFile:
        """Built on first use, so that a command that never reads the ledger accepts any ``--ledger``."""
        return LedgerFile(self.ledger_path)

    def _warn_if_ignored(self) -> None:
        if self.ledger_file.ignored is not None:
            print(f"warning: ignoring checkpoint {self.ledger_file.sidecar}: {self.ledger_file.ignored}", file=sys.stderr)

    def load_registry(self, touch: tuple[str, ...] = ()) -> Registry:
        """The ledger file's registry, resumed from its checkpoint sidecar when that verifies.

        ``touch`` names the certificates the command reads; a resumed load
        builds them from the sidecar before the command runs.
        """
        try:
            return self.ledger_file.load(touch)
        finally:
            self._warn_if_ignored()

    @contextmanager
    def updating(self, touch: tuple[str, ...] = ()) -> Iterator[Registry]:
        """The ledger file's registry, under its exclusive lock, for a block that settles or issues on it.

        The registry settles on the profile's weight places.  When the block
        raises nothing, its events are appended and the checkpoint sidecar is
        rewritten; a sidecar that cannot be written only warns.
        """
        with self.ledger_file.locked():
            registry = self.load_registry(touch)
            registry.weight_places = self.profile.weight_places
            yield registry
            self.ledger_file.append(registry.ledger.events)  # the loaded registry holds only the block's events
            try:
                self.ledger_file.write_checkpoint(registry)
            except OSError as exc:
                print(f"warning: cannot write checkpoint {self.ledger_file.sidecar}: {exc}", file=sys.stderr)

    def append_new_events(self, ledger: Ledger, known: int) -> None:
        """Append the events after seq ``known`` to the ledger file."""
        self.ledger_file.append(event for event in ledger.events if event.seq > known)

    def market_quote(self, registry: Registry, kind: EventKind, cert_id: str, dt: int, premium: float) -> MarketQuote:
        """The day's quote for settling ``cert_id`` by ``kind`` on day ``dt``, which the registry decides first."""
        try:
            if self.prices_path is None:
                raise ConfigError("this command needs a price series; pass --prices")
            quotation = quote_at(read_series(self.prices_path), registry.certificate(cert_id).date_at(dt))
        except DCMError:  # a refusal of the event itself comes before the price's
            registry._legal(kind, cert_id, dt)
            raise
        return MarketQuote(quotation=quotation / self.per_units, premium=premium)


# -- commands: each takes the context and the parsed arguments ---------------


def theta(_app: AppContext, args: argparse.Namespace) -> None:
    """Derive a daily retention factor from storage tariffs."""
    tariff = StorageTariff(
        daily_warehouse_charge=args.warehouse_charge,
        outbound_transfer_charge=args.transfer_charge,
        bank_rate=args.bank_rate,
    )
    spec = attenuation_coefficient(tariff, CifQuote(price_per_unit=args.cif), ThetaMode(args.mode))
    print(f"{fmt(spec.theta_daily, 6)} ({spec.mode.value})")


def issue(app: AppContext, args: argparse.Namespace) -> None:
    """Issue a certificate and print its paper form."""
    try:
        denoms = [float(d) for d in args.denominations.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"bad denomination list {args.denominations!r}") from None
    with app.updating() as registry:
        registry.register_issuer(args.issuer, denoms)
        cert = registry.issue(
            issuer=args.issuer,
            material=args.material,
            face_weight=args.face_weight,
            purity=args.purity,
            issue_date=args.issue_date,
            theta=AttenuationSpec(theta_daily=args.theta),
            rules=DeliveryRules(
                delivery_charge_ratio=args.delivery_charge,
                withdrawal_charge_ratio=args.withdrawal_charge,
                min_delivery_weight=args.min_delivery,
                delivery_location=args.location,
                validity_days=args.validity_days,
            ),
            owner=args.owner,
            weight_unit=args.weight_unit,
        )
    sys.stdout.write(export_certificate(cert))


def quote(app: AppContext, args: argparse.Namespace) -> None:
    """Price a certificate against the market series."""
    with app.updating((args.cert,)) as registry:
        market = app.market_quote(registry, EventKind.QUOTE, args.cert, args.dt, args.premium)
        result = registry.quote_transaction_price(args.cert, market, args.dt)
    print(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    print(f"price: {app.profile.money(result.price)}")


def deliver(app: AppContext, args: argparse.Namespace) -> None:
    """Settle a certificate by physical delivery."""
    with app.updating((args.cert,)) as registry:
        result = registry.physical_delivery(args.cert, args.dt)
    print(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    print(f"delivered_weight: {app.profile.weight(result.delivered_weight)}")


def buyback(app: AppContext, args: argparse.Namespace) -> None:
    """Settle a certificate for cash at the day's quotation."""
    with app.updating((args.cert,)) as registry:
        market = app.market_quote(registry, EventKind.BUYBACK, args.cert, args.dt, 0.0)
        result = registry.buyback(args.cert, args.dt, market)
    print(f"buyback_weight: {app.profile.weight(result.buyback_weight)}")
    print(f"cash: {app.profile.money(result.cash)}")


def run(_app: AppContext, args: argparse.Namespace) -> None:
    """Run a scenario file or a bundled scenario by name."""
    from .scenario import bundled_scenario_path, load_scenario, run_scenario

    # os.path.exists, unlike Path.exists, is False for a name too long for the file system
    path = Path(args.scenario) if os.path.exists(args.scenario) else bundled_scenario_path(args.scenario)
    report, _registry = run_scenario(load_scenario(path))
    json_lines = report.to_json_lines() if args.format == "json" or args.report is not None else ""
    if args.report is not None:  # before anything is printed, so a report that cannot be written prints nothing
        try:
            args.report.write_text(json_lines, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write report {args.report}: {exc}") from None
    sys.stdout.write(json_lines if args.format == "json" else report.to_text())


def project(app: AppContext, args: argparse.Namespace) -> None:
    """Project the holder/custodian split of an anchor stock."""
    result = wealth_projection(args.weight, args.theta, args.days)
    print(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    print(f"issuer_accrued_weight: {app.profile.weight(result.issuer_accrued_weight)}")


def replay_verify(app: AppContext, _args: argparse.Namespace) -> None:
    """Verify the ledger's hash chain and replayability end to end."""
    with app.ledger_file.locked(shared=True):
        try:
            registry = app.ledger_file.verify()
        finally:
            app._warn_if_ignored()
    print(
        f"ok: {len(registry.ledger)} events, {len(registry.certificates)} certificates, "
        f"head {registry.ledger.head_hash}"
    )


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser that matches only whole option names and reads ``-1e-3`` as a value.

    Python before 3.12.7 takes a negative number in exponent form for an
    option, so ``--premium -1e-3`` would be a usage error; this sets the
    pattern that later Pythons use.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def _iso_date(value: str) -> date:
    try:
        return iso_date(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an ISO date") from None


def _existing_path(value: str) -> Path:
    if not os.path.exists(value):  # False, not OSError, for a name too long for the file system
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return Path(value)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcm", description="Decayed commodity money: derive theta, manage certificates, run scenarios.")
    parser.add_argument("--ledger", dest="ledger_path", type=Path, default=Path("dcm-ledger.log"), metavar="PATH",
                        help="event ledger file (default: %(default)s)")
    parser.add_argument("--prices", dest="prices_path", type=_existing_path, metavar="PATH",
                        help="price series CSV (date,price) for quote/buyback")
    parser.add_argument("--price-per-units", metavar="N", type=float, default=1.0,
                        help="certificate weight units per quoted price unit (default: %(default)s)")
    parser.add_argument("--weight-places", metavar="N", type=int, default=4,
                        help="weight display and settlement-docket precision (default: %(default)s)")
    parser.add_argument("--money-places", metavar="N", type=int, default=4, help="money display precision (default: %(default)s)")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(handler, name: str | None = None) -> argparse.ArgumentParser:
        sub = commands.add_parser(name or handler.__name__, help=handler.__doc__, description=handler.__doc__)
        sub.set_defaults(handler=handler)
        return sub

    sub = command(theta)
    sub.add_argument("--warehouse-charge", type=float, required=True, help="daily warehouse charge per unit")
    sub.add_argument("--transfer-charge", type=float, default=0.0,
                     help="outbound transfer charge per unit (default: %(default)s)")
    sub.add_argument("--bank-rate", type=float, default=0.0, help="annual interest rate, a fraction (default: %(default)s)")
    sub.add_argument("--cif", type=float, required=True, help="landed price per unit")
    sub.add_argument("--mode", choices=_MODE_CHOICES, default=ThetaMode.WAREHOUSE_ONLY.value,
                     help="(default: %(default)s)")

    sub = command(issue)
    sub.add_argument("--issuer", required=True)
    sub.add_argument("--material", required=True)
    sub.add_argument("--face-weight", type=float, required=True)
    sub.add_argument("--purity", type=float, default=1.0, help="(default: %(default)s)")
    sub.add_argument("--issue-date", type=_iso_date, required=True, help="ISO date")
    sub.add_argument("--theta", type=float, required=True, help="daily retention factor in (0, 1)")
    sub.add_argument("--denominations", required=True, help="comma-separated face weights the issuer offers")
    sub.add_argument("--delivery-charge", type=float, required=True, help="delivery charge ratio (e.g. 0.003)")
    sub.add_argument("--withdrawal-charge", type=float, required=True, help="withdrawal charge ratio (e.g. 0.002)")
    sub.add_argument("--min-delivery", type=float, required=True, help="minimum deliverable face weight")
    sub.add_argument("--location", default="", help="delivery location")
    sub.add_argument("--validity-days", type=int, help="validity window; omit for open-ended")
    sub.add_argument("--weight-unit", default="kg", help="(default: %(default)s)")
    sub.add_argument("--owner", required=True)

    for handler in (quote, deliver, buyback):
        sub = command(handler)
        sub.add_argument("--cert", required=True)
        sub.add_argument("--dt", type=int, required=True, help="days since issuance")
        if handler is quote:
            sub.add_argument("--premium", type=float, default=0.0, help="(default: %(default)s)")

    sub = command(run)
    sub.add_argument("scenario")
    sub.add_argument("--report", type=Path, help="write the machine-readable report (JSON lines) here")
    sub.add_argument("--format", choices=["text", "json"], default="text", help="(default: %(default)s)")

    sub = command(project)
    sub.add_argument("--weight", type=float, required=True, help="anchor weight at day 0")
    sub.add_argument("--theta", type=float, required=True)
    sub.add_argument("--days", type=int, required=True, help="projection horizon in days")

    command(replay_verify, "replay-verify")
    return parser


def main() -> None:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args()  # a usage error exits 2 here
        try:
            per_units = require_number("--price-per-units", args.price_per_units)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if per_units <= 0:
            raise ConfigError("--price-per-units must be > 0")
        profile = RoundingProfile(weight_places=args.weight_places, money_places=args.money_places)
        args.handler(AppContext(args.ledger_path, args.prices_path, args.price_per_units, profile), args)
        sys.stdout.flush()  # so that a closed stdout pipe shows up here
    except DCMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        sys.exit(130)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # leave nothing to flush at exit
        sys.exit(1)
    finally:
        if collecting:  # for a caller that runs main in its own process
            gc.enable()


if __name__ == "__main__":
    main()
