"""Command-line front door for the certificate engine.

Exit codes: 0 success, 2 validation error, 3 settlement/state error,
4 ledger-integrity error.
"""

from __future__ import annotations

import sys
from datetime import date, timedelta
from pathlib import Path

import click

from .checkpoint import LedgerFile
from .decay import AttenuationSpec, CifQuote, StorageTariff, ThetaMode, attenuation_coefficient
from .errors import EXIT_VALIDATION, ConfigError, DCMError
from .ledger import Ledger
from .market import load_series, quote_at, read_text
from .registry import DeliveryRules, MarketQuote, Registry, export_certificate
from .rounding import RoundingProfile, fmt

_MODE_CHOICES = [m.value for m in ThetaMode if m is not ThetaMode.EXPLICIT]


class AppContext:
    def __init__(self, ledger_path: Path, prices_path: Path | None, per_units: float, profile: RoundingProfile):
        self.ledger_path = ledger_path
        self.prices_path = prices_path
        self.per_units = per_units
        self.profile = profile
        self.ledger_file = LedgerFile(ledger_path, profile.weight_places)

    def _warn_if_ignored(self) -> None:
        if self.ledger_file.ignored is not None:
            click.echo(f"warning: ignoring checkpoint {self.ledger_file.sidecar}: {self.ledger_file.ignored}", err=True)

    def load_registry(self) -> Registry:
        """The ledger file's registry, resumed from its checkpoint sidecar when that verifies."""
        try:
            return self.ledger_file.load()
        finally:
            self._warn_if_ignored()

    def verify_registry(self) -> Registry:
        """The ledger file's registry by a full replay, checked against its checkpoint sidecar."""
        try:
            return self.ledger_file.verify()
        finally:
            self._warn_if_ignored()

    def save(self, registry: Registry, known: int) -> None:
        """Append the events after the first ``known``, then rewrite the checkpoint sidecar.

        Refuses, writing nothing, when the file read ends inside a line.
        """
        self.ledger_file.check_appendable()
        self.append_new_events(registry.ledger, known)
        try:
            self.ledger_file.write_checkpoint(registry, registry.ledger.events[known:])
        except OSError as exc:
            click.echo(f"warning: cannot write checkpoint {self.ledger_file.sidecar}: {exc}", err=True)

    def append_new_events(self, ledger: Ledger, known: int) -> None:
        new_events = ledger.events[known:]
        if not new_events:
            return
        with self.ledger_path.open("a", encoding="utf-8") as handle:
            for event in new_events:
                handle.write(event.line + "\n")

    def market_quote(self, cert, dt: int, premium: float) -> MarketQuote:
        if self.prices_path is None:
            raise ConfigError("this command needs a price series; pass --prices")
        series = load_series(read_text(self.prices_path, "price series"))
        when = cert.issue_date + timedelta(days=dt)
        return MarketQuote(quotation=quote_at(series, when) / self.per_units, premium=premium)


def _parse_iso_date(_ctx, _param, value):
    if value is None:
        return None
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise click.BadParameter(f"{value!r} is not an ISO date") from None


@click.group()
@click.option("--ledger", "ledger_path", type=click.Path(path_type=Path), default=Path("dcm-ledger.log"), show_default=True, help="Event ledger file.")
@click.option("--prices", "prices_path", type=click.Path(exists=True, path_type=Path), default=None, help="Price series CSV (date,price) for quote/buyback.")
@click.option("--price-per-units", type=float, default=1.0, show_default=True, help="Certificate weight units per quoted price unit.")
@click.option("--weight-places", type=int, default=4, show_default=True, help="Weight display and settlement-docket precision.")
@click.option("--money-places", type=int, default=4, show_default=True, help="Money display precision.")
@click.pass_context
def cli(ctx: click.Context, ledger_path: Path, prices_path: Path | None, price_per_units: float, weight_places: int, money_places: int):
    """Decayed commodity money: derive theta, manage certificates, run scenarios."""
    if price_per_units <= 0:
        raise ConfigError("--price-per-units must be > 0")
    ctx.obj = AppContext(
        ledger_path=ledger_path,
        prices_path=prices_path,
        per_units=price_per_units,
        profile=RoundingProfile(weight_places=weight_places, money_places=money_places),
    )


@cli.command()
@click.option("--warehouse-charge", type=float, required=True, help="Daily warehouse charge per unit.")
@click.option("--transfer-charge", type=float, default=0.0, show_default=True, help="Outbound transfer charge per unit.")
@click.option("--bank-rate", type=float, default=0.0, show_default=True, help="Annual interest rate (fraction).")
@click.option("--cif", "cif_price_value", type=float, required=True, help="Landed price per unit.")
@click.option("--mode", type=click.Choice(_MODE_CHOICES), default=ThetaMode.WAREHOUSE_ONLY.value, show_default=True)
def theta(warehouse_charge: float, transfer_charge: float, bank_rate: float, cif_price_value: float, mode: str):
    """Derive a daily retention factor from storage tariffs."""
    tariff = StorageTariff(
        daily_warehouse_charge=warehouse_charge,
        outbound_transfer_charge=transfer_charge,
        bank_rate=bank_rate,
    )
    spec = attenuation_coefficient(tariff, CifQuote(price_per_unit=cif_price_value), ThetaMode(mode))
    click.echo(f"{fmt(spec.theta_daily, 6)} ({spec.mode.value})")


@cli.command()
@click.option("--issuer", required=True)
@click.option("--material", required=True)
@click.option("--face-weight", type=float, required=True)
@click.option("--purity", type=float, default=1.0, show_default=True)
@click.option("--issue-date", callback=_parse_iso_date, required=True, help="ISO date.")
@click.option("--theta", "theta_value", type=float, required=True, help="Daily retention factor in (0, 1).")
@click.option("--denominations", required=True, help="Comma-separated face weights the issuer offers.")
@click.option("--delivery-charge", type=float, required=True, help="Delivery charge ratio (e.g. 0.003).")
@click.option("--withdrawal-charge", type=float, required=True, help="Withdrawal charge ratio (e.g. 0.002).")
@click.option("--min-delivery", type=float, required=True, help="Minimum deliverable face weight.")
@click.option("--location", default="", help="Delivery location.")
@click.option("--validity-days", type=int, default=None, help="Validity window; omit for open-ended.")
@click.option("--weight-unit", default="kg", show_default=True)
@click.option("--owner", required=True)
@click.pass_obj
def issue(app: AppContext, issuer, material, face_weight, purity, issue_date, theta_value, denominations,
          delivery_charge, withdrawal_charge, min_delivery, location, validity_days, weight_unit, owner):
    """Issue a certificate and print its paper form."""
    try:
        denoms = [float(d) for d in denominations.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"bad denomination list {denominations!r}") from None
    registry = app.load_registry()
    known = len(registry.ledger)
    registry.register_issuer(issuer, denoms)
    cert = registry.issue(
        issuer=issuer,
        material=material,
        face_weight=face_weight,
        purity=purity,
        issue_date=issue_date,
        theta=AttenuationSpec(theta_daily=theta_value),
        rules=DeliveryRules(
            delivery_charge_ratio=delivery_charge,
            withdrawal_charge_ratio=withdrawal_charge,
            min_delivery_weight=min_delivery,
            delivery_location=location,
            validity_days=validity_days,
        ),
        owner=owner,
        weight_unit=weight_unit,
    )
    app.save(registry, known)
    click.echo(export_certificate(cert), nl=False)


@cli.command()
@click.option("--cert", "cert_id", required=True)
@click.option("--dt", type=int, required=True, help="Days since issuance.")
@click.option("--premium", type=float, default=0.0, show_default=True)
@click.pass_obj
def quote(app: AppContext, cert_id, dt, premium):
    """Price a certificate against the market series."""
    registry = app.load_registry()
    known = len(registry.ledger)
    market = app.market_quote(registry.certificate(cert_id), dt, premium)
    result = registry.quote_transaction_price(cert_id, market, dt)
    app.save(registry, known)
    click.echo(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    click.echo(f"price: {app.profile.money(result.price)}")


@cli.command()
@click.option("--cert", "cert_id", required=True)
@click.option("--dt", type=int, required=True, help="Days since issuance.")
@click.pass_obj
def deliver(app: AppContext, cert_id, dt):
    """Settle a certificate by physical delivery."""
    registry = app.load_registry()
    known = len(registry.ledger)
    result = registry.physical_delivery(cert_id, dt)
    app.save(registry, known)
    click.echo(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    click.echo(f"delivered_weight: {app.profile.weight(result.delivered_weight)}")


@cli.command()
@click.option("--cert", "cert_id", required=True)
@click.option("--dt", type=int, required=True, help="Days since issuance.")
@click.pass_obj
def buyback(app: AppContext, cert_id, dt):
    """Settle a certificate for cash at the day's quotation."""
    registry = app.load_registry()
    known = len(registry.ledger)
    market = app.market_quote(registry.certificate(cert_id), dt, 0.0)
    result = registry.buyback(cert_id, dt, market)
    app.save(registry, known)
    click.echo(f"buyback_weight: {app.profile.weight(result.buyback_weight)}")
    click.echo(f"cash: {app.profile.money(result.cash)}")


@cli.command()
@click.argument("scenario")
@click.option("--report", "report_path", type=click.Path(path_type=Path), default=None, help="Write the machine-readable report (JSON lines) here.")
@click.option("--format", "output_format", type=click.Choice(["text", "json"]), default="text", show_default=True)
def run(scenario: str, report_path: Path | None, output_format: str):
    """Run a scenario file or a bundled scenario by name."""
    from .scenario import bundled_scenario_path, load_scenario, run_scenario

    path = Path(scenario)
    if not path.exists():
        path = bundled_scenario_path(scenario)
    report, _registry = run_scenario(load_scenario(path))
    json_lines = report.to_json_lines() if output_format == "json" or report_path is not None else ""
    click.echo(json_lines if output_format == "json" else report.to_text(), nl=False)
    if report_path is not None:
        report_path.write_text(json_lines, encoding="utf-8")


@cli.command()
@click.option("--weight", type=float, required=True, help="Anchor weight at day 0.")
@click.option("--theta", "theta_value", type=float, required=True)
@click.option("--days", type=int, required=True, help="Projection horizon in days.")
@click.pass_obj
def project(app: AppContext, weight, theta_value, days):
    """Project the holder/custodian split of an anchor stock."""
    from .scenario import wealth_projection

    result = wealth_projection(weight, theta_value, days)
    click.echo(f"residual_weight: {app.profile.weight(result.residual_weight)}")
    click.echo(f"issuer_accrued_weight: {app.profile.weight(result.issuer_accrued_weight)}")


@cli.command("replay-verify")
@click.pass_obj
def replay_verify(app: AppContext):
    """Verify the ledger's hash chain and replayability end to end."""
    if not app.ledger_path.exists():
        raise ConfigError(f"ledger file not found: {app.ledger_path}")
    registry = app.verify_registry()
    click.echo(
        f"ok: {len(registry.ledger)} events, {len(registry.certificates)} certificates, "
        f"head {registry.ledger.head_hash}"
    )


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except DCMError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code if exc.exit_code != 1 else EXIT_VALIDATION)
    except click.exceptions.Abort:
        sys.exit(130)


if __name__ == "__main__":
    main()
