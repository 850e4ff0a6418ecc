"""Logistics costing, storage accrual, and daily weight-decay arithmetic.

Pure functions over value types; no shared state.  All day counts use a fixed
365-day year, matching the costing conventions the engine settles under, and
every quantity is carried in double precision (15-16 significant digits).
"""

from __future__ import annotations

import math
from collections import namedtuple
from datetime import date
from enum import Enum

from .errors import DerivationError, DomainError, UnboundedCostError
from .values import Value, require_date, require_integer, require_number

_new = tuple.__new__

DAYS_PER_YEAR = 365.0


class LogisticsParams(Value, namedtuple(
    "LogisticsParams",
    "ordering_cost annual_demand purchase_price unit_warehouse_cost transport_cost transit_days bank_rate "
    "order_quantity",
)):
    """Procurement cost inputs for one commodity at one warehouse.

    ordering_cost        currency per order placed
    annual_demand        units consumed per year
    purchase_price       currency per unit
    unit_warehouse_cost  currency per unit per year of storage
    transport_cost       currency per unit moved
    transit_days         days in transit per order
    bank_rate            annual interest rate, fraction per year
    order_quantity       units per order; optional, may be solved for
    """

    __slots__ = ()

    def __new__(
        cls,
        ordering_cost: float,
        annual_demand: float,
        purchase_price: float,
        unit_warehouse_cost: float,
        transport_cost: float,
        transit_days: float,
        bank_rate: float,
        order_quantity: float | None = None,
    ):
        self = _new(cls, (
            *map(require_number, cls._fields, (
                ordering_cost, annual_demand, purchase_price, unit_warehouse_cost, transport_cost, transit_days,
                bank_rate,
            )),
            None if order_quantity is None else require_number("order_quantity", order_quantity),
        ))
        for name in ("ordering_cost", "purchase_price", "unit_warehouse_cost", "transport_cost", "transit_days"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.annual_demand <= 0:
            raise DomainError("annual_demand must be > 0")
        if self.order_quantity is not None and self.order_quantity <= 0:
            raise DomainError("order_quantity must be > 0 when given")
        if not 0.0 <= self.bank_rate < 1.0:
            raise DomainError("bank_rate must lie in [0, 1)")
        return self

    def carrying_rate(self) -> float:
        """Annual cost of holding one unit: warehouse charge plus interest on tied-up capital."""
        return self.unit_warehouse_cost + (self.purchase_price + self.transport_cost) * self.bank_rate


class CifQuote(Value, namedtuple("CifQuote", "price_per_unit material location as_of")):
    """Landed unit price of the anchor commodity at a warehouse."""

    __slots__ = ()

    def __new__(cls, price_per_unit: float, material: str = "", location: str = "", as_of: date | None = None):
        price = require_number("price_per_unit", price_per_unit)
        if price <= 0:
            raise DomainError("price_per_unit must be > 0")
        for name, text in (("material", material), ("location", location)):
            if not isinstance(text, str):
                raise DomainError(f"{name} must be a string, got {text!r}")
        if as_of is not None:
            require_date("as_of", as_of)
        return _new(cls, (price, material, location, as_of))


class StorageTariff(Value, namedtuple("StorageTariff", "daily_warehouse_charge outbound_transfer_charge bank_rate")):
    """Custodian charges for one unit of anchor held in one warehouse.

    daily_warehouse_charge    currency per unit per day
    outbound_transfer_charge  currency per unit, on outbound delivery
    bank_rate                 annual interest rate, fraction per year
    """

    __slots__ = ()

    def __new__(cls, daily_warehouse_charge: float, outbound_transfer_charge: float = 0.0, bank_rate: float = 0.0):
        self = _new(cls, (
            require_number("daily_warehouse_charge", daily_warehouse_charge),
            require_number("outbound_transfer_charge", outbound_transfer_charge),
            require_number("bank_rate", bank_rate),
        ))
        for name, value in zip(cls._fields, self):
            if value < 0:
                raise DomainError(f"{name} must be >= 0")
        return self


class ThetaMode(str, Enum):
    """How a daily retention factor was obtained.

    WAREHOUSE_ONLY     decay covers the warehouse charge only; interest and
                       outbound transfer are billed to the client directly.
    FULL_COST          decay covers warehouse, transfer and capital interest;
                       one day of decay pays exactly one day of carrying cost.
    INTEREST_CREDITED  like FULL_COST but the daily interest term is credited
                       back to the holder (raises theta).  Both sign
                       conventions circulate; this one does not balance daily
                       cost recovery and is kept for comparison.
    EXPLICIT           taken as given, no derivation inputs.
    """

    WAREHOUSE_ONLY = "warehouse-only"
    FULL_COST = "full-cost"
    INTEREST_CREDITED = "interest-credited"
    EXPLICIT = "explicit"


_EXPLICIT = ThetaMode.EXPLICIT  # a module global is cheaper to read than an Enum class attribute


def _daily_decay_fraction(tariff: StorageTariff, cif: CifQuote, mode: ThetaMode) -> float:
    """Fraction of anchor value consumed per stored day under the given mode.

    Computed in small-magnitude space so that theta = 1 - fraction keeps the
    fraction's full precision through the single final subtraction.
    """
    charge_ratio = tariff.daily_warehouse_charge / cif.price_per_unit
    transfer_ratio = tariff.outbound_transfer_charge / cif.price_per_unit
    daily_interest = tariff.bank_rate / DAYS_PER_YEAR
    if mode is ThetaMode.WAREHOUSE_ONLY:
        return charge_ratio
    if mode is ThetaMode.FULL_COST:
        return charge_ratio + transfer_ratio + daily_interest
    if mode is ThetaMode.INTEREST_CREDITED:
        return charge_ratio + transfer_ratio - daily_interest
    raise DomainError("explicit mode carries no derivation inputs")


class AttenuationSpec(Value, namedtuple("AttenuationSpec", "theta_daily mode tariff cif")):
    """A daily retention factor theta in (0, 1) with its provenance.

    For derived modes the tariff and cif inputs are retained so the value can
    be audited against its own derivation; an explicit theta carries neither.
    """

    __slots__ = ()

    def __new__(
        cls,
        theta_daily: float,
        mode: ThetaMode = ThetaMode.EXPLICIT,
        tariff: StorageTariff | None = None,
        cif: CifQuote | None = None,
    ):
        theta_daily = require_number("theta_daily", theta_daily)
        if not 0.0 < theta_daily < 1.0:
            raise DerivationError(
                f"theta_daily {theta_daily:.6f} ({mode.value}) outside the open interval (0, 1)"
            )
        if mode is _EXPLICIT:
            if tariff is not None or cif is not None:
                raise DomainError("explicit mode carries no derivation inputs")
        elif tariff is None or cif is None:
            raise DomainError(f"mode {mode.value} requires tariff and cif inputs")
        else:
            rederived = 1.0 - _daily_decay_fraction(tariff, cif, mode)
            if not math.isclose(theta_daily, rederived, rel_tol=1e-12):
                raise DomainError(
                    f"theta_daily {theta_daily!r} disagrees with its derivation "
                    f"inputs (recomputed {rederived!r})"
                )
        return _new(cls, (theta_daily, mode, tariff, cif))


def total_logistics_cost(params: LogisticsParams, order_quantity: float) -> float:
    """Annual cost of ordering, buying, carrying and moving at lot size ``order_quantity``.

    Terms: order placement, purchase, average-inventory carrying, transport,
    and interest on capital in transit.
    """
    quantity = require_number("order_quantity", order_quantity)
    if quantity <= 0:
        raise DomainError("order_quantity must be > 0")
    p = params
    return (
        p.ordering_cost * p.annual_demand / quantity
        + p.purchase_price * p.annual_demand
        + quantity / 2.0 * p.carrying_rate()
        + p.transport_cost * p.annual_demand
        + p.bank_rate * p.purchase_price * p.annual_demand * p.transit_days / DAYS_PER_YEAR
    )


def optimal_order_quantity(params: LogisticsParams) -> float:
    """Lot size minimizing total_logistics_cost: sqrt(2AD / carrying rate).

    Only the order-placement and carrying terms depend on the lot size, so the
    minimizer balances those two.
    """
    if params.ordering_cost <= 0:
        raise DomainError("ordering_cost must be > 0 to trade off against carrying cost")
    carrying = params.carrying_rate()
    if carrying <= 0:
        raise UnboundedCostError(
            "carrying rate is zero: cost decreases in the lot size without bound"
        )
    return math.sqrt(2.0 * params.ordering_cost * params.annual_demand / carrying)


def cif_price(
    params: LogisticsParams,
    *,
    material: str = "",
    location: str = "",
    as_of: date | None = None,
) -> CifQuote:
    """Landed unit price: prorated ordering cost + purchase + transport + in-transit interest."""
    p = params
    if p.order_quantity is None:
        raise DomainError("order_quantity is required to prorate the ordering cost")
    price = (
        p.ordering_cost / p.order_quantity
        + p.purchase_price
        + p.transport_cost
        + p.transit_days * p.bank_rate * p.purchase_price / DAYS_PER_YEAR
    )
    return CifQuote(price_per_unit=price, material=material, location=location, as_of=as_of)


def storage_increment(
    cif: CifQuote,
    tariff: StorageTariff,
    delta_t: float,
    include_transfer: bool = False,
) -> float:
    """Cost added on top of the landed price after ``delta_t`` stored days.

    The warehouse charge for the days, plus interest on the capital the unit
    ties up, plus the outbound transfer charge when ``include_transfer``.
    """
    days = require_number("delta_t", delta_t)
    if days < 0:
        raise DomainError("delta_t must be >= 0")
    increment = tariff.daily_warehouse_charge * days + days / DAYS_PER_YEAR * cif.price_per_unit * tariff.bank_rate
    if include_transfer:
        increment += tariff.outbound_transfer_charge
    return increment


def attenuation_coefficient(
    tariff: StorageTariff, cif: CifQuote, mode: ThetaMode
) -> AttenuationSpec:
    """Daily retention factor theta such that the weight shed per day pays the custodian.

    WAREHOUSE_ONLY:    theta = 1 - warehouse/price
    FULL_COST:         theta = 1 - rate/365 - (warehouse + transfer)/price
    INTEREST_CREDITED: theta = 1 + rate/365 - (warehouse + transfer)/price

    Raises DerivationError when the result leaves (0, 1) - tariffs too high
    relative to the anchor value, or a rate pathology (INTEREST_CREDITED with
    interest outweighing the charges pushes theta above 1).
    """
    theta = 1.0 - _daily_decay_fraction(tariff, cif, mode)
    return AttenuationSpec(theta_daily=theta, mode=mode, tariff=tariff, cif=cif)


def residual_weight(
    face_weight: float, theta: AttenuationSpec | float, delta_t: int
) -> float:
    """Weight a certificate commands ``delta_t`` days after issuance: face x theta^dt.

    Geometric daily decay, evaluated as exp(dt * ln theta) to hold 15-16
    significant digits across decade-scale horizons.
    """
    weight = require_number("face_weight", face_weight)
    if weight <= 0:
        raise DomainError("face_weight must be > 0")
    days = require_integer("delta_t", delta_t)
    if days < 0:
        raise DomainError("delta_t must be >= 0")
    if isinstance(theta, AttenuationSpec):
        daily = theta.theta_daily
    else:
        daily = require_number("theta", theta)
        if not 0.0 < daily < 1.0:
            raise DomainError("theta must lie in the open interval (0, 1)")
    return weight * math.exp(days * math.log(daily))


class WealthProjection(Value, namedtuple(
    "WealthProjection", "anchor_weight horizon_days residual_weight issuer_accrued_weight"
)):
    """Decade-scale split of an anchor stock between holders and custodian."""

    __slots__ = ()


def wealth_projection(
    anchor_weight: float, theta: AttenuationSpec | float, horizon_days: int
) -> WealthProjection:
    """Split ``anchor_weight`` after ``horizon_days`` of decay.

    residual = anchor x theta^horizon; the issuer share is the complement, so
    the pair sums back to the anchor weight.
    """
    anchor_weight = require_number("anchor_weight", anchor_weight)
    if anchor_weight <= 0:
        raise DomainError("anchor_weight must be > 0")
    if require_integer("horizon_days", horizon_days) < 0:
        raise DomainError("horizon_days must be >= 0")
    residual = residual_weight(anchor_weight, theta, horizon_days)
    return WealthProjection(anchor_weight, horizon_days, residual, anchor_weight - residual)
