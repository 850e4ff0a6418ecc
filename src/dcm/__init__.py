"""Decayed commodity money: issuance, pricing, settlement, and a replayable ledger.

The scenario names load ``dcm.scenario`` (and PyYAML) on first use, so a
command that runs no scenario does not pay for importing them.
"""

from .decay import (
    AttenuationSpec,
    CifQuote,
    LogisticsParams,
    StorageTariff,
    ThetaMode,
    WealthProjection,
    attenuation_coefficient,
    cif_price,
    optimal_order_quantity,
    residual_weight,
    storage_increment,
    total_logistics_cost,
    wealth_projection,
)
from .errors import (
    ConfigError,
    DCMError,
    DerivationError,
    DomainError,
    ExpiryError,
    IssuanceError,
    LedgerIntegrityError,
    LotSizeError,
    NoQuoteError,
    ParseError,
    ScenarioStepError,
    SettlementError,
    StateError,
    UnboundedCostError,
    ValidationError,
)
from .ledger import EventKind, Ledger, LedgerEvent, read_events
from .market import PriceSeries, load_series, quote_at
from .registry import (
    BuybackResult,
    CertStatus,
    Certificate,
    DeliveryResult,
    DeliveryRules,
    ExpiryResult,
    MarketQuote,
    QuoteResult,
    Registry,
    RegistrySnapshot,
    export_certificate,
    replay,
)
from .rounding import RoundingProfile, fmt, quantize, quantize_to_float

_SCENARIO_NAMES = frozenset({
    "ScenarioConfig",
    "ScenarioReport",
    "ScriptStep",
    "bundled_scenario_path",
    "load_scenario",
    "run_scenario",
})


def __getattr__(name: str):
    if name not in _SCENARIO_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import scenario

    value = globals()[name] = getattr(scenario, name)
    return value

__version__ = "0.1.0"

__all__ = [
    "AttenuationSpec",
    "BuybackResult",
    "CertStatus",
    "Certificate",
    "CifQuote",
    "ConfigError",
    "DCMError",
    "DeliveryResult",
    "DeliveryRules",
    "DerivationError",
    "DomainError",
    "EventKind",
    "ExpiryError",
    "ExpiryResult",
    "IssuanceError",
    "Ledger",
    "LedgerEvent",
    "LedgerIntegrityError",
    "LogisticsParams",
    "LotSizeError",
    "MarketQuote",
    "NoQuoteError",
    "ParseError",
    "PriceSeries",
    "QuoteResult",
    "Registry",
    "RegistrySnapshot",
    "RoundingProfile",
    "ScenarioConfig",
    "ScenarioReport",
    "ScenarioStepError",
    "ScriptStep",
    "SettlementError",
    "StateError",
    "StorageTariff",
    "ThetaMode",
    "UnboundedCostError",
    "ValidationError",
    "WealthProjection",
    "attenuation_coefficient",
    "bundled_scenario_path",
    "cif_price",
    "export_certificate",
    "fmt",
    "load_scenario",
    "load_series",
    "optimal_order_quantity",
    "quantize",
    "quantize_to_float",
    "quote_at",
    "read_events",
    "replay",
    "residual_weight",
    "run_scenario",
    "storage_increment",
    "total_logistics_cost",
    "wealth_projection",
]
