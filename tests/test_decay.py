"""Decay-core oracles: costing, landed price, storage increment, theta derivation, decay."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcm import (
    AttenuationSpec,
    CifQuote,
    DerivationError,
    DomainError,
    LogisticsParams,
    StorageTariff,
    ThetaMode,
    UnboundedCostError,
    attenuation_coefficient,
    cif_price,
    optimal_order_quantity,
    residual_weight,
    storage_increment,
    total_logistics_cost,
)
from dcm.rounding import fmt


def params(**overrides) -> LogisticsParams:
    base = dict(
        ordering_cost=100.0,
        annual_demand=365.0,
        purchase_price=10.0,
        unit_warehouse_cost=1.0,
        transport_cost=2.0,
        transit_days=10.0,
        bank_rate=0.05,
    )
    base.update(overrides)
    return LogisticsParams(**base)


class TestLogisticsParams:
    def test_rejects_negative_monetary_fields(self):
        for field in ("ordering_cost", "purchase_price", "unit_warehouse_cost", "transport_cost"):
            with pytest.raises(DomainError):
                params(**{field: -0.01})

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(DomainError):
            params(annual_demand=0.0)

    def test_rejects_bank_rate_out_of_range(self):
        with pytest.raises(DomainError):
            params(bank_rate=1.0)
        with pytest.raises(DomainError):
            params(bank_rate=-0.01)

    def test_rejects_nonpositive_order_quantity(self):
        with pytest.raises(DomainError):
            params(order_quantity=0.0)

    def test_rejects_negative_transit(self):
        with pytest.raises(DomainError):
            params(transit_days=-1.0)


class TestTotalLogisticsCost:
    def test_all_zero_costs_give_zero(self):
        free = LogisticsParams(
            ordering_cost=0, annual_demand=100, purchase_price=0,
            unit_warehouse_cost=0, transport_cost=0, transit_days=0, bank_rate=0,
        )
        for q in (1.0, 73.0, 5000.0):
            assert total_logistics_cost(free, q) == 0.0

    def test_term_by_term_reference_case(self):
        # independent term-by-term evaluation:
        # ordering 100*365/73 = 500, purchase 10*365 = 3650,
        # carrying 73/2 * (1 + 12*0.05) = 58.4, transport 2*365 = 730,
        # transit interest 0.05*10*365*10/365 = 5  -> total 4943.4
        assert total_logistics_cost(params(), 73.0) == pytest.approx(4943.4, rel=1e-12)

    def test_doubling_ordering_cost_adds_exactly_its_term(self):
        # difference of two evaluations isolates A*D/Q = 500
        base = total_logistics_cost(params(), 73.0)
        doubled = total_logistics_cost(params(ordering_cost=200.0), 73.0)
        assert doubled - base == pytest.approx(500.0, rel=1e-9)

    def test_rejects_nonpositive_quantity(self):
        with pytest.raises(DomainError):
            total_logistics_cost(params(), 0.0)
        with pytest.raises(DomainError):
            total_logistics_cost(params(), -5.0)


class TestOptimalOrderQuantity:
    def test_reference_case(self):
        # sqrt(2*100*365 / (1 + 12*0.05)) = sqrt(45625)
        assert optimal_order_quantity(params()) == pytest.approx(math.sqrt(45625.0), rel=1e-12)

    def test_grid_search_confirms_minimum(self):
        # independent oracle: dense scan around the closed form never does better
        p = params()
        q_star = optimal_order_quantity(p)
        best = min(
            total_logistics_cost(p, q_star + step * 0.001)
            for step in range(-2000, 2001)
            if q_star + step * 0.001 > 0
        )
        assert total_logistics_cost(p, q_star) <= best * (1 + 1e-12)

    def test_scaling_demand_and_ordering_cost_scales_linearly(self):
        q1 = optimal_order_quantity(params())
        q3 = optimal_order_quantity(params(ordering_cost=300.0, annual_demand=3 * 365.0))
        assert q3 == pytest.approx(3 * q1, rel=1e-12)

    def test_huge_warehouse_cost_drives_quantity_to_zero(self):
        assert optimal_order_quantity(params(unit_warehouse_cost=1e12)) < 1e-3

    def test_degenerate_carrying_rate_is_unbounded(self):
        with pytest.raises(UnboundedCostError):
            optimal_order_quantity(params(unit_warehouse_cost=0.0, bank_rate=0.0))

    def test_requires_positive_ordering_cost(self):
        with pytest.raises(DomainError):
            optimal_order_quantity(params(ordering_cost=0.0))


class TestCifPrice:
    def test_term_by_term_reference_case(self):
        # 100/50 + 10 + 2 + 36.5*0.1*10/365 = 2 + 10 + 2 + 0.1
        p = params(order_quantity=50.0, transit_days=36.5, bank_rate=0.1)
        assert cif_price(p).price_per_unit == pytest.approx(14.1, rel=1e-12)

    def test_purchase_price_passes_through(self):
        p = params(ordering_cost=0.0, transport_cost=0.0, transit_days=0.0, order_quantity=50.0)
        assert cif_price(p).price_per_unit == p.purchase_price

    def test_halving_quantity_doubles_only_the_ordering_term(self):
        p_full = params(order_quantity=50.0)
        p_half = params(order_quantity=25.0)
        diff = cif_price(p_half).price_per_unit - cif_price(p_full).price_per_unit
        assert diff == pytest.approx(100.0 / 50.0, rel=1e-9)

    def test_missing_quantity_is_a_domain_error(self):
        with pytest.raises(DomainError):
            cif_price(params())

    def test_carries_identity_fields(self):
        quote = cif_price(params(order_quantity=50.0), material="copper", location="LME")
        assert (quote.material, quote.location) == ("copper", "LME")


def _parent_increment(cif, tariff, delta_t, include_transfer):
    """Reference: the warehouse accrual and the interest accrual computed apart and summed, then the transfer."""
    storage = tariff.daily_warehouse_charge * delta_t
    interest = delta_t / 365.0 * cif.price_per_unit * tariff.bank_rate
    increment = storage + interest
    if include_transfer:
        increment += tariff.outbound_transfer_charge
    return increment


def _increment_cases(count: int):
    """Seeded (cif, tariff, delta_t, include_transfer) cases over several magnitudes, whole and fractional days."""
    rng = random.Random(0xC0577)
    for _ in range(count):
        tariff = StorageTariff(
            daily_warehouse_charge=rng.choice([0.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 500.0)]),
            outbound_transfer_charge=rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e4)]),
            bank_rate=rng.choice([0.0, rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.999)]),
        )
        price = rng.choice([rng.uniform(1e-3, 1.0), rng.uniform(1.0, 1e4), rng.uniform(1e4, 1e9)])
        cif = CifQuote(price_per_unit=price)
        delta_t = rng.choice([0, rng.randrange(1, 40000), rng.uniform(0.0, 40000.0)])
        yield cif, tariff, delta_t, rng.random() < 0.5


class TestStorageIncrement:
    tariff = StorageTariff(daily_warehouse_charge=0.2, outbound_transfer_charge=1.5, bank_rate=0.0365)
    cif = CifQuote(price_per_unit=5000.0)

    def test_zero_days_add_nothing(self):
        assert storage_increment(self.cif, self.tariff, 0) == 0.0

    def test_warehouse_term_alone(self):
        tariff = self.tariff._replace(bank_rate=0.0)
        assert storage_increment(self.cif, tariff, 365) == pytest.approx(73.0, rel=1e-12)

    def test_interest_term_alone(self):
        tariff = self.tariff._replace(daily_warehouse_charge=0.0)
        # 10/365 * 5000 * 0.0365 = 5.0
        assert storage_increment(self.cif, tariff, 10) == pytest.approx(5.0, rel=1e-12)
        assert storage_increment(self.cif, tariff, 365) == self.cif.price_per_unit * 0.0365

    def test_additive_over_days(self):
        a, b = 17, 214
        assert storage_increment(self.cif, self.tariff, a + b) == pytest.approx(
            storage_increment(self.cif, self.tariff, a) + storage_increment(self.cif, self.tariff, b), rel=1e-12
        )

    def test_transfer_charge_is_added_once(self):
        # 0.2*10 + (10/365)*5000*0.0365 + 1.5 = 2 + 5 + 1.5
        with_transfer = storage_increment(self.cif, self.tariff, 10, include_transfer=True)
        assert with_transfer == pytest.approx(8.5, rel=1e-12)
        assert with_transfer == storage_increment(self.cif, self.tariff, 10) + self.tariff.outbound_transfer_charge

    def test_negative_days_are_refused(self):
        with pytest.raises(DomainError) as excinfo:
            storage_increment(self.cif, self.tariff, -1)
        assert str(excinfo.value) == "delta_t must be >= 0"

    def test_equals_the_accruals_summed_in_order_to_the_bit(self):
        cases = list(_increment_cases(1200))
        assert {include for *_, include in cases} == {False, True}
        for cif, tariff, delta_t, include_transfer in cases:
            assert storage_increment(cif, tariff, delta_t, include_transfer) == _parent_increment(
                cif, tariff, delta_t, include_transfer
            ), (cif, tariff, delta_t, include_transfer)


# a day count or a lot size given to a costing function must be a finite int or float: (call, name it refuses)
COSTING_CALLS = {
    "increment": (lambda value: storage_increment(CifQuote(5000.0), StorageTariff(0.2, 1.5, 0.0365), value), "delta_t"),
    "total-cost": (lambda value: total_logistics_cost(params(), value), "order_quantity"),
}


@pytest.mark.parametrize(
    "value, refusal",
    [
        (float("nan"), "finite, got nan"),
        (float("inf"), "finite, got inf"),
        (float("-inf"), "finite, got -inf"),
        (True, "a number, got True"),
        ("5", "a number, got '5'"),
    ],
    ids=["nan", "inf", "minus-inf", "true", "text"],
)
@pytest.mark.parametrize("call", list(COSTING_CALLS))
def test_a_costing_argument_that_is_not_a_finite_number_is_a_domain_error(call, value, refusal):
    compute, name = COSTING_CALLS[call]
    with pytest.raises(DomainError) as excinfo:
        compute(value)
    assert str(excinfo.value) == f"{name} must be {refusal}"


@pytest.mark.parametrize("field", StorageTariff._fields)
def test_a_negative_tariff_field_is_a_domain_error(field):
    with pytest.raises(DomainError) as excinfo:
        StorageTariff(**{**dict(zip(StorageTariff._fields, (0.2, 1.5, 0.0365))), field: -0.01})
    assert str(excinfo.value) == f"{field} must be >= 0"


class TestAttenuationCoefficient:
    def test_warehouse_only_reference_case(self):
        # 1 - 0.2/5000
        spec = attenuation_coefficient(
            StorageTariff(daily_warehouse_charge=0.2),
            CifQuote(price_per_unit=5000.0),
            ThetaMode.WAREHOUSE_ONLY,
        )
        assert spec.theta_daily == pytest.approx(0.99996, abs=1e-15)
        assert fmt(spec.theta_daily, 6) == "0.999960"
        assert spec.mode is ThetaMode.WAREHOUSE_ONLY

    def test_zero_tariffs_hit_the_open_interval_boundary(self):
        with pytest.raises(DerivationError):
            attenuation_coefficient(
                StorageTariff(daily_warehouse_charge=0.0),
                CifQuote(price_per_unit=5000.0),
                ThetaMode.WAREHOUSE_ONLY,
            )

    def test_full_cost_balances_one_day_of_cost_recovery(self):
        # algebraic identity: price*(1-theta) == warehouse + price*rate/365 + transfer
        tariff = StorageTariff(daily_warehouse_charge=0.2, outbound_transfer_charge=0.7, bank_rate=0.0365)
        cif = CifQuote(price_per_unit=5000.0)
        theta = attenuation_coefficient(tariff, cif, ThetaMode.FULL_COST).theta_daily
        lhs = cif.price_per_unit * (1.0 - theta)
        rhs = (
            tariff.daily_warehouse_charge
            + cif.price_per_unit * tariff.bank_rate / 365.0
            + tariff.outbound_transfer_charge
        )
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_interest_credited_pathology_is_rejected_with_the_value(self):
        # 1 + 0.0365/365 - 0.2/5000 = 1.000060 -> outside (0, 1)
        with pytest.raises(DerivationError, match=r"1\.000060"):
            attenuation_coefficient(
                StorageTariff(daily_warehouse_charge=0.2, bank_rate=0.0365),
                CifQuote(price_per_unit=5000.0),
                ThetaMode.INTEREST_CREDITED,
            )

    def test_explicit_mode_has_nothing_to_derive(self):
        with pytest.raises(DomainError):
            attenuation_coefficient(
                StorageTariff(daily_warehouse_charge=0.2),
                CifQuote(price_per_unit=5000.0),
                ThetaMode.EXPLICIT,
            )


class TestAttenuationSpec:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_theta_outside_open_interval(self, bad):
        with pytest.raises(DerivationError):
            AttenuationSpec(theta_daily=bad)

    def test_derived_mode_requires_inputs(self):
        with pytest.raises(DomainError):
            AttenuationSpec(theta_daily=0.99996, mode=ThetaMode.WAREHOUSE_ONLY)

    def test_derived_mode_must_match_its_inputs(self):
        tariff = StorageTariff(daily_warehouse_charge=0.2)
        cif = CifQuote(price_per_unit=5000.0)
        with pytest.raises(DomainError):
            AttenuationSpec(theta_daily=0.9, mode=ThetaMode.WAREHOUSE_ONLY, tariff=tariff, cif=cif)

    def test_derived_mode_accepts_its_own_derivation(self):
        tariff = StorageTariff(daily_warehouse_charge=0.2, outbound_transfer_charge=0.7, bank_rate=0.0365)
        cif = CifQuote(price_per_unit=5000.0)
        spec = attenuation_coefficient(tariff, cif, ThetaMode.FULL_COST)
        clone = AttenuationSpec(theta_daily=spec.theta_daily, mode=spec.mode, tariff=tariff, cif=cif)
        assert clone == spec


class TestResidualWeight:
    def test_lme_reference_weight(self):
        # stated case-study figure; displayed value rounds to it exactly
        assert residual_weight(1000.0, 0.99996, 183) == pytest.approx(992.7066, abs=1e-4)

    def test_shfe_reference_weight(self):
        # stated figure 98.99856 was rounded upstream; exact evaluation gives
        # 98.99852, inside the documented 1e-4 band
        assert residual_weight(100.0, 0.999945, 183) == pytest.approx(98.99856, abs=1e-4)

    def test_zero_days_returns_face_weight_exactly(self):
        spec = AttenuationSpec(theta_daily=0.99996)
        assert residual_weight(123.456, spec, 0) == 123.456

    def test_accepts_spec_and_raw_float_alike(self):
        spec = AttenuationSpec(theta_daily=0.99996)
        assert residual_weight(1000.0, spec, 183) == residual_weight(1000.0, 0.99996, 183)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            residual_weight(0.0, 0.99996, 10)
        with pytest.raises(DomainError):
            residual_weight(1000.0, 0.99996, -1)
        with pytest.raises(DomainError):
            residual_weight(1000.0, 0.99996, 1.5)
        with pytest.raises(DomainError):
            residual_weight(1000.0, 1.0, 10)


class TestDecayProperties:
    @given(
        w=st.floats(min_value=1e-3, max_value=1e9),
        theta=st.floats(min_value=0.99, max_value=0.999999),
        a=st.integers(min_value=0, max_value=20000),
        b=st.integers(min_value=0, max_value=20000),
    )
    @settings(max_examples=200, deadline=None)
    def test_decay_composes_over_split_horizons(self, w, theta, a, b):
        direct = residual_weight(w, theta, a + b)
        staged = residual_weight(residual_weight(w, theta, a), theta, b)
        assert staged == pytest.approx(direct, rel=1e-9)

    @given(
        w=st.floats(min_value=1e-3, max_value=1e9),
        theta=st.floats(min_value=0.99, max_value=0.999999),
        t=st.integers(min_value=0, max_value=20000),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_time(self, w, theta, t):
        assert residual_weight(w, theta, t + 1) < residual_weight(w, theta, t)

    @given(
        w=st.floats(min_value=1e-3, max_value=1e9),
        theta=st.floats(min_value=0.99, max_value=0.999899),
        gap=st.floats(min_value=1e-7, max_value=1e-4),
        t=st.integers(min_value=1, max_value=20000),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_theta(self, w, theta, gap, t):
        assert residual_weight(w, theta + gap, t) > residual_weight(w, theta, t)

    @given(
        ordering=st.floats(min_value=1.0, max_value=500.0),
        demand=st.floats(min_value=10.0, max_value=10000.0),
        price=st.floats(min_value=0.5, max_value=200.0),
        warehouse=st.floats(min_value=0.01, max_value=50.0),
        transport=st.floats(min_value=0.0, max_value=20.0),
        rate=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_optimum_beats_nearby_grid(self, ordering, demand, price, warehouse, transport, rate):
        p = LogisticsParams(
            ordering_cost=ordering,
            annual_demand=demand,
            purchase_price=price,
            unit_warehouse_cost=warehouse,
            transport_cost=transport,
            transit_days=0.0,
            bank_rate=rate,
        )
        q_star = optimal_order_quantity(p)
        c_star = total_logistics_cost(p, q_star)
        for step in range(-50, 51):
            q = q_star + step * 0.001
            if q > 0:
                assert c_star <= total_logistics_cost(p, q) * (1 + 1e-12)
