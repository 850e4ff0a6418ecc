"""Shared fixtures and golden-comparison helpers."""

from __future__ import annotations

import hashlib
import json
from datetime import date
from decimal import Decimal

import pytest

from dcm import AttenuationSpec, DeliveryRules, Registry
from dcm.ledger import canonical_payload
from dcm.rounding import quantize

LME_ISSUE_DATE = date(2020, 1, 1)


def assert_display_close(value: float, places: int, pinned: str, tol: str = "0.0001"):
    """Compare a displayed (half-even quantized) value against a pinned figure.

    Tolerances are exact decimal arithmetic so boundary cases cannot flake on
    binary representation.
    """
    shown = quantize(value, places)
    assert abs(shown - Decimal(pinned)) <= Decimal(tol), f"displayed {shown}, pinned {pinned}"


def same_json(a, b) -> bool:
    """Whether two JSON values are equal with every key, value and element of the same class.

    Dict key order is ignored; a float must match to its sign, so -0.0 differs from 0.0.
    """
    if a.__class__ is not b.__class__:
        return False
    if a.__class__ is dict:
        return (
            a.keys() == b.keys()
            and all(key.__class__ is str for key in a) and all(key.__class__ is str for key in b)
            and all(same_json(a[key], b[key]) for key in a)
        )
    if a.__class__ is list:
        return len(a) == len(b) and all(map(same_json, a, b))
    return a == b and (a.__class__ is not float or repr(a) == repr(b))


def forge_sidecar(sidecar, edit, edit_header=dict) -> None:
    """Rewrite a checkpoint sidecar's state lines with ``edit`` and its header fields with ``edit_header``.

    The state digest is recomputed to match the new issue counters and state
    lines: it digests the canonical counters, a newline and the state lines.
    """
    header, *state = sidecar.read_text(encoding="utf-8").splitlines()
    body = "".join(line + "\n" for line in edit(state)).encode("utf-8")
    fields = edit_header(json.loads(header))
    counts = canonical_payload(fields.get("issue_counts")).encode("utf-8")
    fields["state_sha256"] = hashlib.sha256(counts + b"\n" + body).hexdigest()
    sidecar.write_bytes(canonical_payload(fields).encode("utf-8") + b"\n" + body)


@pytest.fixture
def lme_registry() -> Registry:
    registry = Registry()
    registry.register_issuer("LME", [1, 10, 100, 1000])
    return registry


@pytest.fixture
def lme_rules() -> DeliveryRules:
    return DeliveryRules(
        delivery_charge_ratio=0.003,
        withdrawal_charge_ratio=0.002,
        min_delivery_weight=1000,
        delivery_location="LME designated warehouse",
    )


@pytest.fixture
def lme_cert(lme_registry, lme_rules):
    return lme_registry.issue(
        issuer="LME",
        material="copper",
        face_weight=1000,
        purity=0.9999,
        issue_date=LME_ISSUE_DATE,
        theta=AttenuationSpec(theta_daily=0.99996),
        rules=lme_rules,
        owner="client-1",
    )
