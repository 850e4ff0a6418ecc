"""Small-size self-test of the benchmark: ``python3 -m pytest -q perfbench``.

Runs every workload, including ``ledger_replay``, which BENCHMARK.json does
not gate, at 2% of its size for half a second, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, every time
metric also as a raw figure beside its reference-millisecond one.  Then flips
one byte of each workload's ledger and checks that the workload counts the
damage as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name: str, trace: bool = False, tamper: bool = False) -> tuple[dict, dict]:
    return run.run(name, 5, 0.5, trace, scale=0.02, tamper=tamper)


def emitted(result: dict) -> dict[str, str]:
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_end_to_end_metric_has_its_unit(name):
    result, detail = small(name)
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert detail["failed_frac"] == result["failed"] / result["attempted"]
    assert {"python", "git_sha", "nproc", "why", "bypasses"} <= detail.keys()
    assert detail["raw"].keys() == result["metrics"].keys() - {"peak_rss_mb"}


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_per_layer_metric_has_its_unit(name):
    result, _ = small(name, trace=True)
    assert emitted(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["correct"] is True


@pytest.mark.parametrize("name", WORKLOADS)
def test_flipped_byte_counts_as_failure(name):
    result, detail = small(name, tamper=True)
    assert result["failed"] > 0
    assert detail["failures_by_kind"]


def test_without_a_package_the_command_exits_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "ledger_replay", "--seed", "1", "--seconds", "1"]) != 0
