"""Unit tests for the wall-clock ledger and execution cost models."""

from __future__ import annotations

import pytest

from repro.sim.time_model import (
    DEFAULT_ACCELERATOR_SPEED,
    DEFAULT_SIMULATOR_SPEED,
    DomainSpeed,
    ExecutionCostModel,
    LedgerError,
    SLOW_SIMULATOR_SPEED,
    WallClockLedger,
    summarize_ledgers,
)


def test_domain_speed_reciprocal():
    speed = DomainSpeed(1_000_000.0)
    assert speed.seconds_per_cycle == pytest.approx(1e-6)


def test_domain_speed_rejects_nonpositive():
    with pytest.raises(ValueError):
        DomainSpeed(0.0)


def test_paper_default_speeds():
    assert DEFAULT_SIMULATOR_SPEED.cycles_per_second == 1_000_000.0
    assert SLOW_SIMULATOR_SPEED.cycles_per_second == 100_000.0
    assert DEFAULT_ACCELERATOR_SPEED.cycles_per_second == 10_000_000.0


def test_ledger_charges_and_per_cycle_breakdown():
    ledger = WallClockLedger()
    ledger.charge("simulator", 2e-3)
    ledger.charge("channel", 1e-3)
    ledger.commit_cycles(1000)
    assert ledger.per_cycle("simulator") == pytest.approx(2e-6)
    assert ledger.per_cycle("channel") == pytest.approx(1e-6)
    assert ledger.per_cycle("accelerator") == 0.0
    assert ledger.total_seconds == pytest.approx(3e-3)


def test_ledger_performance_is_cycles_over_time():
    ledger = WallClockLedger()
    ledger.charge("simulator", 0.5)
    ledger.commit_cycles(1000)
    assert ledger.performance_cycles_per_second == pytest.approx(2000.0)


def test_ledger_rejects_unknown_category_and_negative_charges():
    ledger = WallClockLedger()
    with pytest.raises(LedgerError):
        ledger.charge("bogus", 1.0)
    with pytest.raises(LedgerError):
        ledger.charge("simulator", -1.0)
    with pytest.raises(LedgerError):
        ledger.commit_cycles(-5)


def test_ledger_with_no_cycles_reports_zero_per_cycle_and_inf_perf():
    ledger = WallClockLedger()
    assert ledger.per_cycle("simulator") == 0.0
    assert ledger.performance_cycles_per_second == float("inf")


def test_execution_cost_model_charges_at_domain_speed():
    ledger = WallClockLedger()
    cost = ExecutionCostModel(ledger, "accelerator", DomainSpeed(10_000_000.0))
    seconds = cost.charge_cycles(100)
    assert seconds == pytest.approx(1e-5)
    assert ledger.buckets["accelerator"] == pytest.approx(1e-5)
    assert cost.cycles_charged == 100


def test_execution_cost_model_batched_charge_is_the_sequential_fold():
    batched, single = WallClockLedger(), WallClockLedger()
    speed = DomainSpeed(3_000_000.0)
    at_once = ExecutionCostModel(batched, "simulator", speed)
    one_by_one = ExecutionCostModel(single, "simulator", speed)
    batched.buckets["simulator"] = single.buckets["simulator"] = 0.1
    at_once.charge_cycles(1000)
    for _ in range(1000):
        one_by_one.charge_cycles(1)
    assert repr(batched.buckets["simulator"]) == repr(single.buckets["simulator"])
    assert at_once.cycles_charged == one_by_one.cycles_charged == 1000


def test_execution_cost_model_zero_count_books_nothing():
    ledger = WallClockLedger()
    ledger.buckets["simulator"] = 0.25
    cost = ExecutionCostModel(ledger, "simulator", DomainSpeed(3_000_000.0))
    assert cost.charge_cycles(0) == 0.0
    assert ledger.buckets["simulator"] == 0.25
    assert cost.cycles_charged == 0


def test_execution_cost_model_rejects_negative_counts():
    cost = ExecutionCostModel(WallClockLedger(), "simulator", DomainSpeed(1e6))
    with pytest.raises(LedgerError):
        cost.charge_cycles(-1)


def test_ledger_merge_adds_buckets_but_not_cycles():
    first, second = WallClockLedger(), WallClockLedger()
    first.charge("channel", 1.0)
    second.charge("channel", 2.0)
    second.commit_cycles(10)
    first.merge(second)
    assert first.buckets["channel"] == pytest.approx(3.0)
    assert first.committed_cycles == 0


def test_summarize_ledgers_combines_time_and_cycles():
    ledgers = []
    for index in range(3):
        ledger = WallClockLedger()
        ledger.charge("simulator", 0.1 * (index + 1))
        ledger.commit_cycles(100)
        ledgers.append(ledger)
    combined = summarize_ledgers(ledgers)
    assert combined.committed_cycles == 300
    assert combined.buckets["simulator"] == pytest.approx(0.6)


def test_reset_clears_buckets_and_cycles():
    ledger = WallClockLedger()
    ledger.charge("other", 1.0)
    ledger.commit_cycles(5)
    ledger.reset()
    assert ledger.total_seconds == 0.0
    assert ledger.committed_cycles == 0


def test_as_dict_contains_summary_fields():
    ledger = WallClockLedger()
    ledger.charge("simulator", 1.0)
    ledger.commit_cycles(10)
    payload = ledger.as_dict()
    assert payload["committed_cycles"] == 10
    assert payload["performance"] == pytest.approx(10.0)
    assert payload["simulator"] == pytest.approx(1.0)
