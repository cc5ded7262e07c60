"""Tests for the co-emulation result containers and engine bookkeeping."""

from __future__ import annotations

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
)
from repro.workloads import als_streaming_soc


@pytest.fixture(scope="module")
def als_results():
    optimistic = OptimisticCoEmulation(
        als_streaming_soc(n_bursts=8).build_partition(),
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=300),
    ).run()
    conventional = ConventionalCoEmulation(
        als_streaming_soc(n_bursts=8).build_partition(),
        CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=300),
    ).run()
    return optimistic, conventional


def test_per_cycle_times_sum_to_total(als_results):
    optimistic, _ = als_results
    total = sum(optimistic.per_cycle_times.values()) * optimistic.committed_cycles
    assert total == pytest.approx(optimistic.total_modelled_time, rel=1e-9)


def test_performance_is_reciprocal_of_per_cycle_total(als_results):
    optimistic, _ = als_results
    per_cycle = sum(optimistic.per_cycle_times.values())
    assert optimistic.performance_cycles_per_second == pytest.approx(1.0 / per_cycle, rel=1e-9)


def test_property_accessors_match_breakdown(als_results):
    optimistic, _ = als_results
    assert optimistic.tsim == optimistic.per_cycle_times["simulator"]
    assert optimistic.tacc == optimistic.per_cycle_times["accelerator"]
    assert optimistic.tstore == optimistic.per_cycle_times["state_store"]
    assert optimistic.trestore == optimistic.per_cycle_times["state_restore"]
    assert optimistic.tchannel == optimistic.per_cycle_times["channel"]


def test_speedup_over_is_symmetric_inverse(als_results):
    optimistic, conventional = als_results
    forward = optimistic.speedup_over(conventional)
    backward = conventional.speedup_over(optimistic)
    assert forward * backward == pytest.approx(1.0, rel=1e-9)
    assert forward > 1.0


def test_lob_stats_propagated_into_result(als_results):
    optimistic, _ = als_results
    assert optimistic.lob["flushes"] == optimistic.transitions["transitions"] - optimistic.transitions["degenerate_transitions"]
    assert optimistic.lob["entries_flushed"] >= optimistic.lob["flushes"]
    assert optimistic.lob["max_occupancy_seen"] <= 64


def test_transition_accounting_consistent_with_committed_cycles(als_results):
    optimistic, _ = als_results
    committed_by_transitions = optimistic.transitions["mean_committed_per_transition"] * (
        optimistic.transitions["transitions"]
    )
    total = committed_by_transitions + optimistic.transitions["conservative_cycles"]
    assert total == pytest.approx(optimistic.committed_cycles, rel=1e-9)


def test_channel_purpose_breakdown_present(als_results):
    optimistic, conventional = als_results
    assert "lob_flush" in optimistic.channel["per_purpose"]
    assert optimistic.channel["per_purpose"]["lob_flush"] >= 1
    assert set(conventional.channel["per_purpose"]) == {
        "conservative_drive",
        "conservative_reply",
    }


def test_wasted_leader_cycles_zero_without_mispredictions(als_results):
    optimistic, _ = als_results
    assert optimistic.transitions["rollbacks"] == 0
    assert optimistic.wasted_leader_cycles == 0


def test_conventional_result_has_no_transitions(als_results):
    _, conventional = als_results
    assert conventional.transitions["transitions"] == 0
    assert conventional.lob == {}
    assert conventional.prediction["predictions_made"] == 0
