"""Tests of the optimistic (prediction packetizing) co-emulation engine."""

from __future__ import annotations

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
)
from repro.core.optimistic import CwPath
from repro.sim.component import Domain
from repro.workloads import single_master_soc


def run_optimistic(spec, mode=OperatingMode.ALS, cycles=300, trace=False, **kwargs):
    sim_hbm, acc_hbm, masters = spec.build_split()
    config = CoEmulationConfig(mode=mode, total_cycles=cycles, **kwargs)
    engine = OptimisticCoEmulation({Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}, config, trace_paths=trace)
    result = engine.run()
    return result, engine, masters


def run_conventional(spec, cycles=300, **kwargs):
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=cycles, **kwargs)
    return ConventionalCoEmulation(spec.build_partition(), config).run()


class TestAlsBasics:
    def test_conservative_mode_is_rejected(self, als_spec):
        with pytest.raises(ValueError):
            OptimisticCoEmulation(
                als_spec.build_partition(), CoEmulationConfig(mode=OperatingMode.CONSERVATIVE)
            )

    def test_runs_requested_number_of_cycles(self, als_spec):
        result, _, _ = run_optimistic(als_spec, cycles=250)
        assert result.committed_cycles >= 250

    def test_channel_accesses_are_dramatically_reduced(self, als_spec):
        optimistic, _, _ = run_optimistic(als_spec, cycles=300)
        conventional = run_conventional(als_spec, cycles=300)
        assert optimistic.channel["accesses"] < conventional.channel["accesses"] / 5

    def test_performance_gain_over_conventional(self, als_spec):
        optimistic, _, _ = run_optimistic(als_spec, cycles=300)
        conventional = run_conventional(als_spec, cycles=300)
        assert optimistic.speedup_over(conventional) > 5.0

    def test_predictions_are_actually_made_and_correct(self, als_spec):
        result, _, _ = run_optimistic(als_spec, cycles=300)
        assert result.prediction["predictions_checked"] > 100
        assert result.prediction["accuracy"] > 0.95
        assert result.transitions["transitions"] > 0

    def test_functional_equivalence_with_conventional_run(self, als_spec):
        optimistic, engine, _ = run_optimistic(als_spec, cycles=400)
        conventional = run_conventional(als_spec, cycles=400)
        assert optimistic.sim_beat_keys == conventional.sim_beat_keys
        assert optimistic.monitors_ok

    def test_lagger_and_leader_recorders_agree(self, als_spec):
        result, engine, _ = run_optimistic(als_spec, cycles=300)
        assert engine.sim_host.hbm.recorder.beat_keys() == engine.acc_host.hbm.recorder.beat_keys()

    def test_domains_are_synchronized_at_the_end(self, als_spec):
        _, engine, _ = run_optimistic(als_spec, cycles=300)
        assert engine.sim_host.current_cycle == engine.acc_host.current_cycle
        assert engine.sim_host.hbm.core.granted_master == engine.acc_host.hbm.core.granted_master


class TestForcedAccuracy:
    def test_injected_failures_cause_rollbacks_but_keep_correctness(self, als_spec):
        forced, engine, _ = run_optimistic(als_spec, cycles=300, forced_accuracy=0.8)
        conventional = run_conventional(als_spec, cycles=300)
        assert forced.transitions["rollbacks"] > 0
        assert forced.sim_beat_keys == conventional.sim_beat_keys
        assert forced.monitors_ok

    def test_lower_accuracy_means_lower_performance(self, als_spec):
        high, _, _ = run_optimistic(als_spec, cycles=300, forced_accuracy=0.99)
        low, _, _ = run_optimistic(als_spec, cycles=300, forced_accuracy=0.5)
        assert low.performance_cycles_per_second < high.performance_cycles_per_second

    def test_measured_accuracy_tracks_forced_accuracy(self, als_spec):
        result, _, _ = run_optimistic(als_spec, cycles=600, forced_accuracy=0.9)
        assert result.prediction["accuracy"] == pytest.approx(0.9, abs=0.06)

    def test_state_restore_time_is_charged_on_rollbacks(self, als_spec):
        result, _, _ = run_optimistic(als_spec, cycles=300, forced_accuracy=0.7)
        assert result.trestore > 0
        assert result.tstore > 0

    def test_forced_runs_are_reproducible_with_same_seed(self, als_spec):
        first, _, _ = run_optimistic(
            als_spec, cycles=200, forced_accuracy=0.8, forced_accuracy_seed=11
        )
        second, _, _ = run_optimistic(
            als_spec, cycles=200, forced_accuracy=0.8, forced_accuracy_seed=11
        )
        assert first.performance_cycles_per_second == pytest.approx(
            second.performance_cycles_per_second
        )
        assert first.transitions["rollbacks"] == second.transitions["rollbacks"]


class TestLobDepth:
    def test_run_ahead_is_bounded_by_lob_depth(self, als_spec):
        result, engine, _ = run_optimistic(als_spec, cycles=300, lob_depth=8)
        assert result.lob["max_occupancy_seen"] <= 8
        assert all(r.run_ahead_cycles <= 8 for r in engine.transitions.records)

    def test_deeper_lob_reduces_channel_accesses_at_high_accuracy(self, als_spec):
        shallow, _, _ = run_optimistic(als_spec, cycles=300, lob_depth=8)
        deep, _, _ = run_optimistic(als_spec, cycles=300, lob_depth=64)
        assert deep.channel["accesses"] < shallow.channel["accesses"]

    def test_deep_lob_hurts_at_low_accuracy(self, als_spec):
        shallow, _, _ = run_optimistic(
            als_spec, cycles=300, lob_depth=8, forced_accuracy=0.3
        )
        deep, _, _ = run_optimistic(
            als_spec, cycles=300, lob_depth=64, forced_accuracy=0.3
        )
        assert shallow.performance_cycles_per_second > deep.performance_cycles_per_second


class TestSlaAndAuto:
    def test_sla_leads_with_the_simulator(self, sla_spec):
        result, engine, masters = run_optimistic(sla_spec, mode=OperatingMode.SLA, cycles=400)
        assert result.transitions["leaders_used"].get("simulator", 0) > 0
        assert result.transitions["leaders_used"].get("accelerator", 0) == 0
        assert result.monitors_ok

    def test_sla_equivalent_to_conventional(self, sla_spec):
        optimistic, _, _ = run_optimistic(sla_spec, mode=OperatingMode.SLA, cycles=400)
        conventional = run_conventional(sla_spec, cycles=400)
        assert optimistic.sim_beat_keys == conventional.sim_beat_keys

    def test_auto_mode_runs_mixed_traffic_correctly(self, mixed_spec):
        optimistic, _, _ = run_optimistic(mixed_spec, mode=OperatingMode.AUTO, cycles=500)
        conventional = run_conventional(mixed_spec, cycles=500)
        assert optimistic.sim_beat_keys == conventional.sim_beat_keys
        assert optimistic.monitors_ok

    def test_als_on_sla_oriented_traffic_falls_back_to_conservative_cycles(self, sla_spec):
        """With the data source in the simulator, the accelerator-led mode
        cannot predict the write data and must synchronise often."""
        result, _, _ = run_optimistic(sla_spec, mode=OperatingMode.ALS, cycles=400)
        assert result.transitions["conservative_cycles"] > 50


class TestPathTrace:
    def test_trace_contains_prediction_and_lagger_paths(self, als_spec):
        _, engine, _ = run_optimistic(als_spec, cycles=200, trace=True)
        acc_paths = set(engine.trace.paths_for(Domain.ACCELERATOR))
        sim_paths = set(engine.trace.paths_for(Domain.SIMULATOR))
        assert CwPath.PREDICTION in acc_paths  # the leader runs ahead
        assert CwPath.SYNCHRONIZATION in acc_paths  # and flushes
        assert CwPath.LAGGER in sim_paths  # the lagger follows up
        assert CwPath.CONSERVATIVE in sim_paths

    def test_roll_forth_paths_appear_when_predictions_fail(self, als_spec):
        _, engine, _ = run_optimistic(
            als_spec, cycles=200, trace=True, forced_accuracy=0.7
        )
        acc_paths = set(engine.trace.paths_for(Domain.ACCELERATOR))
        assert CwPath.ROLL_FORTH in acc_paths

    def test_trace_disabled_by_default(self, als_spec):
        _, engine, _ = run_optimistic(als_spec, cycles=100)
        assert engine.trace.entries == []


class TestDegenerateCases:
    def test_read_heavy_remote_traffic_forces_conservative_operation(self):
        """A single master reading from a remote memory can never be led by
        the accelerator (read data is non-predictable), so the engine must
        degrade gracefully to mostly conservative cycles."""
        spec = single_master_soc(
            master_domain=Domain.ACCELERATOR,
            slave_domain=Domain.SIMULATOR,
            write=False,
            n_bursts=4,
        )
        result, _, masters = run_optimistic(spec, cycles=200)
        conventional = run_conventional(spec, cycles=200)
        assert result.sim_beat_keys == conventional.sim_beat_keys
        # every cycle in which the read bursts were on the bus had to be
        # synchronised conventionally
        assert result.transitions["conservative_cycles"] >= 30
        assert result.prediction["unpredictable_cycles"] > 0

    def test_single_cycle_runs(self, als_spec):
        result, _, _ = run_optimistic(als_spec, cycles=1)
        assert result.committed_cycles >= 1
