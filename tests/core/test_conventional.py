"""Tests of the conventional (lock-step) co-emulation engine."""

from __future__ import annotations

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    conventional_performance,
)
from repro.core.analytical import AnalyticalConfig
from repro.sim.component import Domain


def run_conventional(spec, cycles=200, **kwargs):
    sim_hbm, acc_hbm, masters = spec.build_split()
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=cycles, **kwargs)
    engine = ConventionalCoEmulation({Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}, config)
    result = engine.run()
    return result, sim_hbm, acc_hbm, masters


def test_two_channel_accesses_per_cycle(als_spec):
    result, _, _, _ = run_conventional(als_spec, cycles=150)
    assert result.committed_cycles == 150
    assert result.channel["accesses"] == 2 * 150
    assert result.channel["sim_to_acc_accesses"] == 150
    assert result.channel["acc_to_sim_accesses"] == 150


def test_performance_matches_analytical_conventional_model(als_spec):
    result, _, _, _ = run_conventional(als_spec, cycles=300)
    analytical = conventional_performance(AnalyticalConfig())
    # The mechanism-level payload sizes differ slightly from the analytical
    # 2-words-per-direction assumption, but the startup overhead dominates,
    # so the two agree within a few percent.
    assert result.performance_cycles_per_second == pytest.approx(analytical, rel=0.05)


def test_per_cycle_breakdown_matches_configuration(als_spec):
    result, _, _, _ = run_conventional(als_spec, cycles=100)
    assert result.tsim == pytest.approx(1e-6, rel=1e-6)
    assert result.tacc == pytest.approx(1e-7, rel=1e-6)
    assert result.tstore == 0.0
    assert result.trestore == 0.0
    assert result.tchannel > 2 * 12.2e-6 * 0.99


def test_workload_completes_and_monitors_stay_clean(als_spec):
    result, sim_hbm, acc_hbm, masters = run_conventional(als_spec, cycles=400)
    assert result.monitors_ok
    assert all(master.done for master in masters.values())
    assert len(result.sim_beat_keys) == len(result.acc_beat_keys) > 0


def test_stop_when_workload_done_ends_early(single_master_spec):
    result, _, _, masters = run_conventional(
        single_master_spec, cycles=5000, stop_when_workload_done=True
    )
    assert all(master.done for master in masters.values())
    assert result.committed_cycles < 5000


def test_sla_oriented_soc_also_runs_conservatively(sla_spec):
    result, _, _, masters = run_conventional(sla_spec, cycles=400)
    assert result.monitors_ok
    assert all(master.done for master in masters.values())


def test_slower_simulator_lowers_performance(als_spec):
    from repro.sim.time_model import DomainSpeed

    fast, _, _, _ = run_conventional(als_spec, cycles=100)
    slow, _, _, _ = run_conventional(
        als_spec, cycles=100, simulator_speed=DomainSpeed(100_000.0)
    )
    assert slow.performance_cycles_per_second < fast.performance_cycles_per_second
    assert slow.performance_cycles_per_second == pytest.approx(28.8e3, rel=0.05)


def test_summary_row_is_flat_and_complete(als_spec):
    result, _, _, _ = run_conventional(als_spec, cycles=50)
    row = result.summary_row()
    for key in ("mode", "cycles", "Tsim", "Tacc", "Tch", "performance", "channel_accesses"):
        assert key in row
    assert row["mode"] == "conservative"
    assert row["cycles"] == 50


def test_engine_rejects_swapped_half_bus_arguments(als_spec):
    sim_hbm, acc_hbm, _ = als_spec.build_split()
    swapped = {Domain.SIMULATOR: acc_hbm, Domain.ACCELERATOR: sim_hbm}
    with pytest.raises(ValueError, match="holds a half bus built for domain"):
        ConventionalCoEmulation(swapped, CoEmulationConfig(total_cycles=10))


def test_config_validation():
    with pytest.raises(ValueError):
        CoEmulationConfig(total_cycles=0)
    with pytest.raises(ValueError):
        CoEmulationConfig(lob_depth=0)
    with pytest.raises(ValueError):
        CoEmulationConfig(forced_accuracy=1.5)
