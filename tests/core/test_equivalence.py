"""Integration tests: functional equivalence across system models.

The golden rule of the reproduction: splitting the SoC across the
simulator-accelerator boundary and changing the synchronisation scheme
(conservative, SLA, ALS, AUTO, any prediction accuracy) must never change the
committed bus traffic.  These tests compare the beat stream of every
configuration against the monolithic reference bus.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
)
from repro.sim.component import Domain
from repro.sim.kernel import CycleKernel
from repro.workloads import (
    als_streaming_soc,
    mixed_soc,
    single_master_soc,
    sla_streaming_soc,
    traces_equivalent,
)


def reference_recorder(spec, cycles):
    bus, _ = spec.build_reference()
    kernel = CycleKernel("reference")
    kernel.add_component(bus)
    kernel.run(cycles)
    assert bus.monitor.ok, [str(v) for v in bus.monitor.violations]
    return bus.recorder


def split_recorders(spec, mode, cycles, **kwargs):
    sim_hbm, acc_hbm, _ = spec.build_split()
    partition = {Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}
    config = CoEmulationConfig(mode=mode, total_cycles=cycles, **kwargs)
    if mode is OperatingMode.CONSERVATIVE:
        engine = ConventionalCoEmulation(partition, config)
    else:
        engine = OptimisticCoEmulation(partition, config)
    result = engine.run()
    assert result.monitors_ok
    return sim_hbm.recorder, acc_hbm.recorder


SPEC_FACTORIES = {
    "als_streaming": lambda: als_streaming_soc(n_bursts=10),
    "sla_streaming": lambda: sla_streaming_soc(n_bursts=10),
    "mixed": lambda: mixed_soc(n_transactions=24),
    "single_master": lambda: single_master_soc(n_bursts=8),
}


@pytest.mark.parametrize("spec_name", sorted(SPEC_FACTORIES))
def test_conventional_split_matches_reference(spec_name):
    factory = SPEC_FACTORIES[spec_name]
    cycles = 450
    reference = reference_recorder(factory(), cycles)
    sim_rec, acc_rec = split_recorders(factory(), OperatingMode.CONSERVATIVE, cycles)
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


@pytest.mark.parametrize("spec_name", sorted(SPEC_FACTORIES))
def test_als_split_matches_reference(spec_name):
    factory = SPEC_FACTORIES[spec_name]
    cycles = 450
    reference = reference_recorder(factory(), cycles)
    sim_rec, acc_rec = split_recorders(factory(), OperatingMode.ALS, cycles)
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


@pytest.mark.parametrize("spec_name", ["als_streaming", "sla_streaming", "mixed"])
def test_sla_split_matches_reference(spec_name):
    factory = SPEC_FACTORIES[spec_name]
    cycles = 450
    reference = reference_recorder(factory(), cycles)
    sim_rec, acc_rec = split_recorders(factory(), OperatingMode.SLA, cycles)
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


@pytest.mark.parametrize("spec_name", ["als_streaming", "mixed"])
def test_auto_split_matches_reference(spec_name):
    factory = SPEC_FACTORIES[spec_name]
    cycles = 450
    reference = reference_recorder(factory(), cycles)
    sim_rec, acc_rec = split_recorders(factory(), OperatingMode.AUTO, cycles)
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


@pytest.mark.parametrize("accuracy", [0.95, 0.8, 0.5, 0.2])
def test_forced_misprediction_never_breaks_equivalence(accuracy):
    """Injected prediction failures cost time but must never change results."""
    cycles = 400
    reference = reference_recorder(als_streaming_soc(n_bursts=10), cycles)
    sim_rec, acc_rec = split_recorders(
        als_streaming_soc(n_bursts=10),
        OperatingMode.ALS,
        cycles,
        forced_accuracy=accuracy,
        forced_accuracy_seed=accuracy_seed(accuracy),
    )
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


def accuracy_seed(accuracy: float) -> int:
    return int(accuracy * 1000) + 7


@pytest.mark.parametrize("lob_depth", [1, 4, 8, 64, 256])
def test_lob_depth_never_breaks_equivalence(lob_depth):
    cycles = 350
    reference = reference_recorder(als_streaming_soc(n_bursts=8), cycles)
    sim_rec, acc_rec = split_recorders(
        als_streaming_soc(n_bursts=8), OperatingMode.ALS, cycles, lob_depth=lob_depth
    )
    assert traces_equivalent(reference, [sim_rec, acc_rec]) is None


def test_memory_contents_match_reference_after_co_emulation():
    """Beyond the beat stream, the final memory images must agree."""
    cycles = 400
    ref_spec = als_streaming_soc(n_bursts=10)
    ref_bus, _ = ref_spec.build_reference()
    kernel = CycleKernel("reference")
    kernel.add_component(ref_bus)
    kernel.run(cycles)

    split_spec = als_streaming_soc(n_bursts=10)
    sim_hbm, acc_hbm, _ = split_spec.build_split()
    config = CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=cycles, forced_accuracy=0.85)
    OptimisticCoEmulation({Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}, config).run()

    for slave_id, ref_slave in ref_bus.slaves.items():
        if not hasattr(ref_slave, "read_word"):
            continue
        split_slave = sim_hbm.local_slaves.get(slave_id) or acc_hbm.local_slaves.get(slave_id)
        assert split_slave is not None
        for offset in range(0, ref_slave.size_bytes, 4):
            address = ref_slave.base_address + offset
            assert split_slave.read_word(address) == ref_slave.read_word(address), hex(address)
