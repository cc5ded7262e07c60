"""Tests for the scenario catalog."""

from __future__ import annotations

import pytest

from repro.core import CoEmulationConfig, OperatingMode, create_engine
from repro.workloads import SocSpec, als_streaming_soc
from repro.workloads.catalog import (
    ScenarioCatalogError,
    build_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)


def test_catalog_has_at_least_eight_scenarios():
    names = scenario_names()
    assert len(names) >= 8
    assert len(set(names)) == len(names)
    # the paper-era trio is preserved
    assert {"als_streaming", "sla_streaming", "mixed"} <= set(names)
    # the new traffic shapes exist
    assert {
        "multi_master_contention",
        "dma_burst_storm",
        "interrupt_control",
        "sparse_telemetry",
        "rmw_fifo",
    } <= set(names)
    # the multi-domain topologies exist
    assert {
        "dual_accelerator_pipeline",
        "accelerator_farm_4x",
        "sim_only_baseline",
    } <= set(names)


def test_every_scenario_builds_a_valid_spec():
    for info in list_scenarios():
        spec = info.builder()
        assert isinstance(spec, SocSpec)
        spec.validate()
        assert spec.description


def test_scenarios_are_sorted_and_tag_filtered():
    names = scenario_names()
    assert names == sorted(names)
    streaming = scenario_names(tag="paper")
    assert set(streaming) == {"als_streaming", "sla_streaming", "mixed"}
    assert scenario_names(tag="no-such-tag") == []


def test_build_scenario_forwards_builder_kwargs():
    small = build_scenario("als_streaming", n_bursts=2)
    big = build_scenario("als_streaming", n_bursts=20)
    assert len(small.masters[0].transactions()) < len(big.masters[0].transactions())


def test_registered_builder_matches_original():
    assert get_scenario("als_streaming").builder is als_streaming_soc


def test_unknown_scenario_raises():
    with pytest.raises(ScenarioCatalogError, match="unknown scenario"):
        build_scenario("not-a-scenario")


def test_duplicate_registration_rejected():
    with pytest.raises(ScenarioCatalogError, match="already registered"):
        register_scenario("mixed")(als_streaming_soc)


@pytest.mark.parametrize("name", scenario_names())
def test_new_scenarios_keep_functional_equivalence(name):
    """Every catalog scenario -- two-domain and multi-domain alike -- must
    produce identical committed traffic under the conservative and the
    optimistic schemes."""
    results = {}
    for mode in (OperatingMode.CONSERVATIVE, OperatingMode.ALS):
        spec = build_scenario(name)
        config = CoEmulationConfig(mode=mode, total_cycles=120, topology=spec.topology)
        partition = spec.build_partition()
        results[mode] = create_engine(config, partition=partition).run()
    conservative, optimistic = results[OperatingMode.CONSERVATIVE], results[OperatingMode.ALS]
    assert optimistic.domain_beat_keys == conservative.domain_beat_keys
    assert optimistic.sim_beat_keys == conservative.sim_beat_keys
    assert optimistic.acc_beat_keys == conservative.acc_beat_keys
    assert conservative.monitors_ok and optimistic.monitors_ok


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("mode", [OperatingMode.CONSERVATIVE, OperatingMode.ALS])
def test_batch_engines_are_bit_identical_on_every_scenario(name, mode):
    """The batch-stepped engines must reproduce the scalar engines bit for
    bit -- beat streams, statistics and modelled times down to the last float
    -- on every catalog scenario, ideal-channel and faulty alike."""
    digests = {}
    batch_preset = "conventional_batch" if mode is OperatingMode.CONSERVATIVE else "als_batch"
    for engine in (None, batch_preset):
        spec = build_scenario(name)
        config = CoEmulationConfig(mode=mode, total_cycles=120)
        config, partition = spec.prepare_run(config)
        result = create_engine(config, partition=partition, engine=engine).run()
        digests[engine] = repr(
            (
                sorted(result.domain_beat_keys.items()),
                result.committed_cycles,
                result.transitions,
                result.prediction,
                {k: repr(v) for k, v in result.per_cycle_times.items()},
                repr(result.total_modelled_time),
                result.channel.get("accesses"),
                result.channel.get("words"),
                repr(result.channel.get("total_time")),
                result.wasted_leader_cycles,
                result.monitors_ok,
            )
        )
    assert digests[batch_preset] == digests[None]


def test_faulty_tag_lists_the_degraded_scenarios():
    faulty = scenario_names(tag="faulty")
    assert set(faulty) == {"lossy_streaming", "bursty_link_mixed", "degraded_pipeline"}


@pytest.mark.parametrize(
    "name", ["lossy_streaming", "bursty_link_mixed", "degraded_pipeline"]
)
def test_faulty_scenarios_declare_non_ideal_channel_faults(name):
    spec = build_scenario(name)
    assert spec.channel_faults is not None
    assert not spec.channel_faults.is_ideal
    # the fault declaration survives the builder's kwargs path too
    assert get_scenario(name).description
