"""Multi-domain topology integration tests.

Covers the acceptance criteria of the topology refactor:

* the canonical two-domain topology routed through ``build_partition`` /
  ``create_engine(partition=...)`` is byte-identical to the historical
  ``build_split`` pair handed over as an explicit partition,
* the new multi-domain scenarios run under every relevant mode and stay
  functionally equivalent (the catalog equivalence test sweeps them too),
* per-domain ledger buckets and utilisation metrics,
* run-request topology overrides (serialisation, id stability),
* registry error reporting for unknown modes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.metrics import per_domain_utilisation
from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    DomainKind,
    DomainSpec,
    EngineRegistryError,
    OperatingMode,
    OptimisticCoEmulation,
    Topology,
    create_engine,
)
from repro.core.engine import _MODE_INDEX
from repro.orchestration import RunRequest, execute_request
from repro.sim.component import Domain
from repro.sim.time_model import DomainSpeed
from repro.workloads import build_scenario
from repro.workloads.catalog import (
    accelerator_farm_4x_soc,
    dual_accelerator_pipeline_soc,
    sim_only_baseline_soc,
)


def result_digest(result) -> str:
    payload = repr(
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
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("mode", [OperatingMode.CONSERVATIVE, OperatingMode.ALS])
@pytest.mark.parametrize("scenario", ["als_streaming", "mixed"])
def test_partition_path_is_byte_identical_to_legacy_split(scenario, mode):
    """Golden equivalence: the topology-aware partition path reproduces the
    legacy ``build_split`` pair bit for bit, including an explicit canonical
    topology on the config."""
    spec_a = build_scenario(scenario)
    sim_hbm, acc_hbm, _ = spec_a.build_split()
    split = {Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}
    config = CoEmulationConfig(mode=mode, total_cycles=300)
    if mode is OperatingMode.CONSERVATIVE:
        legacy = ConventionalCoEmulation(split, config).run()
    else:
        legacy = OptimisticCoEmulation(split, config).run()

    spec_b = build_scenario(scenario)
    explicit = CoEmulationConfig(
        mode=mode, total_cycles=300, topology=Topology.canonical_pair()
    )
    modern = create_engine(explicit, partition=spec_b.build_partition()).run()
    assert result_digest(modern) == result_digest(legacy)
    assert modern.sim_beat_keys == legacy.sim_beat_keys
    assert modern.acc_beat_keys == legacy.acc_beat_keys


def run_scenario(spec, mode: OperatingMode, cycles: int = 300, **config_kwargs):
    config = CoEmulationConfig(
        mode=mode, total_cycles=cycles, topology=spec.topology, **config_kwargs
    )
    return create_engine(config, partition=spec.build_partition()).run()


def test_dual_accelerator_pipeline_goes_optimistic_with_acc0_leading():
    result = run_scenario(dual_accelerator_pipeline_soc(), OperatingMode.ALS)
    assert result.transitions["transitions"] > 0
    assert set(result.transitions["leaders_used"]) == {"acc0"}
    assert result.monitors_ok
    # accelerator-to-accelerator traffic actually happened
    assert len(result.domain_beat_keys["acc1"]) > 0
    conservative = run_scenario(dual_accelerator_pipeline_soc(), OperatingMode.CONSERVATIVE)
    assert result.domain_beat_keys == conservative.domain_beat_keys
    assert result.performance_cycles_per_second > conservative.performance_cycles_per_second


def test_accelerator_farm_runs_n_way_lock_step_and_stays_equivalent():
    als = run_scenario(accelerator_farm_4x_soc(), OperatingMode.ALS)
    conservative = run_scenario(accelerator_farm_4x_soc(), OperatingMode.CONSERVATIVE)
    assert als.domain_beat_keys == conservative.domain_beat_keys
    assert set(als.domain_beat_keys) == {"simulator", "acc0", "acc1", "acc2", "acc3"}
    # With the activity gate (default) only active pairs exchange anything,
    # so the traffic is strictly below the one-access-per-ordered-pair
    # ceiling of the unconditional scheme.
    assert conservative.channel["accesses"] < 20 * conservative.committed_cycles
    assert "per_channel" in conservative.channel
    assert len(conservative.channel["per_channel"]) == 10  # C(5, 2) links


def test_accelerator_farm_ungated_pays_one_access_per_ordered_pair():
    """sync_gating=False restores the unconditional per-pair exchange: one
    access per ordered pair per cycle (N * (N-1) = 20), against 2 in the
    two-domain world -- and the functional result is identical either way."""
    gated = run_scenario(accelerator_farm_4x_soc(), OperatingMode.CONSERVATIVE)
    ungated = run_scenario(
        accelerator_farm_4x_soc(), OperatingMode.CONSERVATIVE, sync_gating=False
    )
    assert ungated.channel["accesses"] == 20 * ungated.committed_cycles
    assert gated.channel["accesses"] < ungated.channel["accesses"]
    assert gated.domain_beat_keys == ungated.domain_beat_keys
    assert gated.committed_cycles == ungated.committed_cycles


def test_star_topology_relays_leaf_to_leaf_traffic_through_the_hub():
    """A hub-and-spoke farm is runnable: pairs without a direct channel pay
    one access per hop through the hub, and functional behaviour matches the
    full-mesh run exactly."""
    star = Topology.star(
        DomainSpec(Domain.SIMULATOR, DomainKind.SIMULATOR),
        [
            DomainSpec(Domain("acc0"), DomainKind.ACCELERATOR),
            DomainSpec(Domain("acc1"), DomainKind.ACCELERATOR),
        ],
    )
    results = {}
    for label, topology in (("mesh", None), ("star", star)):
        spec = accelerator_farm_4x_soc(n_accelerators=2)
        config = CoEmulationConfig(
            mode=OperatingMode.CONSERVATIVE,
            total_cycles=200,
            topology=topology or spec.topology,
            sync_gating=False,  # pin the unconditional per-pair accounting
        )
        partition = spec.build_partition(config.resolve_topology())
        results[label] = create_engine(config, partition=partition).run()
    assert results["star"].domain_beat_keys == results["mesh"].domain_beat_keys
    # mesh: 6 ordered pairs = 6 accesses/cycle; star: the 2 leaf-to-leaf
    # pairs relay over 2 hops each = 8 accesses/cycle.
    assert results["mesh"].channel["accesses"] == 6 * 200
    assert results["star"].channel["accesses"] == 8 * 200
    assert len(results["star"].channel["per_channel"]) == 2  # hub links only
    # ALS over the star stays functionally equivalent too
    spec = accelerator_farm_4x_soc(n_accelerators=2)
    als = create_engine(
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=200, topology=star),
        partition=spec.build_partition(star),
    ).run()
    assert als.domain_beat_keys == results["mesh"].domain_beat_keys


def test_sim_only_baseline_never_touches_a_channel():
    for mode in (OperatingMode.CONSERVATIVE, OperatingMode.ALS, OperatingMode.AUTO):
        result = run_scenario(sim_only_baseline_soc(), mode, cycles=200)
        assert result.channel["accesses"] == 0
        assert result.committed_cycles == 200
        assert result.performance_cycles_per_second == pytest.approx(1_000_000.0)


def test_per_domain_ledger_buckets_and_utilisation():
    result = run_scenario(dual_accelerator_pipeline_soc(), OperatingMode.CONSERVATIVE)
    assert result.per_cycle_times["acc0"] > 0
    assert result.per_cycle_times["acc1"] > 0
    shares = per_domain_utilisation(result.per_cycle_times)
    assert {"simulator", "acc0", "acc1"} <= set(shares)
    assert all(0.0 <= share <= 1.0 for share in shares.values())
    assert sum(shares.values()) < 1.0  # the rest is channel + checkpoint overhead


def test_per_domain_speed_override_through_the_topology():
    fast = Topology(
        domains=(
            DomainSpec(Domain.SIMULATOR, DomainKind.SIMULATOR),
            DomainSpec(Domain.ACCELERATOR, DomainKind.ACCELERATOR),
        )
    )
    spec = build_scenario("single_master")
    baseline = create_engine(
        CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=100, topology=fast),
        partition=spec.build_partition(),
    ).run()
    slow = Topology(
        domains=(
            DomainSpec(Domain.SIMULATOR, DomainKind.SIMULATOR, speed=DomainSpeed(1_000.0)),
            DomainSpec(Domain.ACCELERATOR, DomainKind.ACCELERATOR),
        )
    )
    throttled = create_engine(
        CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=100, topology=slow),
        partition=build_scenario("single_master").build_partition(),
    ).run()
    assert throttled.per_cycle_times["simulator"] > baseline.per_cycle_times["simulator"]


# ---------------------------------------------------------------------------
# Run-request topology overrides.
# ---------------------------------------------------------------------------


def test_request_payload_omits_topology_when_unset():
    request = RunRequest(scenario="als_streaming", mode="als", cycles=50)
    assert "topology" not in request.as_dict()
    overridden = RunRequest(
        scenario="als_streaming",
        mode="als",
        cycles=50,
        topology=Topology.canonical_pair().as_dict(),
    )
    assert "topology" in overridden.as_dict()
    assert overridden.request_id != request.request_id


def test_execute_request_uses_scenario_topology_and_override():
    record = execute_request(
        RunRequest(scenario="dual_accelerator_pipeline", mode="als", cycles=120)
    )
    assert record.per_cycle_times["acc0"] > 0
    assert record.monitors_ok
    # explicit override: run the canonical-pair scenario on a custom topology
    # with a renamed accelerator domain
    custom = Topology(
        domains=(
            DomainSpec(Domain.SIMULATOR, DomainKind.SIMULATOR),
            DomainSpec(Domain.ACCELERATOR, DomainKind.ACCELERATOR),
        )
    ).as_dict()
    record = execute_request(
        RunRequest(scenario="single_master", mode="als", cycles=80, topology=custom)
    )
    assert record.committed_cycles == 80


def test_multidomain_requests_roundtrip_through_pickle():
    """Requests must stay picklable (multiprocessing fan-out) with topologies."""
    import pickle

    request = RunRequest(
        scenario="accelerator_farm_4x",
        mode="conservative",
        cycles=60,
        topology=build_scenario("accelerator_farm_4x").topology.as_dict(),
    )
    clone = pickle.loads(pickle.dumps(request))
    assert clone.request_id == request.request_id
    record_a = execute_request(request)
    record_b = execute_request(clone)
    assert record_a.digest == record_b.digest


# ---------------------------------------------------------------------------
# Registry error reporting.
# ---------------------------------------------------------------------------


def test_create_engine_unknown_mode_lists_registered_engines(monkeypatch):
    config = CoEmulationConfig(mode=OperatingMode.AUTO, total_cycles=10)
    monkeypatch.delitem(_MODE_INDEX, OperatingMode.AUTO)
    spec = build_scenario("single_master")
    with pytest.raises(EngineRegistryError) as excinfo:
        create_engine(config, partition=spec.build_partition())
    message = str(excinfo.value)
    assert "no engine registered for operating mode 'auto'" in message
    assert "conventional (conservative)" in message
    assert "optimistic (sla, als" in message
    assert "analytical (no modes" in message


def test_engine_rejects_partition_topology_mismatch():
    spec = build_scenario("dual_accelerator_pipeline")
    partition = spec.build_partition()
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=10)
    with pytest.raises(ValueError, match="do not match"):
        ConventionalCoEmulation(partition, config)  # canonical topology, 3-domain partition
