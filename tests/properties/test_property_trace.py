"""Property-based equivalence: trace-replay engines vs their scalar twins.

The periodic trace-replay presets (``conventional_trace`` / ``als_trace``)
fast-forward verified steady-state periods through a cycle-pattern cache,
but claim the same contract as the batch kernels: *bit-identity* with the
scalar engines on every digest field -- beat streams, transition and
prediction statistics, per-cycle modelled times down to the last float ulp,
channel counters.  These properties throw randomised workloads (periodic
streaming and arbitrary traffic alike), LOB depths, topology sizes and
channel-fault schedules at that claim, and pin the refusal envelope: replay
must never silently engage outside the configurations it was verified for.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.faults import ChannelDegradedError, ChannelFaultConfig
from repro.core import CoEmulationConfig, OperatingMode
from repro.core.engine import create_engine
from repro.workloads.catalog import accelerator_farm_4x_soc, sim_only_baseline_soc
from repro.workloads.soc import als_streaming_soc

from .test_property_equivalence import make_spec


def full_digest(result) -> str:
    """Every field the golden digests hash, rendered bit-exactly."""
    return repr(
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


def run_spec(spec, trace_replay, **config_kwargs):
    config = CoEmulationConfig(**config_kwargs)
    config, partition = spec.prepare_run(config)
    engine = None
    if trace_replay:
        conservative = config.mode is OperatingMode.CONSERVATIVE
        engine = "conventional_trace" if conservative else "als_trace"
    return create_engine(config, partition=partition, engine=engine).run()


def assert_trace_bit_identical(spec_factory, **config_kwargs):
    scalar = run_spec(spec_factory(), False, **config_kwargs)
    traced = run_spec(spec_factory(), True, **config_kwargs)
    assert full_digest(traced) == full_digest(scalar)
    return traced


@given(
    n_bursts=st.integers(min_value=1, max_value=60),
    issue_gap=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    lob_depth=st.sampled_from([2, 8, 64]),
    total_cycles=st.integers(min_value=50, max_value=400),
)
@settings(max_examples=20, deadline=None)
def test_trace_replay_is_bit_identical_on_random_periodic_streams(
    n_bursts, issue_gap, seed, lob_depth, total_cycles
):
    """The workload family replay targets: steady streaming bursts whose
    period depends on burst count, issue gap and seed."""
    assert_trace_bit_identical(
        lambda: als_streaming_soc(n_bursts=n_bursts, issue_gap=issue_gap, seed=seed),
        mode=OperatingMode.CONSERVATIVE,
        total_cycles=total_cycles,
        lob_depth=lob_depth,
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(
        [
            OperatingMode.CONSERVATIVE,
            OperatingMode.ALS,
            OperatingMode.SLA,
            OperatingMode.AUTO,
        ]
    ),
    lob_depth=st.sampled_from([2, 8, 64]),
    accuracy=st.one_of(st.none(), st.floats(min_value=0.3, max_value=0.99)),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_trace_replay_is_bit_identical_on_random_workloads(
    seed, mode, lob_depth, accuracy, acc_writes_to_sim
):
    """Arbitrary (not necessarily periodic) traffic: replay either engages
    correctly or refuses -- the digest must not notice either way."""
    assert_trace_bit_identical(
        lambda: make_spec(seed, acc_writes_to_sim),
        mode=mode,
        total_cycles=180,
        lob_depth=lob_depth,
        forced_accuracy=accuracy,
        forced_accuracy_seed=seed,
    )


@given(
    n_domains=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from([OperatingMode.CONSERVATIVE, OperatingMode.ALS]),
)
@settings(max_examples=15, deadline=None)
def test_trace_replay_refuses_non_canonical_topologies(n_domains, seed, mode):
    """Replay is only verified for the canonical two-domain layout; any other
    topology must disable it with the structured reason -- and stay
    bit-identical scalar."""
    if n_domains == 1:
        factory = lambda: sim_only_baseline_soc(seed=seed)
    else:
        factory = lambda: accelerator_farm_4x_soc(
            n_accelerators=n_domains - 1, n_bursts=4, seed=seed
        )
    traced = assert_trace_bit_identical(factory, mode=mode, total_cycles=200)
    if n_domains != 2:
        assert not traced.trace_replay["enabled"]
        # ALS engines refuse for predictor training before probing topology.
        reason = "predictor_training" if mode is OperatingMode.ALS else "topology"
        assert traced.trace_replay["bailouts"] == {reason: 1}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss_rate=st.floats(min_value=0.0, max_value=0.2),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.1),
    reorder_rate=st.floats(min_value=0.0, max_value=0.1),
    mode=st.sampled_from([OperatingMode.CONSERVATIVE, OperatingMode.ALS]),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_trace_replay_refuses_faulty_channels(
    seed, loss_rate, duplicate_rate, reorder_rate, mode, acc_writes_to_sim
):
    """Fault injection perturbs per-cycle channel timing, which the per-period
    closed-form bookkeeping cannot reproduce -- replay must sit out entirely
    rather than approximate."""

    def factory():
        spec = make_spec(seed, acc_writes_to_sim)
        spec.channel_faults = ChannelFaultConfig(
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
            reorder_rate=reorder_rate,
            jitter_mean=0.3e-6,
            jitter_spread=0.5e-6,
            seed=seed + 13,
        )
        return spec

    # A lossy draw may legitimately degrade the link past its give-up
    # threshold; the typed ChannelDegradedError is then the run's outcome,
    # and both engines must reach the same one.
    outcomes = []
    for trace_replay in (False, True):
        config, partition = factory().prepare_run(
            CoEmulationConfig(mode=mode, total_cycles=180)
        )
        engine = None
        if trace_replay:
            conservative = config.mode is OperatingMode.CONSERVATIVE
            engine = "conventional_trace" if conservative else "als_trace"
        engine = create_engine(config, partition=partition, engine=engine)
        try:
            outcomes.append(full_digest(engine.run()))
        except ChannelDegradedError as exc:
            outcomes.append(("degraded", str(exc)))
    assert outcomes[0] == outcomes[1]
    stats = engine.replay.stats
    assert not stats.enabled
    # ALS engines refuse for predictor training before probing the channel.
    reason = "predictor_training" if mode is OperatingMode.ALS else "channel_faults"
    assert stats.bailouts == {reason: 1}
