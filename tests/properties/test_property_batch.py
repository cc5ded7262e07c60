"""Property-based equivalence: batch-stepped engines vs their scalar twins.

The batch-stepping kernel (``conventional_batch`` / ``als_batch``) claims
*bit-identity*, not just functional equivalence: every digest field the
golden regression hashes -- beat streams, transition and prediction
statistics, per-cycle modelled times down to the last float ulp, channel
counters -- must match the scalar engines exactly, for any workload, any
scheme parameters, any topology size and any channel fault schedule.  These
properties throw randomised configurations at that claim.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel.faults import ChannelDegradedError, ChannelFaultConfig
from repro.core import CoEmulationConfig, OperatingMode
from repro.core.engine import create_engine
from repro.workloads.catalog import accelerator_farm_4x_soc, sim_only_baseline_soc

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


def run_spec(spec, batch_stepping, **config_kwargs):
    config = CoEmulationConfig(**config_kwargs)
    config, partition = spec.prepare_run(config)
    engine = None
    if batch_stepping:
        conservative = config.mode is OperatingMode.CONSERVATIVE
        engine = "conventional_batch" if conservative else "als_batch"
    return create_engine(config, partition=partition, engine=engine).run()


def assert_batch_bit_identical(spec_factory, **config_kwargs):
    scalar = full_digest(run_spec(spec_factory(), False, **config_kwargs))
    batched = full_digest(run_spec(spec_factory(), True, **config_kwargs))
    assert batched == scalar


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
def test_batch_engines_are_bit_identical_on_random_workloads(
    seed, mode, lob_depth, accuracy, acc_writes_to_sim
):
    assert_batch_bit_identical(
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
def test_batch_engines_are_bit_identical_across_topology_sizes(n_domains, seed, mode):
    if n_domains == 1:
        factory = lambda: sim_only_baseline_soc(seed=seed)
    else:
        factory = lambda: accelerator_farm_4x_soc(
            n_accelerators=n_domains - 1, n_bursts=4, seed=seed
        )
    assert_batch_bit_identical(factory, mode=mode, total_cycles=200)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    loss_rate=st.floats(min_value=0.0, max_value=0.2),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.1),
    reorder_rate=st.floats(min_value=0.0, max_value=0.1),
    mode=st.sampled_from([OperatingMode.CONSERVATIVE, OperatingMode.ALS]),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=10, deadline=None)
# A lossy draw on which the conservative reply gives up at target cycle 129.
@example(
    seed=2439,
    loss_rate=0.125,
    duplicate_rate=0.0625,
    reorder_rate=0.0625,
    mode=OperatingMode.CONSERVATIVE,
    acc_writes_to_sim=False,
)
def test_batch_engines_are_bit_identical_under_channel_faults(
    seed, loss_rate, duplicate_rate, reorder_rate, mode, acc_writes_to_sim
):
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
    for batch_stepping in (False, True):
        try:
            outcomes.append(
                full_digest(run_spec(factory(), batch_stepping, mode=mode, total_cycles=180))
            )
        except ChannelDegradedError as exc:
            outcomes.append(("degraded", str(exc)))
    assert outcomes[0] == outcomes[1]
