"""Equivalence and behaviour tests for the periodic trace-replay presets.

The trace presets (``conventional_trace`` / ``als_trace``) claim the same
contract as the batch presets: *bit-identity* with their scalar twins on
every digest field -- beat streams, statistics, per-cycle modelled times
down to the last float ulp, channel counters -- while fast-forwarding
periodic busy loops.  These tests sweep every catalog scenario (ideal and
faulty channels, two-domain and multi-domain topologies) and pin down the
controller's refusal/bailout envelope.
"""

from __future__ import annotations

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
    create_engine,
)
from repro.core.trace import MIN_PERIOD, PERIOD_CAP, PeriodicTraceController
from repro.workloads.catalog import build_scenario, scenario_names


def trace_preset(mode) -> str:
    return "conventional_trace" if mode is OperatingMode.CONSERVATIVE else "als_trace"


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


def run_scenario(name, mode, trace_replay, total_cycles=300, **config_kwargs):
    spec = build_scenario(name)
    config = CoEmulationConfig(mode=mode, total_cycles=total_cycles, **config_kwargs)
    config, partition = spec.prepare_run(config)
    engine = trace_preset(mode) if trace_replay else None
    return create_engine(config, partition=partition, engine=engine).run()


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("mode", [OperatingMode.CONSERVATIVE, OperatingMode.ALS])
def test_trace_engines_are_bit_identical_on_every_scenario(name, mode):
    """Replay on vs off must agree bit for bit on every catalog scenario."""
    scalar = run_scenario(name, mode, False)
    traced = run_scenario(name, mode, True)
    assert full_digest(traced) == full_digest(scalar)
    assert traced.trace_replay  # the trace engines always report their stats


def test_replay_fires_on_dense_streaming():
    """The headline case: steady streaming bursts replay almost entirely."""
    spec = build_scenario("als_streaming", n_bursts=100)
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=600)
    config, partition = spec.prepare_run(config)
    result = create_engine(config, partition=partition, engine="conventional_trace").run()
    stats = result.trace_replay
    assert stats["enabled"]
    assert stats["verified_periods"] >= 1
    assert stats["replay_hits"] >= 1
    # search + one verification period are the only scalar stretches
    assert stats["replayed_cycles"] > 600 * 0.6


def test_scalar_engines_report_no_trace_stats():
    result = run_scenario("als_streaming", OperatingMode.CONSERVATIVE, False)
    assert result.trace_replay == {}


@pytest.mark.parametrize(
    "name,reason",
    [
        ("lossy_streaming", "channel_faults"),
        ("dual_accelerator_pipeline", "topology"),
        ("rmw_fifo", "ticking_components"),
    ],
)
def test_envelope_refusals_are_structured(name, reason):
    """Out-of-envelope runs disable replay with one machine-readable reason."""
    result = run_scenario(name, OperatingMode.CONSERVATIVE, True)
    stats = result.trace_replay
    assert not stats["enabled"]
    assert stats["replayed_cycles"] == 0
    assert stats["bailouts"] == {reason: 1}


def test_als_trace_engine_disables_replay_but_stays_bit_identical():
    """Optimistic schemes train predictors during conservative cycles; the
    ALS trace preset reports the refusal instead of silently diverging."""
    result = run_scenario("als_streaming", OperatingMode.ALS, True)
    stats = result.trace_replay
    assert not stats["enabled"]
    assert stats["bailouts"] == {"predictor_training": 1}


def test_trace_presets_build_mode_engines_with_replay():
    """A trace preset is its mode's engine class with the quiescence skip
    and the periodic trace controller switched on."""
    for mode, cls in (
        (OperatingMode.CONSERVATIVE, ConventionalCoEmulation),
        (OperatingMode.ALS, OptimisticCoEmulation),
    ):
        spec = build_scenario("als_streaming")
        config = CoEmulationConfig(mode=mode, total_cycles=10)
        config, partition = spec.prepare_run(config)
        engine = create_engine(config, partition=partition, engine=trace_preset(mode))
        assert type(engine) is cls
        assert engine.quiescence_skip
        assert isinstance(engine.replay, PeriodicTraceController)


def test_explicit_engine_name_is_registered():
    spec = build_scenario("als_streaming")
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=120)
    config, partition = spec.prepare_run(config)
    result = create_engine(config, partition=partition, engine="conventional_trace").run()
    assert result.trace_replay["enabled"]


def test_horizon_bailout_is_noted_once():
    """A run tail shorter than the period falls back to scalar, counted once."""
    result = run_scenario("als_streaming", OperatingMode.CONSERVATIVE, True, 5000)
    bailouts = result.trace_replay["bailouts"]
    assert bailouts.get("horizon", 0) <= 1


def test_replay_respects_total_cycles_exactly():
    for cycles in (97, 250, 301):
        scalar = run_scenario("sla_streaming", OperatingMode.CONSERVATIVE, False, cycles)
        traced = run_scenario("sla_streaming", OperatingMode.CONSERVATIVE, True, cycles)
        assert traced.committed_cycles == scalar.committed_cycles
        assert full_digest(traced) == full_digest(scalar)


def test_period_bounds_are_sane():
    assert 2 <= MIN_PERIOD < PERIOD_CAP
