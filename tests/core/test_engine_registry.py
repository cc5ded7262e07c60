"""Tests for the engine registry and the analytical pseudo-engine."""

from __future__ import annotations

import pytest

from repro.core import (
    AnalyticalPseudoEngine,
    CoEmulationConfig,
    ConventionalCoEmulation,
    Engine,
    EngineRegistryError,
    OperatingMode,
    OptimisticCoEmulation,
    available_engines,
    create_engine,
    engine_for_mode,
)
from repro.core.analytical import AnalyticalConfig, conventional_performance, estimate_performance
from repro.core.coemulation import PERIODIC_REPLAY, QUIESCENCE_SKIP
from repro.core.engine import register_engine
from repro.orchestration.request import RunRequest
from repro.workloads import als_streaming_soc


@pytest.fixture()
def partition():
    return als_streaming_soc(n_bursts=4).build_partition()


def test_builtin_engines_are_registered():
    engines = available_engines()
    assert {"conventional", "optimistic", "analytical"} <= set(engines)
    assert engines["conventional"].modes == (OperatingMode.CONSERVATIVE,)
    assert set(engines["optimistic"].modes) == {
        OperatingMode.SLA,
        OperatingMode.ALS,
        OperatingMode.AUTO,
    }
    # the pseudo-engine claims no mode: explicit opt-in only
    assert engines["analytical"].modes == ()
    assert not engines["analytical"].requires_split


def test_every_operating_mode_resolves_to_an_engine():
    assert engine_for_mode(OperatingMode.CONSERVATIVE) == "conventional"
    for mode in (OperatingMode.SLA, OperatingMode.ALS, OperatingMode.AUTO):
        assert engine_for_mode(mode) == "optimistic"


#: Every mechanism preset: (name, mode, engine class, fast paths).
PRESETS = [
    ("conventional", "conservative", ConventionalCoEmulation, set()),
    ("conventional_batch", "conservative", ConventionalCoEmulation, {QUIESCENCE_SKIP}),
    (
        "conventional_trace",
        "conservative",
        ConventionalCoEmulation,
        {QUIESCENCE_SKIP, PERIODIC_REPLAY},
    ),
    ("optimistic", "als", OptimisticCoEmulation, set()),
    ("als_batch", "als", OptimisticCoEmulation, {QUIESCENCE_SKIP}),
    ("als_trace", "als", OptimisticCoEmulation, {QUIESCENCE_SKIP, PERIODIC_REPLAY}),
]


@pytest.mark.parametrize("name,mode,cls,fast_paths", PRESETS)
def test_presets_map_to_mode_engine_and_fast_paths(partition, name, mode, cls, fast_paths):
    info = available_engines()[name]
    assert info.factory is cls
    assert info.fast_paths == fast_paths
    request = RunRequest(
        scenario="als_streaming",
        mode=mode,
        engine=None if info.modes else name,
    )
    assert request.engine_name() == name
    engine = create_engine(
        CoEmulationConfig(mode=OperatingMode(mode), total_cycles=10),
        partition=partition,
        engine=name,
    )
    assert type(engine) is cls
    assert engine.quiescence_skip == (QUIESCENCE_SKIP in fast_paths)
    assert (engine.replay is not None) == (PERIODIC_REPLAY in fast_paths)


def test_enable_fast_paths_rejects_unknown_names(partition):
    engine = ConventionalCoEmulation(
        partition, CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=10)
    )
    with pytest.raises(ValueError, match="unknown fast path"):
        engine.enable_fast_paths({"warp_drive"})


def test_create_engine_dispatches_on_mode(partition):
    conservative = create_engine(
        CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=10),
        partition=partition,
    )
    assert isinstance(conservative, ConventionalCoEmulation)
    optimistic = create_engine(
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
        partition=als_streaming_soc(n_bursts=4).build_partition(),
    )
    assert isinstance(optimistic, OptimisticCoEmulation)
    assert isinstance(conservative, Engine)
    assert isinstance(optimistic, Engine)


def test_create_engine_explicit_override(partition):
    engine = create_engine(
        CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
        partition=partition,
        engine="analytical",
    )
    assert isinstance(engine, AnalyticalPseudoEngine)


def test_create_engine_unknown_engine_raises(partition):
    with pytest.raises(EngineRegistryError, match="unknown engine"):
        create_engine(
            CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
            partition=partition,
            engine="definitely-not-registered",
        )


def test_batch_engines_are_registered():
    engines = available_engines()
    assert {"conventional_batch", "als_batch"} <= set(engines)
    # explicit opt-in only: they claim no modes, selection goes through
    # ``engine=``
    assert engines["conventional_batch"].modes == ()
    assert engines["als_batch"].modes == ()


def test_unknown_engine_error_suggests_nearest_name(partition):
    with pytest.raises(EngineRegistryError, match="did you mean 'als_batch'"):
        create_engine(
            CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10),
            partition=partition,
            engine="als_bach",
        )


def test_create_engine_requires_split_models():
    with pytest.raises(EngineRegistryError, match="half bus models"):
        create_engine(CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=10))


def test_duplicate_registration_rejected():
    with pytest.raises(EngineRegistryError, match="already registered"):
        register_engine("conventional")(ConventionalCoEmulation)
    with pytest.raises(EngineRegistryError, match="already handled"):
        register_engine("another", modes=(OperatingMode.ALS,))(OptimisticCoEmulation)


def test_analytical_engine_matches_closed_form():
    config = CoEmulationConfig(
        mode=OperatingMode.ALS, total_cycles=1000, forced_accuracy=0.95
    )
    result = create_engine(config, engine="analytical").run()
    estimate = estimate_performance(
        AnalyticalConfig(mode=OperatingMode.ALS, prediction_accuracy=0.95)
    )
    assert result.performance_cycles_per_second == pytest.approx(estimate.performance)
    assert result.tsim == pytest.approx(estimate.t_sim)
    assert result.tchannel == pytest.approx(estimate.t_channel)
    assert result.committed_cycles == 1000
    assert result.sim_beat_keys == []  # no mechanism ran


def test_analytical_engine_conservative_matches_baseline():
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=500)
    result = create_engine(config, engine="analytical").run()
    assert result.performance_cycles_per_second == pytest.approx(
        conventional_performance(AnalyticalConfig())
    )


def test_analytical_engine_total_time_is_consistent():
    config = CoEmulationConfig(mode=OperatingMode.SLA, total_cycles=200)
    result = create_engine(config, engine="analytical").run()
    assert result.total_modelled_time == pytest.approx(
        result.committed_cycles / result.performance_cycles_per_second
    )
