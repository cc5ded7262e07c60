"""Equivalence guard against the pre-optimization engines.

``golden_seed.json`` was captured from the seed implementation (deepcopy
checkpoints, uncached phase info, list-building channel writes) before the
hot-path overhaul.  Every digest -- beat-key streams, transition outcomes,
prediction statistics, per-cycle modelled times and channel traffic -- must
remain bit-identical: the optimizations are pure mechanics, not modelling
changes.

Regenerate the file only when the *modelled* behaviour is intentionally
changed (see EXPERIMENTS.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
)
from repro.sim.component import Domain
from repro.workloads import (
    als_streaming_soc,
    mixed_soc,
    single_master_soc,
    sla_streaming_soc,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_seed.json").read_text())

SPEC_FACTORIES = {
    "als_streaming": lambda: als_streaming_soc(n_bursts=10),
    "sla_streaming": lambda: sla_streaming_soc(n_bursts=10),
    "mixed": lambda: mixed_soc(n_transactions=24),
    "single_master": lambda: single_master_soc(n_bursts=8),
}

MODES = {mode.value: mode for mode in OperatingMode}


def run_case(key: str):
    parts = key.split("/")
    spec_name, mode_name = parts[0], parts[1].lower()
    kwargs = {}
    cycles = 450
    if len(parts) == 3:
        knob, value = parts[2].split("=")
        if knob == "acc":
            accuracy = float(value)
            kwargs["forced_accuracy"] = accuracy
            kwargs["forced_accuracy_seed"] = int(accuracy * 1000) + 7
            cycles = 400
        elif knob == "lob":
            kwargs["lob_depth"] = int(value)
            cycles = 350
    sim_hbm, acc_hbm, _ = SPEC_FACTORIES[spec_name]().build_split()
    partition = {Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}
    config = CoEmulationConfig(mode=MODES[mode_name], total_cycles=cycles, **kwargs)
    if config.mode is OperatingMode.CONSERVATIVE:
        engine = ConventionalCoEmulation(partition, config)
    else:
        engine = OptimisticCoEmulation(partition, config)
    return engine.run()


def digest(result) -> dict:
    return {
        "sim_beats": hashlib.sha256(repr(result.sim_beat_keys).encode()).hexdigest(),
        "acc_beats": hashlib.sha256(repr(result.acc_beat_keys).encode()).hexdigest(),
        "n_sim_beats": len(result.sim_beat_keys),
        "n_acc_beats": len(result.acc_beat_keys),
        "committed_cycles": result.committed_cycles,
        "transitions": result.transitions,
        "prediction": result.prediction,
        "per_cycle_times": {k: repr(v) for k, v in result.per_cycle_times.items()},
        "total_modelled_time": repr(result.total_modelled_time),
        "channel_accesses": result.channel["accesses"],
        "channel_words": result.channel["words"],
        "channel_total_time": repr(result.channel["total_time"]),
        "wasted_leader_cycles": result.wasted_leader_cycles,
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_behaviour_is_bit_identical_to_seed(key):
    measured = digest(run_case(key))
    expected = GOLDEN[key]
    mismatched = {
        field: (expected[field], measured[field])
        for field in expected
        if expected[field] != measured[field]
    }
    assert not mismatched, f"{key}: {mismatched}"
