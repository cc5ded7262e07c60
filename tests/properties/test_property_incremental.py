"""Checkpoint-window (dirty-set) checkpointing equivalence.

The checkpoint-window protocol journals component mutations so ``rb_store``
is O(1) and rollback is O(state touched).  These properties prove window
checkpoints are *state-identical* to a deep-copied full-snapshot reference
kept inside the tests, across random mutation / store / restore / discard
sequences, at the component level and through a full rollback-heavy engine
run.
"""

from __future__ import annotations

import copy
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ahb.master import TrafficMaster
from repro.ahb.signals import HBurst
from repro.ahb.slave import FifoPeripheralSlave, MemorySlave
from repro.ahb.transaction import BusTransaction
from repro.core import CoEmulationConfig, OperatingMode, OptimisticCoEmulation
from repro.sim.checkpoint import CheckpointError, CheckpointManager, StateCostModel
from repro.sim.kernel import CycleKernel
from repro.workloads import als_streaming_soc

ZERO_COST = StateCostModel(0.0, 0.0)
BASE = 0x1000_0000


def write_traffic(master_id: int, n: int, seed: int):
    import random

    rng = random.Random(seed)
    txns = []
    addr = BASE
    for _ in range(n):
        burst = rng.choice([HBurst.SINGLE, HBurst.INCR4, HBurst.INCR8, HBurst.WRAP4])
        beats = burst.beats or 1
        txns.append(
            BusTransaction(
                master_id=master_id,
                address=addr,
                write=True,
                hburst=burst,
                data=[rng.randrange(1 << 32) for _ in range(beats)],
            )
        )
        addr += 4 * beats
    return txns


def build_system(seed: int):
    from repro.ahb.bus import AhbBus

    bus = AhbBus(name="inc_prop_bus")
    bus.add_master(TrafficMaster("m0", 0, transactions=write_traffic(0, 8, seed)))
    bus.add_master(TrafficMaster("m1", 1, transactions=write_traffic(1, 8, seed + 1)))
    bus.add_slave(MemorySlave("mem", 0, BASE, 0x4000), BASE, 0x4000)
    bus.add_slave(FifoPeripheralSlave("fifo", 1, depth=4, initial_fill=4), 0x2000_0000, 0x1000)
    bus.finalize()
    kernel = CycleKernel("inc_prop")
    kernel.add_component(bus)
    return bus, kernel


class FullSnapshot:
    """Reference checkpoint scheme for one component: a deep-copied full
    snapshot per checkpoint, no journal.  Plugs into the manager in place of
    the component's own window."""

    def __init__(self, component) -> None:
        self.component = component
        self.name = component.name

    def open_checkpoint_window(self):
        return copy.deepcopy(self.component.snapshot_state())

    def rewind_checkpoint_window(self, token) -> None:
        self.component.restore_state(copy.deepcopy(token))

    def close_checkpoint_window(self, token) -> None:
        return None

    def rollback_variable_count(self) -> int:
        return self.component.rollback_variable_count()


#: One random step of the driver: run some cycles, then store / restore /
#: discard when the outstanding checkpoint allows it.
_OPS = st.sampled_from(["run", "store", "restore", "discard"])


@given(
    ops=st.lists(st.tuples(_OPS, st.integers(1, 20)), min_size=4, max_size=16),
    seed=st.integers(0, 999),
)
@settings(max_examples=30, deadline=None)
def test_window_checkpoints_are_state_identical_to_full_snapshots(ops, seed):
    """Interleaved mutation / store / restore / discard sequences leave the
    window-checkpointed system in exactly the state a deep-copied
    full-snapshot reference reaches."""
    systems = []
    for reference in (False, True):
        bus, kernel = build_system(seed)
        managed = FullSnapshot(bus) if reference else bus
        systems.append((bus, kernel, CheckpointManager([managed], cost_model=ZERO_COST)))

    cycle = 0
    for op, span in ops:
        if op == "run":
            cycle += span
            for _, kernel, _ in systems:
                kernel.run(span)
        elif op == "store":
            if systems[0][2].has_checkpoint:
                for _, _, manager in systems:
                    with pytest.raises(CheckpointError):
                        manager.store(cycle=cycle)
                continue
            for _, _, manager in systems:
                manager.store(cycle=cycle)
        elif op == "restore":
            if not systems[0][2].has_checkpoint:
                continue
            for _, _, manager in systems:
                manager.restore()
        elif op == "discard":
            if not systems[0][2].has_checkpoint:
                continue
            for _, _, manager in systems:
                manager.discard()
        states = [copy.deepcopy(bus.snapshot_state()) for bus, _, _ in systems]
        assert _states_equal(states[0], states[1]), f"diverged after {op}"
    # Identical stores/restores were accounted on both sides.
    window_stats, full_stats = systems[0][2].stats, systems[1][2].stats
    assert window_stats.as_dict() == full_stats.as_dict()


@given(seed=st.integers(0, 99), accuracy=st.sampled_from([0.7, 0.85, 0.95]))
@settings(max_examples=8, deadline=None)
def test_rollback_heavy_engine_run_is_bit_identical_under_both_schemes(seed, accuracy):
    """A full prediction-and-rollback engine run (stores, restores and
    discards on every transition) produces bit-identical results whether the
    leader checkpoints through windows (the engine's scheme) or with
    deep-copied full snapshots."""
    digests = []
    for reference in (False, True):
        partition = als_streaming_soc(n_bursts=12).build_partition()
        config = CoEmulationConfig(
            mode=OperatingMode.ALS,
            total_cycles=400,
            forced_accuracy=accuracy,
            forced_accuracy_seed=seed,
        )
        engine = OptimisticCoEmulation(partition, config)
        if reference:
            # The full-snapshot reference keeps no redo state, so it runs the
            # plain rollback path (no run-ahead tail re-use); the window run
            # re-uses tails, and both must still agree bit for bit.
            engine.lazy_reevaluation = False
            for host in engine.hosts.values():
                manager = host.checkpoints
                manager.components = [FullSnapshot(c) for c in manager.components]
        result = engine.run()
        assert result.transitions["rollbacks"] > 0  # restores really happened
        payload = repr(
            (
                result.sim_beat_keys,
                result.acc_beat_keys,
                result.transitions,
                result.prediction,
                {k: repr(v) for k, v in result.per_cycle_times.items()},
                repr(result.total_modelled_time),
                result.channel["accesses"],
                result.wasted_leader_cycles,
            )
        )
        digests.append(hashlib.sha256(payload.encode()).hexdigest())
    assert digests[0] == digests[1]


def test_nested_store_is_refused_and_leaves_the_window_intact():
    """A second store while a window is open raises; the open window still
    rewinds exactly to the window-open state."""
    memory = MemorySlave("mem", 0, BASE, 0x100)
    memory.load(BASE, [0x11, 0x22, 0x33])
    manager = CheckpointManager([memory], cost_model=ZERO_COST)
    window_open = copy.deepcopy(memory.snapshot_state())
    manager.store(cycle=0)
    memory.write_word(BASE, 0xAAAA)
    with pytest.raises(CheckpointError):
        manager.store(cycle=1)
    memory.write_word(BASE + 4, 0xBBBB)
    manager.restore()
    assert _states_equal(memory.snapshot_state(), window_open)
    assert manager.stats.stores == 1


def test_variable_count_is_cached_and_invalidatable():
    memory = MemorySlave("mem", 0, BASE, 0x100)
    manager = CheckpointManager([memory], cost_model=ZERO_COST)
    first = manager.variable_count()
    assert first == memory.rollback_variable_count()
    calls = {"n": 0}
    original = memory.rollback_variable_count

    def counting():
        calls["n"] += 1
        return original()

    memory.rollback_variable_count = counting
    assert manager.variable_count() == first  # cache hit, no re-sum
    assert calls["n"] == 0
    manager.invalidate_variable_count()
    assert manager.variable_count() == first
    assert calls["n"] == 1


def test_budget_still_wins_over_actual_counts():
    memory = MemorySlave("mem", 0, BASE, 0x100)
    manager = CheckpointManager(
        [memory], cost_model=ZERO_COST, rollback_variable_budget=1000
    )
    assert manager.variable_count() == 1000


def _states_equal(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_states_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_states_equal(x, y) for x, y in zip(a, b))
    return a == b
