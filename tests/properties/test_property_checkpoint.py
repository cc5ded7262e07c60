"""Checkpoint ownership-contract equivalence.

Checkpoints keep component payloads by reference (no ``copy.deepcopy``).
These tests assert that for every component type in the library, store ->
mutate -> restore lands exactly on a deep-copied reference of the stored
state, transition after transition, and that the engine's checkpoint hot
path performs zero ``copy.deepcopy`` calls.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ahb.master import TrafficMaster
from repro.ahb.signals import HBurst
from repro.ahb.slave import DefaultSlave, FifoPeripheralSlave, MemorySlave
from repro.ahb.transaction import BusTransaction
from repro.core import CoEmulationConfig, OperatingMode, OptimisticCoEmulation
from repro.core.prediction import LaggerPredictor
from repro.sim.checkpoint import CheckpointManager, StateCostModel
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
    """A monolithic kernel-driven bus exercising every component type."""
    from repro.ahb.bus import AhbBus

    bus = AhbBus(name="prop_bus")
    bus.add_master(TrafficMaster("m0", 0, transactions=write_traffic(0, 6, seed)))
    bus.add_master(TrafficMaster("m1", 1, transactions=write_traffic(1, 6, seed + 1)))
    bus.add_slave(MemorySlave("mem", 0, BASE, 0x4000), BASE, 0x4000)
    bus.add_slave(FifoPeripheralSlave("fifo", 1, depth=4, initial_fill=4), 0x2000_0000, 0x1000)
    bus.finalize()
    kernel = CycleKernel("prop")
    kernel.add_component(bus)
    return bus, kernel


@given(warmup=st.integers(5, 60), extra=st.integers(1, 60), seed=st.integers(0, 999))
@settings(max_examples=25, deadline=None)
def test_window_checkpoint_restores_the_deepcopy_reference(warmup, extra, seed):
    """Checkpoints keep payloads by reference; store -> run -> restore must
    land exactly on a deep copy of the state taken at store time."""
    bus, kernel = build_system(seed)
    manager = CheckpointManager([bus], cost_model=ZERO_COST)
    kernel.run(warmup)
    reference = copy.deepcopy(bus.snapshot_state())
    manager.store(cycle=warmup)
    kernel.run(extra)
    manager.restore()
    assert _states_equal(bus.snapshot_state(), reference)


@given(
    spans=st.lists(st.tuples(st.integers(1, 25), st.booleans()), min_size=2, max_size=5),
    seed=st.integers(0, 999),
)
@settings(max_examples=15, deadline=None)
def test_successive_checkpoints_each_restore_their_reference(spans, seed):
    """Transition after transition (store, run, then restore or discard),
    every restore lands on the deep-copy reference of its own store."""
    bus, kernel = build_system(seed)
    manager = CheckpointManager([bus], cost_model=ZERO_COST)
    cycle = 0
    for extra, roll_back in spans:
        reference = copy.deepcopy(bus.snapshot_state())
        manager.store(cycle=cycle)
        kernel.run(extra)
        if roll_back:
            manager.restore()
            assert _states_equal(bus.snapshot_state(), reference)
        else:
            manager.discard()
            cycle += extra


def test_every_component_type_round_trips_against_a_deepcopy_reference():
    """Explicit (non-hypothesis) sweep over the individual component types."""
    components = {
        "master": lambda: TrafficMaster("m", 0, transactions=write_traffic(0, 4, 3)),
        "memory": lambda: MemorySlave("mem", 0, BASE, 0x1000),
        "fifo": lambda: FifoPeripheralSlave("fifo", 1, depth=4, initial_fill=2),
        "default_slave": lambda: DefaultSlave(),
        "predictor": lambda: LaggerPredictor("pred", remote_master_ids=[0, 1]),
    }
    mutators = {
        "master": lambda c: (
            c.drive_hbusreq(0),
            c.drive_address_phase(0, granted=True),
        ),
        "memory": lambda c: c.write_word(BASE + 8, 0xDEAD_BEEF),
        "fifo": lambda c: c.evaluate(0),
        "default_slave": lambda c: setattr(c, "_in_second_cycle", True),
        "predictor": lambda c: c.observe(
            __import__("repro.ahb.half_bus", fromlist=["BoundaryDrive"]).BoundaryDrive(
                cycle=0, requests={0: True}
            ),
            None,
        ),
    }
    for name, factory in components.items():
        component = factory()
        manager = CheckpointManager([component], cost_model=ZERO_COST)
        reference = copy.deepcopy(component.snapshot_state())
        manager.store(cycle=0)
        mutators[name](component)
        manager.restore()
        assert _states_equal(component.snapshot_state(), reference), name


def test_engine_checkpoint_path_never_calls_deepcopy(monkeypatch):
    """Zero ``copy.deepcopy`` anywhere in an optimistic engine run (store
    and restore both exercised)."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("copy.deepcopy reached the engine hot path")

    partition = als_streaming_soc(n_bursts=10).build_partition()
    config = CoEmulationConfig(
        mode=OperatingMode.ALS, total_cycles=400, forced_accuracy=0.8
    )
    engine = OptimisticCoEmulation(partition, config)
    monkeypatch.setattr(copy, "deepcopy", boom)
    result = engine.run()
    assert result.committed_cycles == 400
    assert result.transitions["rollbacks"] > 0  # restores really happened


def _states_equal(a, b) -> bool:
    """Structural comparison that treats numpy arrays elementwise."""
    import numpy as np

    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_states_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_states_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b
