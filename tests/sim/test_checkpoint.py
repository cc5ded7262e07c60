"""Unit tests for state checkpointing (rb_store / rb_restore)."""

from __future__ import annotations

import pytest

from repro.sim.checkpoint import (
    ACCELERATOR_STATE_COSTS,
    CheckpointError,
    CheckpointManager,
    SIMULATOR_STATE_COSTS,
    StateCostModel,
)

from .test_component import CountingComponent


def make_manager(budget=None, cost=None):
    components = [CountingComponent("a"), CountingComponent("b")]
    manager = CheckpointManager(
        components,
        cost_model=cost or StateCostModel(1e-9, 1e-9),
        rollback_variable_budget=budget,
    )
    return manager, components


def test_store_and_restore_round_trip_component_state():
    manager, (a, b) = make_manager()
    a.counter, b.counter = 5, 7
    manager.store(cycle=10)
    a.counter, b.counter = 99, 98
    checkpoint = manager.restore()
    assert checkpoint.cycle == 10
    assert (a.counter, b.counter) == (5, 7)
    assert not manager.has_checkpoint


def test_restore_without_store_raises():
    manager, _ = make_manager()
    with pytest.raises(CheckpointError):
        manager.restore()


def test_discard_drops_checkpoint_without_restoring():
    manager, (a, _) = make_manager()
    a.counter = 1
    manager.store(cycle=0)
    a.counter = 42
    manager.discard()
    assert a.counter == 42
    with pytest.raises(CheckpointError):
        manager.discard()


def test_checkpoints_keep_owned_snapshots_by_reference():
    """A checkpoint holds the component's own (owned) snapshot, uncopied;
    mutating the component after the store cannot reach it."""

    class ListState(CountingComponent):
        def __init__(self, name):
            super().__init__(name)
            self.items = [1, 2]

        def snapshot_state(self):
            return {"items": list(self.items)}

        def restore_state(self, state):
            self.items = list(state["items"])

    component = ListState("l")
    manager = CheckpointManager([component], StateCostModel(0, 0))
    payload = manager.store(cycle=0).states["l"]
    component.items.append(3)
    manager.restore()
    assert component.items == [1, 2]
    assert payload == {"items": [1, 2]}


def test_variable_budget_overrides_actual_count():
    manager, _ = make_manager(budget=1000)
    assert manager.variable_count() == 1000
    manager_actual, _ = make_manager(budget=None)
    assert manager_actual.variable_count() == 2


def test_store_restore_costs_accumulate_in_stats():
    cost = StateCostModel(store_time_per_variable=2e-9, restore_time_per_variable=1e-9)
    manager, _ = make_manager(budget=500, cost=cost)
    manager.store(cycle=0)
    manager.restore()
    assert manager.stats.stores == 1
    assert manager.stats.restores == 1
    assert manager.stats.store_time == pytest.approx(500 * 2e-9)
    assert manager.stats.restore_time == pytest.approx(500 * 1e-9)


def test_nested_store_is_refused():
    manager, (a, _) = make_manager()
    a.counter = 1
    manager.store(cycle=1)
    a.counter = 2
    with pytest.raises(CheckpointError, match="outstanding"):
        manager.store(cycle=2)
    assert manager.depth == 1
    manager.restore()
    assert a.counter == 1
    assert manager.depth == 0


def test_cost_model_formulas():
    model = StateCostModel(
        store_time_per_variable=3e-9,
        restore_time_per_variable=2e-9,
        fixed_store_overhead=1e-6,
        fixed_restore_overhead=2e-6,
    )
    assert model.store_time(100) == pytest.approx(1e-6 + 300e-9)
    assert model.restore_time(100) == pytest.approx(2e-6 + 200e-9)


def test_paper_default_cost_models_are_ordered_sensibly():
    """The simulator (host memcpy) must be far slower per variable than the
    accelerator's hardware-assisted state copy."""
    assert (
        SIMULATOR_STATE_COSTS.store_time_per_variable
        > 100 * ACCELERATOR_STATE_COSTS.store_time_per_variable
    )
    # With the paper's 1000 rollback variables the accelerator store is tens
    # of nanoseconds while the simulator store is on the order of 10 us.
    assert ACCELERATOR_STATE_COSTS.store_time(1000) < 1e-7
    assert 1e-6 < SIMULATOR_STATE_COSTS.store_time(1000) < 1e-4
