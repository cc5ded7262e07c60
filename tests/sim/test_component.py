"""Unit tests for clocked components, groups and ports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.component import (
    AbstractionLevel,
    ClockedComponent,
    ComponentGroup,
    Domain,
    Port,
)


class CountingComponent(ClockedComponent):
    """Test helper: counts its evaluations and exposes snapshotable state."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.seen_cycles: list[int] = []
        self.counter = 0

    def evaluate(self, cycle: int) -> None:
        self.seen_cycles.append(cycle)
        self.counter += 1

    def snapshot_state(self) -> dict:
        return {"counter": self.counter}

    def restore_state(self, state: dict) -> None:
        self.counter = state["counter"]

    def reset(self) -> None:
        super().reset()
        self.seen_cycles = []
        self.counter = 0


def test_domain_is_an_open_interned_id_type():
    assert Domain("simulator") is Domain.SIMULATOR
    assert Domain("acc0") is Domain("acc0")
    assert Domain("acc0") == "acc0"
    assert Domain.SIMULATOR.value == "simulator"
    assert isinstance(Domain("acc1"), str)
    with pytest.raises(ValueError):
        Domain("")
    with pytest.raises(ValueError):
        Domain(" padded ")


def test_abstraction_levels_are_distinct():
    assert AbstractionLevel.TL != AbstractionLevel.RTL


def test_tick_calls_evaluate_and_counts_cycles():
    component = CountingComponent("c")
    component.tick(0)
    component.tick(1)
    assert component.seen_cycles == [0, 1]
    assert component.cycle_count == 2


def test_default_snapshot_is_empty_and_restore_accepts_it():
    class Stateless(ClockedComponent):
        def evaluate(self, cycle: int) -> None:
            return

    component = Stateless("s")
    assert component.snapshot_state() == {}
    component.restore_state({})  # must not raise


def test_restore_nonempty_snapshot_without_override_raises():
    class Stateless(ClockedComponent):
        def evaluate(self, cycle: int) -> None:
            return

    with pytest.raises(NotImplementedError):
        Stateless("s").restore_state({"x": 1})


def test_rollback_variable_count_counts_scalars_recursively():
    class Nested(ClockedComponent):
        def evaluate(self, cycle: int) -> None:
            return

        def snapshot_state(self) -> dict:
            return {"a": 1, "b": [1, 2, 3], "c": {"d": (4, 5)}, "e": np.zeros(10)}

    assert Nested("n").rollback_variable_count() == 1 + 3 + 2 + 10


def test_group_evaluates_members_in_order():
    order = []

    class Ordered(ClockedComponent):
        def __init__(self, name):
            super().__init__(name)

        def evaluate(self, cycle):
            order.append(self.name)

    group = ComponentGroup("g", [Ordered("first"), Ordered("second")])
    group.add(Ordered("third"))
    group.tick(0)
    assert order == ["first", "second", "third"]


def test_group_snapshot_and_restore_round_trips_members():
    a, b = CountingComponent("a"), CountingComponent("b")
    group = ComponentGroup("g", [a, b])
    group.tick(0)
    state = group.snapshot_state()
    group.tick(1)
    group.tick(2)
    group.restore_state(state)
    assert a.counter == 1
    assert b.counter == 1


def test_group_rollback_variable_count_sums_members():
    group = ComponentGroup("g", [CountingComponent("a"), CountingComponent("b")])
    assert group.rollback_variable_count() == 2


def test_group_reset_resets_members():
    a = CountingComponent("a")
    group = ComponentGroup("g", [a])
    group.tick(0)
    group.reset()
    assert group.cycle_count == 0
    assert a.cycle_count == 0


def test_port_put_get_and_clear():
    port = Port("p")
    assert port.get("default") == "default"
    assert not port.valid
    port.put(42)
    assert port.valid
    assert port.get() == 42
    port.clear()
    assert not port.valid
    assert port.get() is None
