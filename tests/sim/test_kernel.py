"""Unit tests for the cycle-based kernel."""

from __future__ import annotations

import pytest

from repro.sim.kernel import CycleKernel, KernelError
from repro.sim.signal import SignalBundle

from .test_component import CountingComponent


def test_run_executes_requested_number_of_cycles():
    kernel = CycleKernel("k")
    component = kernel.add_component(CountingComponent("c"))
    kernel.run(5)
    assert component.seen_cycles == [0, 1, 2, 3, 4]
    assert kernel.current_cycle == 5
    assert kernel.stats.cycles_run == 5


def test_run_until_reaches_absolute_cycle():
    kernel = CycleKernel("k")
    kernel.add_component(CountingComponent("c"))
    kernel.run(3)
    kernel.run_until(10)
    assert kernel.current_cycle == 10


def test_run_until_past_cycle_raises():
    kernel = CycleKernel("k")
    kernel.run(5)
    with pytest.raises(KernelError):
        kernel.run_until(2)


def test_negative_run_raises():
    kernel = CycleKernel("k")
    with pytest.raises(KernelError):
        kernel.run(-1)


def test_bundles_commit_at_end_of_each_cycle():
    kernel = CycleKernel("k")
    bundle = kernel.add_bundle(SignalBundle("b"))
    signal = bundle.add("x", 0)
    observed = []

    class Driver(CountingComponent):
        def evaluate(self, cycle):
            observed.append(signal.value)
            signal.drive(cycle + 100)

    kernel.add_component(Driver("d"))
    kernel.run(3)
    # each cycle sees the value committed at the end of the previous cycle
    assert observed == [0, 100, 101]
    assert signal.value == 102


def test_pre_and_post_cycle_hooks_run_in_order():
    kernel = CycleKernel("k")
    trace = []
    kernel.add_pre_cycle_hook(lambda c: trace.append(("pre", c)))
    kernel.add_post_cycle_hook(lambda c: trace.append(("post", c)))

    class Middle(CountingComponent):
        def evaluate(self, cycle):
            trace.append(("eval", cycle))

    kernel.add_component(Middle("m"))
    kernel.run(2)
    assert trace == [
        ("pre", 0),
        ("eval", 0),
        ("post", 0),
        ("pre", 1),
        ("eval", 1),
        ("post", 1),
    ]


def test_scheduled_events_fire_before_component_evaluation():
    kernel = CycleKernel("k")
    trace = []
    kernel.scheduler.schedule(2, lambda p: trace.append("event"))

    class Recorder(CountingComponent):
        def evaluate(self, cycle):
            if cycle == 2:
                trace.append("eval")

    kernel.add_component(Recorder("r"))
    kernel.run(4)
    assert trace == ["event", "eval"]


def test_snapshot_restore_round_trips_components_and_clock():
    kernel = CycleKernel("k")
    component = kernel.add_component(CountingComponent("c"))
    bundle = kernel.add_bundle(SignalBundle("b"))
    signal = bundle.add("x", 0)
    kernel.run(4)
    signal.drive(1)
    bundle.commit()
    state = kernel.snapshot_state()
    kernel.run(6)
    kernel.restore_state(state)
    assert kernel.current_cycle == 4
    assert component.counter == 4
    assert signal.value == 1


def test_reset_restores_power_on_state():
    kernel = CycleKernel("k")
    component = kernel.add_component(CountingComponent("c"))
    kernel.run(5)
    kernel.reset()
    assert kernel.current_cycle == 0
    assert component.counter == 0
    assert kernel.stats.cycles_run == 0


def test_rollback_variable_count_sums_components():
    kernel = CycleKernel("k")
    kernel.add_components([CountingComponent("a"), CountingComponent("b")])
    assert kernel.rollback_variable_count() == 2
