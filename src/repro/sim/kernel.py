"""Cycle-based simulation kernel.

The kernel advances a group of clocked components one target cycle at a
time.  Each verification domain (simulator / accelerator) owns one kernel, so
the co-emulation orchestrator can advance the leader without advancing the
lagger, roll one domain back, and so on.

A cycle consists of:

1. discrete events due at this cycle fire (workload wake-ups, interrupts),
2. every component's :meth:`~repro.sim.component.ClockedComponent.tick` runs
   in registration order (registration order defines combinational ordering:
   masters drive before the bus, the bus before slaves, etc.),
3. all registered signal bundles commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .clock import Clock
from .component import ClockedComponent
from .events import EventScheduler
from .signal import SignalBundle


class KernelError(RuntimeError):
    """Raised on inconsistent kernel usage."""


@dataclass
class KernelStats:
    """Counters describing kernel activity."""

    cycles_run: int = 0
    events_fired: int = 0
    commits: int = 0

    def as_dict(self) -> dict:
        return {
            "cycles_run": self.cycles_run,
            "events_fired": self.events_fired,
            "commits": self.commits,
        }


class CycleKernel:
    """Drives one verification domain cycle by cycle."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock = Clock(name)
        self.scheduler = EventScheduler()
        self.components: list[ClockedComponent] = []
        self.bundles: list[SignalBundle] = []
        self.stats = KernelStats()
        self._pre_cycle_hooks: list[Callable[[int], None]] = []
        self._post_cycle_hooks: list[Callable[[int], None]] = []

    # -- construction ------------------------------------------------------
    def add_component(self, component: ClockedComponent) -> ClockedComponent:
        """Register a component; evaluation follows registration order."""
        self.components.append(component)
        return component

    def add_components(self, components: Iterable[ClockedComponent]) -> None:
        for component in components:
            self.add_component(component)

    def add_bundle(self, bundle: SignalBundle) -> SignalBundle:
        """Register a signal bundle to be committed at the end of each cycle."""
        self.bundles.append(bundle)
        return bundle

    def add_pre_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callable invoked with the cycle number before evaluation."""
        self._pre_cycle_hooks.append(hook)

    def add_post_cycle_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callable invoked with the cycle number after commit."""
        self._post_cycle_hooks.append(hook)

    # -- execution ---------------------------------------------------------
    @property
    def current_cycle(self) -> int:
        """Index of the next cycle the kernel will execute."""
        return self.clock.cycle

    def run_cycle(self) -> int:
        """Execute exactly one target clock cycle; returns the cycle index run."""
        cycle = self.clock.cycle
        self.stats.events_fired += self.scheduler.fire_until(cycle)
        for hook in self._pre_cycle_hooks:
            hook(cycle)
        for component in self.components:
            component.tick(cycle)
        for bundle in self.bundles:
            bundle.commit()
        for hook in self._post_cycle_hooks:
            hook(cycle)
        self.clock.advance(1)
        self.stats.cycles_run += 1
        self.stats.commits += 1
        return cycle

    def run(self, cycles: int) -> int:
        """Execute ``cycles`` consecutive cycles; returns the new current cycle."""
        if cycles < 0:
            raise KernelError(f"cannot run a negative number of cycles ({cycles})")
        for _ in range(cycles):
            self.run_cycle()
        return self.clock.cycle

    def run_until(self, cycle: int) -> int:
        """Run until the current cycle reaches ``cycle``."""
        if cycle < self.clock.cycle:
            raise KernelError(
                f"target cycle {cycle} is in the past (current {self.clock.cycle})"
            )
        return self.run(cycle - self.clock.cycle)

    # -- state management --------------------------------------------------
    def reset(self) -> None:
        """Reset the clock, scheduler, every component and every bundle."""
        self.clock.reset()
        self.scheduler.reset()
        self.stats = KernelStats()
        for component in self.components:
            component.reset()
        for bundle in self.bundles:
            bundle.reset()

    def snapshot_state(self) -> dict:
        """Snapshot clock, bundles and all components (for rollback)."""
        return {
            "clock": self.clock.snapshot(),
            "bundles": {bundle.name: bundle.snapshot() for bundle in self.bundles},
            "components": {
                component.name: component.snapshot_state() for component in self.components
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        self.clock.restore(state["clock"])
        for bundle in self.bundles:
            if bundle.name in state["bundles"]:
                bundle.restore(state["bundles"][bundle.name])
        for component in self.components:
            if component.name in state["components"]:
                component.restore_state(state["components"][component.name])

    def rollback_variable_count(self) -> int:
        """Total rollback variables across all registered components."""
        return sum(component.rollback_variable_count() for component in self.components)
