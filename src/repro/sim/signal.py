"""Two-phase signals for the cycle-based kernel.

AHB communication happens on clock edges: every component samples its inputs
and produces new outputs once per cycle.  To avoid order-of-evaluation
artefacts the kernel uses a classic two-phase update: components write the
*next* value of a signal during the evaluate phase, and all signals commit
simultaneously during the update phase.

Signals are intentionally tiny objects; the whole SoC model creates a few
dozen of them, so there is no performance concern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, Iterable, TypeVar

T = TypeVar("T")


class SignalError(ValueError):
    """Raised on illegal signal operations (double drive, bad width)."""


class Signal(Generic[T]):
    """A single-driver, two-phase signal.

    The signal holds a *current* value (visible to readers) and a *next*
    value (written by the driver during evaluation).  :meth:`commit` moves
    next into current.  Writing twice in the same phase is allowed (last
    write wins) which mirrors blocking assignment inside a single process.
    """

    __slots__ = ("name", "_current", "_next", "_driven", "reset_value")

    def __init__(self, name: str, reset_value: T) -> None:
        self.name = name
        self.reset_value = reset_value
        self._current: T = reset_value
        self._next: T = reset_value
        self._driven = False

    @property
    def value(self) -> T:
        """The committed (current-cycle) value."""
        return self._current

    @property
    def next_value(self) -> T:
        """The pending value that will become visible after commit."""
        return self._next if self._driven else self._current

    def drive(self, value: T) -> None:
        """Set the value to be committed at the end of this cycle."""
        self._next = value
        self._driven = True

    def commit(self) -> bool:
        """Promote the pending value; returns True if the value changed."""
        changed = False
        if self._driven:
            changed = self._next != self._current
            self._current = self._next
            self._driven = False
        return changed

    def reset(self) -> None:
        """Return to the reset value immediately (both phases)."""
        self._current = self.reset_value
        self._next = self.reset_value
        self._driven = False

    def snapshot(self) -> tuple:
        """An immutable ``(current, next, driven)`` payload.

        Signal values are expected to be immutable scalars (ints, bools,
        enums), so the tuple is owned by the caller and checkpoints keep it
        by reference (see :class:`~repro.sim.component.ClockedComponent`).
        """
        return (self._current, self._next, self._driven)

    def restore(self, state: tuple) -> None:
        self._current, self._next, self._driven = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Signal({self.name}={self._current!r})"


class SignalBundle:
    """A named collection of :class:`Signal` objects.

    Bundles give components a single object to commit / reset / snapshot and
    make it easy to enumerate the signals crossing the simulator-accelerator
    boundary (the MSABS of the paper).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._signals: dict[str, Signal] = {}

    def add(self, name: str, reset_value: Any = 0) -> Signal:
        if name in self._signals:
            raise SignalError(f"duplicate signal {name!r} in bundle {self.name!r}")
        signal = Signal(f"{self.name}.{name}", reset_value)
        self._signals[name] = signal
        return signal

    def __getitem__(self, name: str) -> Signal:
        return self._signals[name]

    def __contains__(self, name: str) -> bool:
        return name in self._signals

    def __iter__(self):
        return iter(self._signals.values())

    def names(self) -> Iterable[str]:
        return self._signals.keys()

    def values(self) -> dict[str, Any]:
        """Return the committed value of every signal, keyed by short name."""
        return {name: sig.value for name, sig in self._signals.items()}

    def drive_many(self, values: dict[str, Any]) -> None:
        for name, value in values.items():
            self._signals[name].drive(value)

    def commit(self) -> int:
        """Commit every signal; returns the number of signals that changed."""
        return sum(1 for sig in self._signals.values() if sig.commit())

    def reset(self) -> None:
        for sig in self._signals.values():
            sig.reset()

    def snapshot(self) -> dict:
        """A fresh dict of per-signal tuples (an owned payload)."""
        return {name: sig.snapshot() for name, sig in self._signals.items()}

    def restore(self, state: dict) -> None:
        for name, sig_state in state.items():
            self._signals[name].restore(sig_state)


@dataclass
class WatchedValue(Generic[T]):
    """A value cell that records every change, for traces and assertions."""

    name: str
    value: T
    history: list[tuple[int, T]] = field(default_factory=list)
    on_change: Callable[[int, T, T], None] | None = None

    def set(self, cycle: int, value: T) -> None:
        if value != self.value:
            old = self.value
            self.value = value
            self.history.append((cycle, value))
            if self.on_change is not None:
                self.on_change(cycle, old, value)

    def changes(self) -> list[tuple[int, T]]:
        return list(self.history)
