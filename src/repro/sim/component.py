"""Base classes for clocked components.

Every block in the reproduced system -- bus masters, bus slaves, arbiters,
half-bus models, channel wrappers -- is a :class:`ClockedComponent`: it is
evaluated exactly once per target clock cycle and may expose state for
checkpointing (rollback support).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from enum import Enum
from typing import Any, ClassVar, Dict, Iterable, Optional


class Domain(str):
    """An open verification-domain identifier.

    The paper splits the SoC into a *simulation domain* (transaction-level
    blocks executed by the software simulator) and an *acceleration domain*
    (RTL blocks executed by the hardware accelerator).  Those two remain the
    canonical aliases :attr:`Domain.SIMULATOR` / :attr:`Domain.ACCELERATOR`,
    but a topology may declare any number of domains (several accelerators
    attached to one simulation host, simulator-only partitions, ...), each
    identified by an arbitrary id such as ``Domain("acc0")``.

    Instances are interned: ``Domain("simulator") is Domain.SIMULATOR`` holds,
    so identity comparisons written against the old two-member enum keep
    working, as do equality comparisons against plain strings.  What a domain
    *is* (simulator or accelerator, how fast, how it checkpoints) lives in
    :class:`repro.core.topology.DomainSpec`, not in the id.
    """

    __slots__ = ()

    _interned: ClassVar[Dict[str, "Domain"]] = {}

    SIMULATOR: ClassVar["Domain"]
    ACCELERATOR: ClassVar["Domain"]

    def __new__(cls, value: str) -> "Domain":
        if isinstance(value, Domain):
            return value
        interned = cls._interned.get(value)
        if interned is None:
            if not isinstance(value, str) or not value or value != value.strip():
                raise ValueError(f"invalid domain id {value!r}")
            interned = super().__new__(cls, value)
            cls._interned[value] = interned
        return interned

    @property
    def value(self) -> str:
        """The id as a plain string (enum-era spelling, kept for callers)."""
        return str(self)

    def __repr__(self) -> str:
        return f"Domain({str(self)!r})"


Domain.SIMULATOR = Domain("simulator")
Domain.ACCELERATOR = Domain("accelerator")


class AbstractionLevel(str, Enum):
    """Modelling abstraction of a block: transaction level or RTL."""

    TL = "tl"
    RTL = "rtl"


class ClockedComponent(ABC):
    """A component evaluated once per rising clock edge.

    Subclasses implement :meth:`evaluate`, which reads committed signal
    values / input structures and produces outputs for the current cycle.
    Components that participate in rollback additionally implement
    :meth:`snapshot_state` and :meth:`restore_state`, under one ownership
    contract: (a) every :meth:`snapshot_state` payload is *owned* by the
    caller -- freshly allocated containers, immutable scalars and frozen
    dataclasses only, never aliases of live mutable state -- and (b)
    :meth:`restore_state` treats the payload as read-only, copying anything
    it intends to mutate.  Checkpoints therefore keep payloads by reference.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cycle_count = 0

    @abstractmethod
    def evaluate(self, cycle: int) -> None:
        """Perform this component's work for target clock cycle ``cycle``."""

    def reset(self) -> None:
        """Return the component to its power-on state."""
        self.cycle_count = 0

    def tick(self, cycle: int) -> None:
        """Kernel entry point: bookkeeping plus :meth:`evaluate`."""
        self.evaluate(cycle)
        self.cycle_count += 1

    # -- checkpointing -----------------------------------------------------
    def snapshot_state(self) -> dict:
        """Return a picklable snapshot of all rollback-relevant state.

        The default implementation returns an empty dict, meaning the
        component is stateless with respect to rollback.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Restore state previously produced by :meth:`snapshot_state`."""
        if state:
            raise NotImplementedError(
                f"{type(self).__name__} received a non-empty snapshot but does "
                "not implement restore_state"
            )

    def rollback_variable_count(self) -> int:
        """Number of scalar variables captured by a snapshot.

        The paper's cost model charges state store/restore proportionally to
        the number of rollback variables (it assumes 1000); components report
        their contribution so the orchestrator can budget realistically.
        """
        return _count_scalars(self.snapshot_state())

    # -- checkpoint windows (rb_store / rb_restore) --------------------------
    # Every checkpoint goes through a window.  The defaults below keep the
    # component's snapshot by reference; a component with large state
    # overrides them to journal its own mutations instead (Time-Warp style
    # incremental state saving), so storing is O(1) and rolling back is
    # O(state touched) rather than O(total state).
    def open_checkpoint_window(self) -> Any:
        """Begin a checkpoint window; returns an opaque token.

        The token, passed back to :meth:`rewind_checkpoint_window` or
        :meth:`close_checkpoint_window`, must let the component restore
        exactly the state it had when the window was opened.  The default
        is the component's full snapshot (no journalling).
        """
        return self.snapshot_state()

    def rewind_checkpoint_window(self, token: Any, redo: bool = False) -> Any:
        """Restore the state captured at :meth:`open_checkpoint_window` and
        close the window (``rb_restore``).

        With ``redo`` set, the state being discarded is captured first and
        returned as a *redo token* for :meth:`redo_checkpoint_window`;
        otherwise the return value is ``None``.
        """
        state = self.snapshot_state() if redo else None
        self.restore_state(token)
        return state

    def redo_checkpoint_window(self, state: Any) -> None:
        """Jump forward to the state a ``rewind_checkpoint_window(redo=True)``
        discarded (host-only lazy re-evaluation).

        Called inside a newer open window, once the component has re-executed
        a prefix of the discarded cycles with identical inputs.  Every change
        is journalled into that window, so rewinding it still returns to the
        window's start.  The default restores the captured snapshot; the open
        window's token is an owned snapshot of its own, so it is unaffected.
        """
        self.restore_state(state)

    def close_checkpoint_window(self, token: Any) -> None:
        """Close the window keeping the current state (checkpoint discarded
        after a successful transition).  Default: nothing to clean up."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


def regrow(items, tail: list, length: int) -> None:
    """Redo helper for an append-only history that a rewind truncated.

    ``tail`` holds the entries the rewind dropped (oldest first) and
    ``length`` the history's length before the rewind.  Re-execution has
    re-appended an equal prefix of ``tail``; this appends the rest.
    """
    missing = length - len(items)
    if missing > 0:
        items.extend(tail[len(tail) - missing:])


def _count_scalars(obj: Any) -> int:
    """Recursively count scalar leaves in a snapshot structure."""
    if isinstance(obj, dict):
        return sum(_count_scalars(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_count_scalars(v) for v in obj)
    if isinstance(obj, array):
        return len(obj)
    try:  # numpy arrays expose .size
        size = obj.size  # type: ignore[attr-defined]
    except AttributeError:
        return 1
    return int(size)


class Port:
    """A typed hand-off point between two components evaluated in order.

    Ports carry a value for exactly one cycle; reading clears nothing, but
    the producer is expected to re-drive every cycle.  They are a lightweight
    alternative to full signals for master/slave structures that exchange
    small dataclasses rather than individual wires.
    """

    __slots__ = ("name", "_value", "_valid")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Any = None
        self._valid = False

    def put(self, value: Any) -> None:
        self._value = value
        self._valid = True

    def get(self, default: Any = None) -> Any:
        return self._value if self._valid else default

    @property
    def valid(self) -> bool:
        return self._valid

    def clear(self) -> None:
        self._value = None
        self._valid = False


class ComponentGroup(ClockedComponent):
    """Evaluates an ordered list of components as a unit.

    Used to model one verification domain: the group is the set of components
    that advance together when that domain executes a target clock cycle.
    """

    def __init__(self, name: str, components: Optional[Iterable[ClockedComponent]] = None) -> None:
        super().__init__(name)
        self.components: list[ClockedComponent] = list(components or [])

    def add(self, component: ClockedComponent) -> ClockedComponent:
        self.components.append(component)
        return component

    def evaluate(self, cycle: int) -> None:
        for component in self.components:
            component.tick(cycle)

    def reset(self) -> None:
        super().reset()
        for component in self.components:
            component.reset()

    def snapshot_state(self) -> dict:
        return {component.name: component.snapshot_state() for component in self.components}

    def restore_state(self, state: dict) -> None:
        for component in self.components:
            if component.name in state:
                component.restore_state(state[component.name])

    def rollback_variable_count(self) -> int:
        return sum(component.rollback_variable_count() for component in self.components)

    # -- checkpoint windows: delegate to the members ---------------------------
    def open_checkpoint_window(self) -> dict:
        return {
            component.name: component.open_checkpoint_window()
            for component in self.components
        }

    def rewind_checkpoint_window(self, token: dict, redo: bool = False) -> Optional[dict]:
        states = {}
        for component in self.components:
            if component.name in token:
                states[component.name] = component.rewind_checkpoint_window(
                    token[component.name], redo=redo
                )
        return states if redo else None

    def redo_checkpoint_window(self, state: dict) -> None:
        for component in self.components:
            if component.name in state:
                component.redo_checkpoint_window(state[component.name])

    def close_checkpoint_window(self, token: dict) -> None:
        for component in self.components:
            if component.name in token:
                component.close_checkpoint_window(token[component.name])
