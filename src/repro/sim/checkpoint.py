"""State checkpointing for 'prediction and rollback'.

The optimistic scheme requires the *leader* domain to store its state before
running ahead (the ``rb_store`` operation, state P-5 of the channel-wrapper
state machine) and to restore it when a prediction error is detected
(``rb_restore``, S-6).

Every component checkpoints through one protocol, the *checkpoint window*
(see :meth:`~repro.sim.component.ClockedComponent.open_checkpoint_window`):
``rb_store`` opens a window on each managed component and keeps the token it
returns; ``rb_restore`` rewinds each window to its token, and a discarded
checkpoint closes them.  The base class's window is the component's own
snapshot, taken and restored by reference -- every ``snapshot_state()``
payload is owned by the caller (fresh containers, immutable values, frozen
dataclasses) and ``restore_state()`` treats it as read-only.  Components with
large state journal their own mutations instead (Time-Warp style
incremental state saving: a memory records each first write), so a store is
O(1) on the host and a rollback costs O(state touched).

The protocol needs exactly one outstanding checkpoint: the leader stores at
the start of each transition and either discards or restores it before the
next.  A second store while one is outstanding is a :class:`CheckpointError`.
A restore may additionally ask each window for a *redo token* -- the state
the rewind discards (``restore(redo=True)``).  That is not a second
checkpoint: it is host-only (no modelled cost, no :class:`CheckpointStats`
entry) and lets the optimistic engine's lazy re-evaluation jump a
re-executed component forward to the discarded run-ahead state later, via
``redo_checkpoint_window`` inside the next transition's open window (see
:mod:`repro.core.optimistic`).  Memories keep only their journalled words in
it, never a full copy.

The manager also counts rollback variables and charges store/restore time to
the wall-clock ledger through a :class:`StateCostModel`; the modelled times
depend only on the variable count, never on the host mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .component import ClockedComponent


class CheckpointError(RuntimeError):
    """Raised when store/restore is used inconsistently."""


@dataclass(frozen=True)
class StateCostModel:
    """Time cost of storing / restoring one checkpoint.

    The paper charges store/restore proportionally to the number of rollback
    variables (its experiments assume 1000 variables).  The per-variable
    costs differ between the two domains: the accelerator stores state in
    hardware (shadow registers / on-board RAM copy, effectively parallel and
    very fast) whereas the simulator stores state by copying host memory.

    Default constants are calibrated so the analytical model reproduces the
    paper's Table 2 and SLA numbers; see EXPERIMENTS.md.
    """

    store_time_per_variable: float
    restore_time_per_variable: float
    fixed_store_overhead: float = 0.0
    fixed_restore_overhead: float = 0.0

    def store_time(self, n_variables: int) -> float:
        return self.fixed_store_overhead + n_variables * self.store_time_per_variable

    def restore_time(self, n_variables: int) -> float:
        return self.fixed_restore_overhead + n_variables * self.restore_time_per_variable


#: Cost of checkpointing inside the accelerator (hardware-assisted copy).
ACCELERATOR_STATE_COSTS = StateCostModel(
    store_time_per_variable=30e-12,
    restore_time_per_variable=29e-12,
)

#: Cost of checkpointing inside the software simulator (host memcpy).
SIMULATOR_STATE_COSTS = StateCostModel(
    store_time_per_variable=10e-9,
    restore_time_per_variable=9.5e-9,
)


@dataclass
class Checkpoint:
    """A stored state of a set of components at a particular target cycle.

    ``states`` holds one opaque checkpoint-window token per component name.
    """

    cycle: int
    states: dict = field(default_factory=dict)
    n_variables: int = 0
    label: str = ""
    #: Per-component redo tokens, set by ``restore(redo=True)`` only.
    redo: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class CheckpointStats:
    """Counters for checkpoint activity, reported in benchmark output."""

    stores: int = 0
    restores: int = 0
    discarded: int = 0
    variables_stored: int = 0
    variables_restored: int = 0
    store_time: float = 0.0
    restore_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "stores": self.stores,
            "restores": self.restores,
            "discarded": self.discarded,
            "variables_stored": self.variables_stored,
            "variables_restored": self.variables_restored,
            "store_time": self.store_time,
            "restore_time": self.restore_time,
        }


class CheckpointManager:
    """Stores and restores the state of a group of components.

    At most one checkpoint is outstanding at a time: the leader stores at the
    start of each transition and either discards the checkpoint on success or
    restores it on a misprediction.
    """

    def __init__(
        self,
        components: Iterable[ClockedComponent],
        cost_model: StateCostModel,
        rollback_variable_budget: Optional[int] = None,
    ) -> None:
        self.components = list(components)
        self.cost_model = cost_model
        self.rollback_variable_budget = rollback_variable_budget
        self.stats = CheckpointStats()
        self._outstanding: Optional[Checkpoint] = None
        # Cached actual variable count (see variable_count()).
        self._variable_count_cache: Optional[int] = None

    # -- introspection -----------------------------------------------------
    @property
    def depth(self) -> int:
        return 0 if self._outstanding is None else 1

    @property
    def has_checkpoint(self) -> bool:
        return self._outstanding is not None

    @property
    def snapshot_safe(self) -> bool:
        """Whether a durable whole-engine snapshot may be taken right now.

        A durable snapshot (:mod:`repro.core.snapshot`) pickles the live
        component graph; with a rollback checkpoint outstanding that graph
        includes an open speculation -- checkpoint windows whose journals
        are still growing -- and a resume from such a pickle would not replay
        bit-identically.  The engine run loops only offer safe points between
        transitions, so this is ``True`` exactly when the protocol says it
        must be; the snapshot writer asserts it as a belt-and-braces guard.
        """
        return self._outstanding is None

    def variable_count(self) -> int:
        """Number of rollback variables a store captures.

        If an explicit budget was supplied (matching the paper's "1,000
        rollback variables" assumption) the budget wins.  Otherwise the
        components report their snapshot size **once** and the sum is
        cached: the paper's cost model assumes a *fixed* rollback-variable
        set (hardware shadow registers, not transient buffers), so the
        baseline footprint sampled at first use is the right modelled
        quantity -- and re-summing every component on every store was a
        measurable per-transition cost.  Note the per-component counts are
        *not* static (e.g. a master's outstanding-beat buffers grow and
        shrink); the cache deliberately freezes the baseline rather than
        tracking in-flight state.  Call :meth:`invalidate_variable_count`
        after structurally growing a component (e.g. mapping new blocks) to
        force a re-count.
        """
        if self.rollback_variable_budget is not None:
            return self.rollback_variable_budget
        count = self._variable_count_cache
        if count is None:
            count = sum(c.rollback_variable_count() for c in self.components)
            self._variable_count_cache = count
        return count

    def invalidate_variable_count(self) -> None:
        """Drop the cached actual variable count (next call re-sums)."""
        self._variable_count_cache = None

    # -- operations --------------------------------------------------------
    def store(self, cycle: int, label: str = "") -> Checkpoint:
        """Open a checkpoint window on every managed component (``rb_store``).

        The *modelled* store cost (``variable_count`` x the cost model) is
        the paper's rb_store of the rollback variables; how cheaply the host
        captures them does not enter it.
        """
        if self._outstanding is not None:
            raise CheckpointError(
                "store requested while a checkpoint is outstanding; restore or "
                "discard it first"
            )
        checkpoint = Checkpoint(
            cycle=cycle,
            states={c.name: c.open_checkpoint_window() for c in self.components},
            n_variables=self.variable_count(),
            label=label,
        )
        self._outstanding = checkpoint
        self.stats.stores += 1
        self.stats.variables_stored += checkpoint.n_variables
        self.stats.store_time += self.cost_model.store_time(checkpoint.n_variables)
        return checkpoint

    def _take(self, operation: str) -> Checkpoint:
        checkpoint = self._outstanding
        if checkpoint is None:
            raise CheckpointError(f"{operation} requested but no checkpoint is stored")
        self._outstanding = None
        return checkpoint

    def restore(self, redo: bool = False) -> Checkpoint:
        """Rewind every component to the outstanding checkpoint (``rb_restore``).

        With ``redo`` set, each component's redo token (the state the rewind
        discards) lands in the returned checkpoint's ``redo`` map.  Capturing
        it is host work only; the modelled restore cost is unchanged.
        """
        checkpoint = self._take("restore")
        if redo:
            checkpoint.redo = {
                component.name: component.rewind_checkpoint_window(
                    checkpoint.states[component.name], redo=True
                )
                for component in self.components
            }
        else:
            for component in self.components:
                component.rewind_checkpoint_window(checkpoint.states[component.name])
        self.stats.restores += 1
        self.stats.variables_restored += checkpoint.n_variables
        self.stats.restore_time += self.cost_model.restore_time(checkpoint.n_variables)
        return checkpoint

    def discard(self) -> Checkpoint:
        """Drop the outstanding checkpoint, keeping the current state."""
        checkpoint = self._take("discard")
        for component in self.components:
            component.close_checkpoint_window(checkpoint.states[component.name])
        self.stats.discarded += 1
        return checkpoint

    def clear(self) -> None:
        """Drop the outstanding checkpoint, if any, keeping the current state
        (the components stop journalling)."""
        checkpoint, self._outstanding = self._outstanding, None
        if checkpoint is not None:
            for component in self.components:
                component.close_checkpoint_window(checkpoint.states[component.name])

    def last_store_time(self) -> float:
        """Time charged for a single store at the current variable count."""
        return self.cost_model.store_time(self.variable_count())

    def last_restore_time(self) -> float:
        """Time charged for a single restore at the current variable count."""
        return self.cost_model.restore_time(self.variable_count())
