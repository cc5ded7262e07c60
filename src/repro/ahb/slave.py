"""AHB bus slaves.

Slaves service data phases: given the registered address phase (and the
write data for writes) they produce ``HREADY`` / ``HRESP`` / ``HRDATA``.

Concrete slaves provided:

* :class:`MemorySlave` -- a word-addressed RAM with configurable wait states.
* :class:`FifoPeripheralSlave` -- a producer/consumer style peripheral whose
  readiness follows a simple fill/drain model.  This is the behaviour the
  paper exploits when it argues that active-slave responses are predictable
  ("they just represent whether the active bus slave can handle [the] bus
  transaction at a particular target time, which can be modeled with a simple
  producer-consumer model").
* :class:`DefaultSlave` -- responds with ERROR to any active transfer, used
  for unmapped address space.

All slaves are snapshotable so they can live in the leader domain.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.component import AbstractionLevel, ClockedComponent
from .signals import AddressPhase, AhbError, DataPhaseResult


class AhbSlave(ClockedComponent):
    """Interface every bus slave implements.

    Snapshots follow the ownership contract of
    :class:`~repro.sim.component.ClockedComponent`: checkpoints keep them by
    reference, so a payload must never alias live mutable state.
    """

    def __init__(self, name: str, slave_id: int, level: AbstractionLevel = AbstractionLevel.TL) -> None:
        super().__init__(name)
        self.slave_id = slave_id
        self.level = level

    def evaluate(self, cycle: int) -> None:  # housekeeping hook
        return

    def data_phase(
        self,
        cycle: int,
        address_phase: AddressPhase,
        hwdata: Optional[int],
        first_cycle: bool,
    ) -> DataPhaseResult:
        """Service one cycle of the data phase for ``address_phase``.

        Called once per cycle while the beat occupies the data phase;
        ``first_cycle`` is True the first time this beat is presented.  The
        slave inserts wait states by returning ``hready=False``.
        """
        raise NotImplementedError

    def trace_signature(self) -> Optional[tuple]:
        """Structural state digest for the periodic trace cache.

        Must cover every piece of state that influences *response shape*
        (wait states, hready/hresp sequencing); payload words are excluded.
        ``None`` (the conservative base implementation) disables trace
        replay for the whole topology.
        """
        return None


@dataclass
class SlaveStats:
    """Per-slave activity counters."""

    reads: int = 0
    writes: int = 0
    wait_states: int = 0
    errors: int = 0

    def as_dict(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "wait_states": self.wait_states,
            "errors": self.errors,
        }


class MemorySlave(AhbSlave):
    """A simple word-addressed memory with configurable wait states.

    The memory stores 32-bit words in a compact ``array('I')`` (plain Python
    ints on access -- much cheaper than per-word numpy scalar boxing on the
    engine hot path).  Sub-word transfer sizes are accepted but are performed
    at word granularity (adequate for the word-oriented traffic the workloads
    generate).

    The memory checkpoints by *dirty-word tracking*: while a checkpoint
    window is open (see
    :meth:`~repro.sim.component.ClockedComponent.open_checkpoint_window`)
    every first write to a word journals its pre-write value, so rolling the
    window back costs O(words touched) instead of O(memory size).
    """

    def __init__(
        self,
        name: str,
        slave_id: int,
        base_address: int,
        size_bytes: int,
        read_wait_states: int = 0,
        write_wait_states: int = 0,
        level: AbstractionLevel = AbstractionLevel.TL,
    ) -> None:
        super().__init__(name, slave_id, level)
        if size_bytes <= 0 or size_bytes % 4 != 0:
            raise AhbError(f"memory size must be a positive multiple of 4, got {size_bytes}")
        self.base_address = base_address
        self.size_bytes = size_bytes
        self.read_wait_states = read_wait_states
        self.write_wait_states = write_wait_states
        self._words = array("I", bytes(size_bytes))
        self._wait_remaining = 0
        self.stats = SlaveStats()
        #: Undo journal of the open checkpoint window ({index: pre-write
        #: value}), ``None`` when no window is open.
        self._undo: Optional[Dict[int, int]] = None

    # -- direct access (used by tests and workload setup) --------------------
    def _index(self, address: int) -> int:
        offset = address - self.base_address
        if offset < 0 or offset >= self.size_bytes:
            raise AhbError(
                f"address {address:#x} outside memory {self.name!r} "
                f"[{self.base_address:#x}, {self.base_address + self.size_bytes:#x})"
            )
        return offset // 4

    def read_word(self, address: int) -> int:
        return self._words[self._index(address)]

    def write_word(self, address: int, value: int) -> None:
        index = self._index(address)
        undo = self._undo
        if undo is not None and index not in undo:
            undo[index] = self._words[index]
        self._words[index] = value & 0xFFFFFFFF

    def load(self, address: int, values: list[int]) -> None:
        """Bulk-initialise memory starting at ``address``."""
        for offset, value in enumerate(values):
            self.write_word(address + 4 * offset, value)

    # -- AhbSlave interface ----------------------------------------------------
    def data_phase(
        self,
        cycle: int,
        address_phase: AddressPhase,
        hwdata: Optional[int],
        first_cycle: bool,
    ) -> DataPhaseResult:
        wait_states = self.write_wait_states if address_phase.hwrite else self.read_wait_states
        if first_cycle:
            self._wait_remaining = wait_states
        if self._wait_remaining > 0:
            self._wait_remaining -= 1
            self.stats.wait_states += 1
            return DataPhaseResult.wait()
        if address_phase.hwrite:
            if hwdata is None:
                raise AhbError(f"memory {self.name!r}: write beat without write data")
            self.write_word(address_phase.haddr, hwdata)
            self.stats.writes += 1
            return DataPhaseResult.okay()
        value = self.read_word(address_phase.haddr)
        self.stats.reads += 1
        return DataPhaseResult.okay(hrdata=value)

    def trace_signature(self) -> Optional[tuple]:
        # Response shape depends only on hwrite (per-slave constant wait
        # counts) and the wait countdown; memory contents flow through the
        # live read/write calls during replay.
        return (self._wait_remaining,)

    # -- rollback support -------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "words": self._words[:],
            "wait_remaining": self._wait_remaining,
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, state: dict) -> None:
        # The words array is copied here, so the snapshot stays read-only.
        self._words = state["words"][:]
        self._wait_remaining = state["wait_remaining"]
        self.stats = SlaveStats(**state["stats"])

    def rollback_variable_count(self) -> int:
        return len(self._words) + 1

    # -- checkpoint window (dirty-word journal) ---------------------------------
    def open_checkpoint_window(self) -> dict:
        """Start journalling writes; returns the scalar sidecar state."""
        self._undo = {}
        return {
            "wait_remaining": self._wait_remaining,
            "stats": self.stats.as_dict(),
        }

    def rewind_checkpoint_window(self, token: dict, redo: bool = False) -> Optional[dict]:
        """Undo every write since :meth:`open_checkpoint_window` (reverse
        delta) and restore the scalar sidecar; the window is closed.

        The redo token holds only the journalled words' current values (every
        other word is unchanged since the window opened) plus the sidecar.
        """
        undo = self._undo
        if undo is None:
            raise AhbError(f"memory {self.name!r}: no checkpoint window open")
        words = self._words
        state = None
        if redo:
            state = {
                "words": {index: words[index] for index in undo},
                "wait_remaining": self._wait_remaining,
                "stats": self.stats.as_dict(),
            }
        for index, value in undo.items():
            words[index] = value
        self._undo = None
        self._wait_remaining = token["wait_remaining"]
        self.stats = SlaveStats(**token["stats"])
        return state

    def redo_checkpoint_window(self, state: dict) -> None:
        """Write the discarded words back, journalling each changed word into
        the open window (a later rewind still returns to its start)."""
        undo = self._undo
        words = self._words
        for index, value in state["words"].items():
            current = words[index]
            if current != value:
                if undo is not None and index not in undo:
                    undo[index] = current
                words[index] = value
        self._wait_remaining = state["wait_remaining"]
        self.stats = SlaveStats(**state["stats"])

    def close_checkpoint_window(self, token: dict) -> None:
        """Drop the journal, keeping the current state (window committed)."""
        self._undo = None

    def reset(self) -> None:
        super().reset()
        self._words = array("I", bytes(self.size_bytes))
        self._wait_remaining = 0
        self.stats = SlaveStats()
        self._undo = None


class FifoPeripheralSlave(AhbSlave):
    """A producer/consumer peripheral.

    Reads pop from an internal FIFO that refills at ``produce_period`` (one
    new word every N cycles); writes push into the FIFO which drains at
    ``consume_period``.  When the FIFO cannot service the access the slave
    inserts wait states.  The resulting HREADY pattern is exactly the kind of
    behaviour the paper's producer-consumer response predictor targets.
    """

    def __init__(
        self,
        name: str,
        slave_id: int,
        depth: int = 8,
        produce_period: int = 4,
        consume_period: int = 4,
        initial_fill: int = 0,
        level: AbstractionLevel = AbstractionLevel.RTL,
    ) -> None:
        super().__init__(name, slave_id, level)
        if depth <= 0:
            raise AhbError("FIFO depth must be positive")
        self.depth = depth
        self.produce_period = max(1, produce_period)
        self.consume_period = max(1, consume_period)
        self.fill = min(initial_fill, depth)
        self._produce_counter = 0
        self._consume_counter = 0
        self._next_value = 0
        self.stats = SlaveStats()

    def evaluate(self, cycle: int) -> None:
        """Per-cycle producer/consumer housekeeping."""
        self._produce_counter += 1
        if self._produce_counter >= self.produce_period:
            self._produce_counter = 0
            if self.fill < self.depth:
                self.fill += 1
        self._consume_counter += 1
        if self._consume_counter >= self.consume_period:
            self._consume_counter = 0
            if self.fill > 0 and self._pending_drain:
                self.fill -= 1

    @property
    def _pending_drain(self) -> bool:
        # Written data is drained by the consumer side; model keeps it simple
        # by always draining when non-empty.
        return True

    def data_phase(
        self,
        cycle: int,
        address_phase: AddressPhase,
        hwdata: Optional[int],
        first_cycle: bool,
    ) -> DataPhaseResult:
        if address_phase.hwrite:
            if self.fill >= self.depth:
                self.stats.wait_states += 1
                return DataPhaseResult.wait()
            self.fill += 1
            self.stats.writes += 1
            return DataPhaseResult.okay()
        if self.fill <= 0:
            self.stats.wait_states += 1
            return DataPhaseResult.wait()
        self.fill -= 1
        self.stats.reads += 1
        value = self._next_value
        self._next_value = (self._next_value + 1) & 0xFFFFFFFF
        return DataPhaseResult.okay(hrdata=value)

    def snapshot_state(self) -> dict:
        return {
            "fill": self.fill,
            "produce_counter": self._produce_counter,
            "consume_counter": self._consume_counter,
            "next_value": self._next_value,
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, state: dict) -> None:
        self.fill = state["fill"]
        self._produce_counter = state["produce_counter"]
        self._consume_counter = state["consume_counter"]
        self._next_value = state["next_value"]
        self.stats = SlaveStats(**state["stats"])

    def reset(self) -> None:
        super().reset()
        self.fill = 0
        self._produce_counter = 0
        self._consume_counter = 0
        self._next_value = 0
        self.stats = SlaveStats()


class DefaultSlave(AhbSlave):
    """The default slave: ERROR response to any active transfer.

    AHB requires a two-cycle ERROR response (first cycle HREADY low with
    HRESP=ERROR, second cycle HREADY high with HRESP=ERROR).
    """

    def __init__(self, name: str = "default_slave", slave_id: int = -1) -> None:
        super().__init__(name, slave_id, AbstractionLevel.TL)
        self._in_second_cycle = False
        self.stats = SlaveStats()

    def data_phase(
        self,
        cycle: int,
        address_phase: AddressPhase,
        hwdata: Optional[int],
        first_cycle: bool,
    ) -> DataPhaseResult:
        if first_cycle:
            self._in_second_cycle = False
        if not self._in_second_cycle:
            self._in_second_cycle = True
            self.stats.errors += 1
            return DataPhaseResult.error_first_cycle()
        self._in_second_cycle = False
        return DataPhaseResult.error_second_cycle()

    def trace_signature(self) -> Optional[tuple]:
        # ``_in_second_cycle`` is fully determined by the bus-core state the
        # trace controller already digests (data-phase route + first_cycle),
        # and a period whose data phase reaches the default slave is rejected
        # at template build; the digest itself is therefore constant.
        return ()

    def snapshot_state(self) -> dict:
        return {"in_second_cycle": self._in_second_cycle, "stats": self.stats.as_dict()}

    def restore_state(self, state: dict) -> None:
        self._in_second_cycle = state["in_second_cycle"]
        self.stats = SlaveStats(**state["stats"])

    def reset(self) -> None:
        super().reset()
        self._in_second_cycle = False
        self.stats = SlaveStats()
