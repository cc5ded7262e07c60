"""AHB bus masters.

A bus master requests the bus, drives address/control phases for the beats
of its transactions, supplies write data during write data phases and
collects read data during read data phases.

The central concrete implementation is :class:`TrafficMaster`, which executes
a queue of :class:`~repro.ahb.transaction.BusTransaction` objects.  Workload
generators (see :mod:`repro.workloads`) produce those queues.  Every master is
fully snapshotable so it can live in the leader domain and be rolled back.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import List, Optional

from ..sim.component import AbstractionLevel, ClockedComponent, regrow
from .burst import BurstTracker, next_beat_address
from .signals import AddressPhase, AhbError, DataPhaseResult, HResp, HTrans
from .transaction import BusTransaction, CompletedTransaction


class AhbMaster(ClockedComponent):
    """Interface every bus master implements.

    The bus calls these methods in a fixed per-cycle order:

    1. :meth:`drive_hbusreq` -- does the master want the bus?
    2. :meth:`drive_address_phase` -- address/control for this cycle
       (only the granted master's values reach the bus).
    3. :meth:`drive_hwdata` -- write data, called during the data phase of a
       write beat owned by this master.
    4. :meth:`on_address_accepted` -- the address phase presented this cycle
       was accepted (HREADY high).
    5. :meth:`on_data_phase_done` -- a data phase owned by this master
       finished (HREADY high), carrying the slave response / read data.

    Snapshots follow the ownership contract of
    :class:`~repro.sim.component.ClockedComponent`: checkpoints keep them by
    reference, so a payload must never alias live mutable state.
    """

    def __init__(self, name: str, master_id: int, level: AbstractionLevel = AbstractionLevel.TL) -> None:
        super().__init__(name)
        self.master_id = master_id
        self.level = level

    def evaluate(self, cycle: int) -> None:  # housekeeping hook; masters are bus-driven
        return

    @abstractmethod
    def drive_hbusreq(self, cycle: int) -> bool:
        """Return True if the master requests the bus this cycle."""

    @abstractmethod
    def drive_address_phase(self, cycle: int, granted: bool) -> AddressPhase:
        """Drive address/control for this cycle.

        Must return an IDLE phase when not granted or when there is nothing
        to transfer.  The same values must be returned on consecutive cycles
        until :meth:`on_address_accepted` is called (HREADY extension).
        """

    def drive_hwdata(self, address_phase: AddressPhase) -> int:
        """Write data for the data phase of ``address_phase`` (writes only)."""
        raise AhbError(f"master {self.name!r} was asked for write data it does not have")

    def on_address_accepted(self, cycle: int, address_phase: AddressPhase) -> None:
        """The address phase driven this cycle was accepted by the bus."""

    def on_data_phase_done(
        self, cycle: int, address_phase: AddressPhase, response: DataPhaseResult
    ) -> None:
        """A data phase owned by this master completed."""

    def activity_lookahead(self, cycle: int) -> float:
        """Earliest future cycle at which this master could start new bus
        activity (Chandy-Misra-Bryant lookahead for the sync gate).

        The base implementation is conservatively ``cycle + 1`` (no
        lookahead); workload-driven masters refine it from their queues.
        """
        return cycle + 1

    def next_activity_cycle(self, cycle: int) -> float:
        """Earliest cycle (>= ``cycle``) at which this master may *be* active.

        Unlike :meth:`activity_lookahead` -- which answers "when can my
        outputs next change?" for the sync gate and may legitimately return
        ``inf`` while a bus request is pending -- this is the quiescence
        horizon for the batch-stepping kernel: the first cycle at which the
        master may request the bus, own a burst, or carry an outstanding data
        phase.  Returning ``cycle`` means "possibly active right now" and
        disables fast-forwarding.  The base implementation is conservative.
        """
        return cycle

    def trace_signature(self, cycle: int, horizon: int) -> Optional[tuple]:
        """Structural state digest for the periodic trace cache.

        Two cycles with equal signatures must make identical *control*
        decisions (bus request, burst progress, phase shape) for the next
        ``horizon`` cycles given identical bus behaviour; data values are
        deliberately excluded (trace replay feeds them through the real
        calls).  ``None`` means this master's state cannot be digested, which
        disables trace replay for the whole topology.  The base
        implementation is conservative.
        """
        return None


class IdleMaster(AhbMaster):
    """A master that never requests the bus.

    Used as the default (parked) master and as a placeholder in domains that
    contain no local masters.
    """

    def drive_hbusreq(self, cycle: int) -> bool:
        return False

    def drive_address_phase(self, cycle: int, granted: bool) -> AddressPhase:
        return AddressPhase.idle_phase(self.master_id)

    def activity_lookahead(self, cycle: int) -> float:
        return float("inf")  # never requests the bus

    def next_activity_cycle(self, cycle: int) -> float:
        return float("inf")  # never active

    def trace_signature(self, cycle: int, horizon: int) -> Optional[tuple]:
        return ("idle",)  # stateless: any two cycles are interchangeable


@dataclass(slots=True)
class _OutstandingBeat:
    """A beat whose address phase was accepted and whose data phase is pending."""

    address_phase: AddressPhase
    beat_index: int
    transaction_index: int


@dataclass
class MasterStats:
    """Per-master activity counters."""

    transactions_issued: int = 0
    transactions_completed: int = 0
    beats_completed: int = 0
    wait_cycles: int = 0
    error_responses: int = 0

    def as_dict(self) -> dict:
        return {
            "transactions_issued": self.transactions_issued,
            "transactions_completed": self.transactions_completed,
            "beats_completed": self.beats_completed,
            "wait_cycles": self.wait_cycles,
            "error_responses": self.error_responses,
        }


class TrafficMaster(AhbMaster):
    """Executes a queue of :class:`BusTransaction` objects beat by beat."""

    def __init__(
        self,
        name: str,
        master_id: int,
        transactions: Optional[List[BusTransaction]] = None,
        level: AbstractionLevel = AbstractionLevel.TL,
    ) -> None:
        super().__init__(name, master_id, level)
        self.queue: List[BusTransaction] = list(transactions or [])
        self.stats = MasterStats()
        # Mutable execution state (all snapshotable).
        self._next_txn_index = 0
        self._tracker: Optional[BurstTracker] = None
        self._active_txn_index: Optional[int] = None
        self._outstanding: List[_OutstandingBeat] = []
        self._read_data: dict[int, List[int]] = {}
        self._completed: List[CompletedTransaction] = []
        self._aborted_txns: set[int] = set()
        # Derived-only cache: the address phases of a transaction's beats are
        # fully determined by the (immutable) transaction, so they are built
        # once per transaction and shared across wait-state extensions and
        # post-rollback replays.  Not part of the snapshot (pure function of
        # the queue).
        self._txn_phases: dict[int, List[AddressPhase]] = {}

    # -- queue management ----------------------------------------------------
    def enqueue(self, transaction: BusTransaction) -> None:
        if transaction.master_id != self.master_id:
            raise AhbError(
                f"transaction for master {transaction.master_id} enqueued on master {self.master_id}"
            )
        self.queue.append(transaction)

    @property
    def completed_transactions(self) -> List[CompletedTransaction]:
        return self._completed

    @property
    def done(self) -> bool:
        """True when every queued transaction has completed (or aborted)."""
        return (
            self._next_txn_index >= len(self.queue)
            and self._tracker is None
            and not self._outstanding
        )

    # -- helpers ---------------------------------------------------------------
    def _current_txn(self) -> Optional[BusTransaction]:
        if self._active_txn_index is None:
            return None
        return self.queue[self._active_txn_index]

    def _ready_txn_available(self, cycle: int) -> bool:
        return (
            self._next_txn_index < len(self.queue)
            and self.queue[self._next_txn_index].issue_cycle <= cycle
        )

    def _start_next_txn(self) -> None:
        txn = self.queue[self._next_txn_index]
        self._active_txn_index = self._next_txn_index
        self._next_txn_index += 1
        self._tracker = BurstTracker.from_first_beat(
            start_addr=txn.address,
            hburst=txn.hburst,
            hsize=txn.hsize,
            beats=txn.n_beats,
        )
        self._read_data[self._active_txn_index] = []
        self.stats.transactions_issued += 1

    # -- AhbMaster interface ---------------------------------------------------
    def drive_hbusreq(self, cycle: int) -> bool:
        # Called once per master per cycle: _ready_txn_available and the
        # tracker.complete property are inlined.
        tracker = self._tracker
        if tracker is not None and tracker.beats_done < tracker.total_beats:
            return True
        index = self._next_txn_index
        queue = self.queue
        return index < len(queue) and queue[index].issue_cycle <= cycle

    def _beat_phases(self, txn_index: int) -> List[AddressPhase]:
        """The (frozen, shared) address phases of one transaction's beats."""
        phases = self._txn_phases.get(txn_index)
        if phases is None:
            txn = self.queue[txn_index]
            addr = txn.address
            phases = []
            for beat in range(txn.n_beats):
                phases.append(
                    AddressPhase(
                        master_id=self.master_id,
                        haddr=addr,
                        htrans=HTrans.NONSEQ if beat == 0 else HTrans.SEQ,
                        hwrite=txn.write,
                        hsize=txn.hsize,
                        hburst=txn.hburst,
                    )
                )
                addr = next_beat_address(addr, txn.hburst, txn.hsize, txn.address)
            self._txn_phases[txn_index] = phases
        return phases

    def drive_address_phase(self, cycle: int, granted: bool) -> AddressPhase:
        if not granted:
            return AddressPhase.idle_phase(self.master_id)
        tracker = self._tracker
        if tracker is None or tracker.complete:
            if tracker is not None and tracker.complete:
                self._tracker = None
            if not self._ready_txn_available(cycle):
                return AddressPhase.idle_phase(self.master_id)
            self._start_next_txn()
            tracker = self._tracker
        assert tracker is not None and self._active_txn_index is not None
        return self._beat_phases(self._active_txn_index)[tracker.beats_done]

    def activity_lookahead(self, cycle: int) -> float:
        if self._tracker is not None or self._outstanding:
            # Mid-burst / data phases in flight: outputs can change next
            # cycle (those changes are caught by change detection anyway).
            return cycle + 1
        index = self._next_txn_index
        queue = self.queue
        if index < len(queue):
            issue = queue[index].issue_cycle
            if issue <= cycle:
                # The bus request is already raised and visible to every
                # peer; the next output change (the address phase once the
                # arbiter grants us) is derivable from shared state and is
                # broadcast by change detection when it happens.  Until then
                # the outputs are provably stable.
                return float("inf")
            return issue
        return float("inf")

    def next_activity_cycle(self, cycle: int) -> float:
        if self._tracker is not None or self._outstanding:
            return cycle  # burst in progress / data phases in flight
        index = self._next_txn_index
        queue = self.queue
        if index < len(queue):
            issue = queue[index].issue_cycle
            return cycle if issue <= cycle else issue
        return float("inf")  # drained

    def trace_signature(self, cycle: int, horizon: int) -> Optional[tuple]:
        """Structural digest: burst FSM + queue position, with *relative*
        transaction indices and the next-issue delay clamped to ``horizon``
        (anything further away cannot influence the next ``horizon`` cycles).
        Addresses and data words are excluded on purpose: replay re-executes
        the real master/slave calls, so only the control shape must recur.
        """
        tracker = self._tracker
        next_index = self._next_txn_index
        queue = self.queue
        if next_index < len(queue):
            delta = queue[next_index].issue_cycle - cycle
            if delta < 0:
                delta = 0
            elif delta > horizon:
                delta = horizon
        else:
            delta = -1  # drained: no future issue
        active = self._active_txn_index
        return (
            None if tracker is None else (tracker.beats_done, tracker.total_beats),
            tuple(
                (beat.beat_index, beat.transaction_index - next_index)
                for beat in self._outstanding
            ),
            None if active is None else active - next_index,
            delta,
        )

    def on_address_accepted(self, cycle: int, address_phase: AddressPhase) -> None:
        tracker = self._tracker
        if tracker is None or self._active_txn_index is None:
            raise AhbError(f"master {self.name!r}: address accepted with no burst in progress")
        beat_index = tracker.beats_done
        # Inlined tracker.accept_beat() minus the address bookkeeping: the
        # beat addresses come from the precomputed per-transaction phase list,
        # so the tracker only has to count beats (current_address recomputes
        # lazily if anything else asks for it).
        tracker.beats_done = beat_index + 1
        tracker._next_addr_cache = None
        self._outstanding.append(
            _OutstandingBeat(
                address_phase=address_phase,
                beat_index=beat_index,
                transaction_index=self._active_txn_index,
            )
        )
        if tracker.beats_done >= tracker.total_beats:
            self._tracker = None
            self._active_txn_index = None

    def drive_hwdata(self, address_phase: AddressPhase) -> int:
        beat = self._find_outstanding(address_phase)
        txn = self.queue[beat.transaction_index]
        if not txn.write:
            raise AhbError(f"master {self.name!r}: write data requested for a read beat")
        return txn.data[beat.beat_index]

    def on_data_phase_done(
        self, cycle: int, address_phase: AddressPhase, response: DataPhaseResult
    ) -> None:
        # Fused find-and-remove with an identity fast path (the data-phase
        # register holds the exact interned phase object that was driven).
        outstanding = self._outstanding
        beat = None
        for index, candidate in enumerate(outstanding):
            if candidate.address_phase is address_phase:
                beat = candidate
                del outstanding[index]
                break
        if beat is None:
            beat = self._find_outstanding(address_phase)
            outstanding.remove(beat)
        txn = self.queue[beat.transaction_index]
        self.stats.beats_completed += 1
        if response.hresp is not HResp.OKAY:
            self.stats.error_responses += 1
            self._aborted_txns.add(beat.transaction_index)
        if not txn.write and response.hrdata is not None:
            read_buffer = self._read_data.get(beat.transaction_index)
            if read_buffer is None:
                read_buffer = self._read_data[beat.transaction_index] = []
            read_buffer.append(response.hrdata)
        if beat.beat_index + 1 == txn.n_beats:
            self._finish_txn(cycle, beat.transaction_index)

    def _finish_txn(self, cycle: int, txn_index: int) -> None:
        txn = self.queue[txn_index]
        data = list(txn.data) if txn.write else list(self._read_data.get(txn_index, []))
        # The read buffer is only needed while the transaction is in flight;
        # dropping it here keeps snapshot size proportional to outstanding
        # work instead of to the total transactions ever issued.
        self._read_data.pop(txn_index, None)
        self._completed.append(
            CompletedTransaction(
                master_id=self.master_id,
                address=txn.address,
                write=txn.write,
                hburst=txn.hburst,
                hsize=txn.hsize,
                data=data,
                start_cycle=txn.issue_cycle,
                end_cycle=cycle,
                responses=[
                    HResp.ERROR if txn_index in self._aborted_txns else HResp.OKAY
                ],
            )
        )
        self.stats.transactions_completed += 1

    def _find_outstanding(self, address_phase: AddressPhase) -> _OutstandingBeat:
        # Identity hit first: phases are interned per transaction beat, so the
        # accepted phase object is normally the exact object driven earlier.
        for beat in self._outstanding:
            if beat.address_phase is address_phase:
                return beat
        for beat in self._outstanding:
            if beat.address_phase == address_phase:
                return beat
        # Fall back to address matching (the phase object may have been
        # reconstructed on the remote side of the channel).
        for beat in self._outstanding:
            if (
                beat.address_phase.haddr == address_phase.haddr
                and beat.address_phase.hwrite == address_phase.hwrite
            ):
                return beat
        raise AhbError(
            f"master {self.name!r}: no outstanding beat matches address "
            f"{address_phase.haddr:#x}"
        )

    # -- rollback support -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Owned payload: ``AddressPhase`` objects are frozen and stored by
        reference, everything else lives in freshly built containers."""
        return {
            "next_txn_index": self._next_txn_index,
            "active_txn_index": self._active_txn_index,
            "tracker": None if self._tracker is None else self._tracker.snapshot(),
            "outstanding": [
                (b.address_phase, b.beat_index, b.transaction_index)
                for b in self._outstanding
            ],
            "read_data": {k: list(v) for k, v in self._read_data.items()},
            "n_completed": len(self._completed),
            "aborted": sorted(self._aborted_txns),
            "stats": self.stats.as_dict(),
        }

    def rewind_checkpoint_window(self, token: dict, redo: bool = False) -> Optional[dict]:
        state = None
        if redo:
            # restore_state only truncates the append-only completed list, so
            # the redo token also carries the entries this rewind drops.
            state = self.snapshot_state()
            state["completed_tail"] = self._completed[token["n_completed"]:]
        self.restore_state(token)
        return state

    def redo_checkpoint_window(self, state: dict) -> None:
        self.restore_state(state)
        regrow(self._completed, state["completed_tail"], state["n_completed"])

    def restore_state(self, state: dict) -> None:
        self._next_txn_index = state["next_txn_index"]
        self._active_txn_index = state["active_txn_index"]
        self._tracker = (
            None if state["tracker"] is None else BurstTracker.from_snapshot(state["tracker"])
        )
        self._outstanding = [
            _OutstandingBeat(
                address_phase=phase,
                beat_index=beat_index,
                transaction_index=txn_index,
            )
            for phase, beat_index, txn_index in state["outstanding"]
        ]
        self._read_data = {k: list(v) for k, v in state["read_data"].items()}
        del self._completed[state["n_completed"]:]
        self._aborted_txns = set(state["aborted"])
        stats = state["stats"]
        self.stats = MasterStats(**stats)

    def reset(self) -> None:
        super().reset()
        self._next_txn_index = 0
        self._tracker = None
        self._active_txn_index = None
        self._outstanding.clear()
        self._read_data.clear()
        self._completed.clear()
        self._aborted_txns.clear()
        self.stats = MasterStats()
