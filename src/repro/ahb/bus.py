"""The AHB bus interconnect.

Two layers live here:

* :class:`AhbBusCore` -- the registered protocol state (granted master, data
  phase, latched requests) and the state-update rules.  Both the monolithic
  reference bus and the two half bus models of the split co-emulated system
  embed an identical core, which is what guarantees that the two halves of a
  split bus make identical arbitration/decoding decisions from identical
  inputs (the paper's argument for excluding arbiter/decoder outputs from the
  exchanged signal set).

* :class:`AhbBus` -- the monolithic reference interconnect that owns all
  masters and slaves locally.  It is used as the golden model in functional
  equivalence tests: the split, co-emulated system must produce the same
  transaction stream.

The per-cycle protocol is evaluated in three steps, which is also the way
values cross the simulator-accelerator boundary in the split model:

1. **drive** -- every master drives HBUSREQ; the granted master drives its
   address/control phase; the owner of the current data phase drives HWDATA
   if it is a write.
2. **respond** -- the slave selected by the data-phase address produces
   HREADY / HRESP / HRDATA.
3. **commit** -- masters are notified of accepted address phases and
   completed data phases, and the registered state advances (data phase
   register, arbitration, latched requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..sim.component import ClockedComponent
from .arbiter import Arbiter, ArbitrationPolicy, FixedPriorityPolicy
from .decoder import AddressDecoder
from .master import AhbMaster
from .monitor import AhbProtocolMonitor
from .signals import (
    AddressPhase,
    AhbError,
    BusCycleRecord,
    DataPhaseResult,
    HBurst,
    HTrans,
)
from .slave import AhbSlave, DefaultSlave
from .transaction import CompletedBeat, TransactionRecorder


@dataclass(slots=True)
class DriveValues:
    """Everything driven onto the bus before the slave responds."""

    requests: Dict[int, bool]
    address_phase: AddressPhase
    hwdata: Optional[int] = None
    interrupts: Dict[str, bool] = field(default_factory=dict)


class DataPhaseInfo:
    """Static facts about the current cycle's data phase, derived from
    registered state at the start of the cycle.

    Immutable by convention; a plain ``__slots__`` class because one is
    built per active cycle on the engine hot path (frozen-dataclass
    construction pays ``object.__setattr__`` per field).
    """

    __slots__ = (
        "active",
        "owner_master_id",
        "slave_id",
        "is_write",
        "first_cycle",
        "address_phase",
    )

    def __init__(
        self,
        active: bool,
        owner_master_id: Optional[int],
        slave_id: Optional[int],
        is_write: bool,
        first_cycle: bool,
        address_phase: Optional[AddressPhase],
    ) -> None:
        self.active = active
        self.owner_master_id = owner_master_id
        self.slave_id = slave_id
        self.is_write = is_write
        self.first_cycle = first_cycle
        self.address_phase = address_phase


#: Shared instance for cycles with no active data phase (the most common
#: shape); ``DataPhaseInfo`` is frozen so reuse is safe.
_INACTIVE_DATA_PHASE_INFO = DataPhaseInfo(
    active=False,
    owner_master_id=None,
    slave_id=None,
    is_write=False,
    first_cycle=True,
    address_phase=None,
)


class AhbBusCore:
    """Registered AHB state shared by the monolithic and half bus models."""

    def __init__(
        self,
        arbiter: Arbiter,
        decoder: AddressDecoder,
        master_ids: List[int],
    ) -> None:
        self.arbiter = arbiter
        self.decoder = decoder
        self.master_ids = list(master_ids)
        self.data_phase: Optional[AddressPhase] = None
        self.data_phase_first_cycle = True
        self.latched_requests: Dict[int, bool] = {mid: False for mid in master_ids}
        self._burst_beats_done = 0
        self._info_cache: Optional[DataPhaseInfo] = None

    # -- introspection at the start of a cycle --------------------------------
    @property
    def granted_master(self) -> int:
        return self.arbiter.current_grant

    def data_phase_info(self) -> DataPhaseInfo:
        """Describe the data phase that will be serviced this cycle.

        The result only depends on registered state, so it is computed once
        per cycle and memoized; :meth:`commit_cycle` (and any state mutation:
        reset / restore) invalidates the cache.
        """
        info = self._info_cache
        if info is not None:
            return info
        phase = self.data_phase
        if phase is None or not phase.is_active:
            info = _INACTIVE_DATA_PHASE_INFO
        else:
            info = DataPhaseInfo(
                active=True,
                owner_master_id=phase.master_id,
                slave_id=self.decoder.select(phase.haddr),
                is_write=phase.hwrite,
                first_cycle=self.data_phase_first_cycle,
                address_phase=phase,
            )
        self._info_cache = info
        return info

    # -- state update at the end of a cycle ------------------------------------
    def commit_cycle(
        self,
        cycle: int,
        drive: DriveValues,
        response: DataPhaseResult,
        record: Optional[BusCycleRecord] = None,
    ) -> BusCycleRecord:
        """Advance registered state; returns the cycle record.

        Takes ownership of ``drive.requests``: the merged request dict is
        built fresh for every cycle by the merge step, is never mutated after
        commit, and serves both the cycle record and the latched-request
        register without a defensive copy.

        ``record`` may be a pre-built cycle record shared across the
        replicated cores of a lock-step N-domain commit (all cores agree on
        every field); when omitted the record is built here.
        """
        requests_copy = drive.requests
        if record is None:
            record = BusCycleRecord(
                cycle=cycle,
                granted_master=self.arbiter.current_grant,
                address_phase=drive.address_phase,
                data_phase=self.data_phase,
                hwdata=drive.hwdata,
                response=response,
                requests=requests_copy,
            )
        if response.hready:
            accepted = drive.address_phase
            if accepted is not None and accepted.is_active:
                # Inlined _track_burst (hot path: once per accepted beat).
                htrans = accepted.htrans
                if htrans is HTrans.NONSEQ:
                    self._burst_beats_done = 1
                elif htrans is HTrans.SEQ:
                    self._burst_beats_done += 1
                self.data_phase = accepted
            else:
                self.data_phase = None
            self.data_phase_first_cycle = True
            if self._may_rearbitrate(accepted, drive.requests):
                self.arbiter.arbitrate(drive.requests)
        else:
            self.data_phase_first_cycle = False
        self.latched_requests = requests_copy
        self._info_cache = None
        return record

    def _track_burst(self, accepted: AddressPhase) -> None:
        if accepted.htrans is HTrans.NONSEQ:
            self._burst_beats_done = 1
        elif accepted.htrans is HTrans.SEQ:
            self._burst_beats_done += 1

    def _may_rearbitrate(self, accepted: Optional[AddressPhase], requests: Dict[int, bool]) -> bool:
        """Re-arbitration is allowed at burst boundaries and on idle cycles."""
        if accepted is None or not accepted.is_active:
            return True
        fixed_beats = accepted.hburst.beats
        if fixed_beats is not None and self._burst_beats_done >= fixed_beats:
            return True
        if accepted.hburst in (HBurst.SINGLE,):
            return True
        # Undefined-length INCR bursts release the bus when the master stops
        # requesting.
        if accepted.hburst is HBurst.INCR and not requests.get(accepted.master_id, False):
            return True
        return False

    # -- reset / rollback --------------------------------------------------------
    def reset(self) -> None:
        self.arbiter.reset()
        self.data_phase = None
        self.data_phase_first_cycle = True
        self.latched_requests = {mid: False for mid in self.master_ids}
        self._burst_beats_done = 0
        self._info_cache = None

    def snapshot(self) -> dict:
        """Owned payload: the ``AddressPhase`` is frozen and stored by
        reference; the request dict is a fresh copy."""
        return {
            "arbiter": self.arbiter.snapshot(),
            "data_phase": self.data_phase,
            "data_phase_first_cycle": self.data_phase_first_cycle,
            "latched_requests": dict(self.latched_requests),
            "burst_beats_done": self._burst_beats_done,
        }

    def restore(self, state: dict) -> None:
        self.arbiter.restore(state["arbiter"])
        self.data_phase = state["data_phase"]
        self.data_phase_first_cycle = state["data_phase_first_cycle"]
        self.latched_requests = dict(state["latched_requests"])
        self._burst_beats_done = state["burst_beats_done"]
        self._info_cache = None


class AhbBus(ClockedComponent):
    """The monolithic reference bus: all masters and slaves are local."""

    def __init__(
        self,
        name: str = "ahb_bus",
        policy: Optional[ArbitrationPolicy] = None,
        default_master_id: Optional[int] = None,
        enable_monitor: bool = True,
    ) -> None:
        super().__init__(name)
        self.masters: Dict[int, AhbMaster] = {}
        self.slaves: Dict[int, AhbSlave] = {}
        self.decoder = AddressDecoder()
        self.default_slave = DefaultSlave()
        self.decoder.default_slave_id = self.default_slave.slave_id
        self.slaves[self.default_slave.slave_id] = self.default_slave
        self._policy = policy
        self._default_master_id = default_master_id
        self.core: Optional[AhbBusCore] = None
        self.recorder = TransactionRecorder()
        self.records: List[BusCycleRecord] = []
        self.monitor = AhbProtocolMonitor() if enable_monitor else None
        self._tick_order: List[ClockedComponent] = []

    # -- construction -------------------------------------------------------------
    def add_master(self, master: AhbMaster) -> AhbMaster:
        if master.master_id in self.masters:
            raise AhbError(f"duplicate master id {master.master_id}")
        self.masters[master.master_id] = master
        return master

    def add_slave(self, slave: AhbSlave, base: int, size: int) -> AhbSlave:
        if slave.slave_id in self.slaves:
            raise AhbError(f"duplicate slave id {slave.slave_id}")
        self.slaves[slave.slave_id] = slave
        self.decoder.add_region(base, size, slave.slave_id, name=slave.name)
        return slave

    def finalize(self) -> None:
        """Build the arbiter / core once all masters and slaves are added."""
        if self.core is not None:
            return
        if not self.masters:
            raise AhbError("bus has no masters")
        master_ids = sorted(self.masters)
        default_master = (
            self._default_master_id if self._default_master_id is not None else master_ids[0]
        )
        policy = self._policy or FixedPriorityPolicy(master_ids)
        arbiter = Arbiter(policy=policy, default_master=default_master)
        self.core = AhbBusCore(arbiter=arbiter, decoder=self.decoder, master_ids=master_ids)
        self._tick_order = list(self.masters.values()) + list(self.slaves.values())

    # -- per-cycle protocol ----------------------------------------------------------
    def evaluate(self, cycle: int) -> None:
        if self.core is None:
            self.finalize()
        assert self.core is not None
        core = self.core

        for component in self._tick_order:
            component.tick(cycle)

        info = core.data_phase_info()
        drive = self._collect_drive(cycle, core, info)
        response = self._collect_response(cycle, info, drive)
        self._notify_masters(cycle, core, info, drive, response)
        record = core.commit_cycle(cycle, drive, response)
        self.records.append(record)
        if self.monitor is not None:
            self.monitor.check(record)
        self._record_completed_beat(cycle, info, drive, response)

    def _collect_drive(self, cycle: int, core: AhbBusCore, info: DataPhaseInfo) -> DriveValues:
        requests = {mid: master.drive_hbusreq(cycle) for mid, master in self.masters.items()}
        granted = core.granted_master
        address_phase = self.masters[granted].drive_address_phase(cycle, granted=True)
        hwdata = None
        if info.active and info.is_write:
            owner = self.masters[info.owner_master_id]
            hwdata = owner.drive_hwdata(info.address_phase)
        return DriveValues(requests=requests, address_phase=address_phase, hwdata=hwdata)

    def _collect_response(
        self, cycle: int, info: DataPhaseInfo, drive: DriveValues
    ) -> DataPhaseResult:
        if not info.active:
            return DataPhaseResult.okay()
        slave = self.slaves[info.slave_id]
        return slave.data_phase(cycle, info.address_phase, drive.hwdata, info.first_cycle)

    def _notify_masters(
        self,
        cycle: int,
        core: AhbBusCore,
        info: DataPhaseInfo,
        drive: DriveValues,
        response: DataPhaseResult,
    ) -> None:
        if not response.hready:
            return
        if info.active:
            owner = self.masters[info.owner_master_id]
            owner.on_data_phase_done(cycle, info.address_phase, response)
        accepted = drive.address_phase
        if accepted is not None and accepted.is_active:
            self.masters[accepted.master_id].on_address_accepted(cycle, accepted)

    def _record_completed_beat(
        self,
        cycle: int,
        info: DataPhaseInfo,
        drive: DriveValues,
        response: DataPhaseResult,
    ) -> None:
        if not (info.active and response.hready):
            return
        phase = info.address_phase
        assert phase is not None
        self.recorder.record_beat(
            CompletedBeat(
                cycle=cycle,
                master_id=phase.master_id,
                address=phase.haddr,
                write=phase.hwrite,
                data=drive.hwdata if phase.hwrite else response.hrdata,
                hresp=response.hresp,
                hburst=phase.hburst,
                hsize=phase.hsize,
                first_beat=phase.htrans is HTrans.NONSEQ,
            )
        )

    # -- helpers ------------------------------------------------------------------------
    def all_masters_done(self) -> bool:
        """True when every master reporting a ``done`` property is done."""
        done_flags = [
            master.done for master in self.masters.values() if hasattr(master, "done")
        ]
        return all(done_flags) if done_flags else True

    def reset(self) -> None:
        super().reset()
        for component in list(self.masters.values()) + list(self.slaves.values()):
            component.reset()
        if self.core is not None:
            self.core.reset()
        self.recorder = TransactionRecorder()
        self.records.clear()
        if self.monitor is not None:
            self.monitor.reset()

    def snapshot_state(self) -> dict:
        assert self.core is not None
        return {
            "core": self.core.snapshot(),
            "masters": {mid: m.snapshot_state() for mid, m in self.masters.items()},
            "slaves": {sid: s.snapshot_state() for sid, s in self.slaves.items()},
            "recorder": self.recorder.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        assert self.core is not None
        self.core.restore(state["core"])
        for mid, m_state in state["masters"].items():
            self.masters[mid].restore_state(m_state)
        for sid, s_state in state["slaves"].items():
            self.slaves[sid].restore_state(s_state)
        self.recorder.restore(state["recorder"])
