"""Half bus models (HBMS / HBMA) and the domain boundary value containers.

The paper splits the single target bus into two *half bus models*: one in the
simulation domain (HBMS) and one in the acceleration domain (HBMA).  Each
half bus has the structure of a complete bus -- its own arbiter and decoder --
and is connected to the bus components local to its domain.  The components
residing in the *other* domain are mimicked by the channel wrapper, which
supplies their signal values (read from the channel or predicted).

:class:`HalfBusModel` implements one half bus.  Its per-cycle protocol is the
same three-step drive / respond / commit sequence as the monolithic
:class:`~repro.ahb.bus.AhbBus`, but each step only evaluates *local*
components and declares which values must come from the remote domain
(:class:`NeededFields`).  The channel wrapper (see
:mod:`repro.core.wrapper`) is responsible for filling those in.

Because both half bus models embed an identical :class:`AhbBusCore` and are
committed with identical merged values, their registered state (grant, data
phase, latched requests) evolves identically -- unless the leader commits a
*predicted* value that later turns out to be wrong, which is exactly the
situation rollback repairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..sim.component import ClockedComponent, Domain, regrow
from .arbiter import Arbiter, ArbitrationPolicy, FixedPriorityPolicy, RoundRobinPolicy
from .bus import AhbBusCore, DataPhaseInfo, DriveValues
from .decoder import AddressDecoder
from .master import AhbMaster
from .monitor import AhbProtocolMonitor
from .signals import (
    AddressPhase,
    AhbError,
    BusCycleRecord,
    DataPhaseResult,
    HTrans,
)
from .slave import AhbSlave, DefaultSlave
from .transaction import CompletedBeat, TransactionRecorder


@dataclass(slots=True)
class BoundaryDrive:
    """One domain's contribution to the drive step of a target cycle.

    These are the values that may have to cross the simulator-accelerator
    channel: the local masters' bus requests, the active master's
    address/control phase (only if the granted master is local), the active
    write data (only if the data-phase owner is local and the transfer is a
    write) and any interrupt lines driven by local components.
    """

    cycle: int
    requests: Dict[int, bool] = field(default_factory=dict)
    address_phase: Optional[AddressPhase] = None
    hwdata: Optional[int] = None
    interrupts: Dict[str, bool] = field(default_factory=dict)


@dataclass(slots=True)
class BoundaryResponse:
    """One domain's contribution to the respond step of a target cycle."""

    cycle: int
    response: Optional[DataPhaseResult] = None


@dataclass(frozen=True, slots=True)
class NeededFields:
    """What a domain must obtain from the remote domain for one cycle."""

    remote_master_ids: tuple
    needs_remote_requests: bool
    needs_remote_address_phase: bool
    needs_remote_hwdata: bool
    needs_remote_response: bool
    response_is_read: bool
    granted_master_id: Optional[int] = None
    #: Precomputed ``not needs_anything_non_predictable`` (instances are
    #: interned per half bus, so paying this once at construction removes two
    #: attribute reads from every can-predict check).  Derived; excluded from
    #: eq/repr.
    data_free: bool = field(init=False, compare=False, repr=False, default=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "data_free",
            not (
                self.needs_remote_hwdata
                or (self.needs_remote_response and self.response_is_read)
            ),
        )

    @property
    def needs_anything_non_predictable(self) -> bool:
        """True when a non-predictable MSABS value (data) must come from remote."""
        return not self.data_free


def drives_functionally_equal(a: BoundaryDrive, b: BoundaryDrive) -> bool:
    """True when two drive contributions carry the same boundary information.

    The ``cycle`` stamp is deliberately ignored: the activity gate asks "did
    this domain's outputs change since they were last shipped?", and a drive
    that repeats the previous values verbatim carries no new information
    regardless of when it was sampled.
    """
    return (
        a.requests == b.requests
        and a.address_phase == b.address_phase
        and a.hwdata == b.hwdata
        and a.interrupts == b.interrupts
    )


def merge_boundary_drives(drives: List[BoundaryDrive]) -> BoundaryDrive:
    """Fold several remote domains' drive contributions into one.

    In an N-domain topology a host sees N-1 remote contributions per cycle;
    master/slave ownership is disjoint across domains, so requests and
    interrupts union cleanly and at most one contribution carries an active
    address phase or write data.  With a single remote drive the input is
    returned unchanged, which keeps the two-domain path byte-identical.
    """
    if len(drives) == 1:
        return drives[0]
    if not drives:
        raise AhbError("cannot merge an empty set of boundary drives")
    requests: Dict[int, bool] = {}
    interrupts: Dict[str, bool] = {}
    address_phase = None
    hwdata = None
    for drive in drives:
        requests.update(drive.requests)
        interrupts.update(drive.interrupts)
        if address_phase is None:
            address_phase = drive.address_phase
        if hwdata is None:
            hwdata = drive.hwdata
    return BoundaryDrive(
        cycle=drives[0].cycle,
        requests=requests,
        address_phase=address_phase,
        hwdata=hwdata,
        interrupts=interrupts,
    )


#: Interned parameterless OKAY response (module-level bind keeps the idle
#: cycle path free of a staticmethod dispatch).
_OKAY = DataPhaseResult.okay()


#: Shared empty interrupt map used for the (overwhelmingly common) cycles in
#: which a domain drives no interrupt lines.  Treated as immutable by every
#: consumer of a :class:`BoundaryDrive` / :class:`DriveValues`; code that
#: needs to mutate an interrupt map must copy it first.
_NO_INTERRUPTS: Dict[str, bool] = {}


#: Arbitration policies with the all-idle fixed point ``choose({all False})
#: == default_master`` regardless of internal state.  The batch-stepping
#: quiescence detector only fast-forwards buses running one of these; a
#: custom policy falls back to the scalar per-cycle path.
_STATIONARY_POLICIES = (FixedPriorityPolicy, RoundRobinPolicy)


#: How many recent cycle records a half bus retains.  Must exceed the
#: deepest speculative window (LOB depth + 1) so a rollback can trim
#: exactly the speculative records; generous enough for every depth the
#: experiments sweep while keeping 10M-cycle runs at constant memory.
RECORD_HISTORY = 8192


class HalfBusModel(ClockedComponent):
    """One domain's half of the split target bus."""

    def __init__(
        self,
        name: str,
        domain: Domain,
        policy: Optional[ArbitrationPolicy] = None,
        default_master_id: Optional[int] = None,
        enable_monitor: bool = True,
    ) -> None:
        super().__init__(name)
        self.domain = domain
        self.local_masters: Dict[int, AhbMaster] = {}
        self.local_slaves: Dict[int, AhbSlave] = {}
        self.remote_master_ids: List[int] = []
        self.remote_slave_ids: List[int] = []
        self.decoder = AddressDecoder()
        self.default_slave = DefaultSlave(name=f"{name}_default_slave")
        self.decoder.default_slave_id = self.default_slave.slave_id
        self.local_slaves[self.default_slave.slave_id] = self.default_slave
        self._policy = policy
        self._default_master_id = default_master_id
        self.core: Optional[AhbBusCore] = None
        self.recorder = TransactionRecorder()
        # Recent cycle records only: long engine runs must hold constant
        # memory, and rollback never reaches further back than the LOB depth.
        # The monotone counter keeps snapshot/restore trimming exact even
        # though old records age out of the deque.
        self.records: Deque[BusCycleRecord] = deque(maxlen=RECORD_HISTORY)
        self._records_committed = 0
        self.monitor = AhbProtocolMonitor() if enable_monitor else None
        self.interrupt_outputs: Dict[str, bool] = {}
        # Preallocated hot-path structures, built by finalize().
        self._tick_order: List[ClockedComponent] = []
        self._tick_active: List[ClockedComponent] = []
        self._request_drivers: tuple = ()
        self._request_template: Dict[int, bool] = {}
        self._remote_master_tuple: tuple = ()
        self._remote_master_set: frozenset = frozenset()
        self._remote_slave_set: frozenset = frozenset()
        self._needed_cache: Optional[NeededFields] = None
        # Interning table for NeededFields: the value space is tiny (granted
        # master x a few booleans), so each distinct shape is built once per
        # half bus and reused for the lifetime of the run.
        self._needed_intern: Dict[tuple, NeededFields] = {}

    # -- construction --------------------------------------------------------------
    def add_local_master(self, master: AhbMaster) -> AhbMaster:
        self._check_new_master(master.master_id)
        self.local_masters[master.master_id] = master
        return master

    def add_remote_master(self, master_id: int) -> None:
        self._check_new_master(master_id)
        self.remote_master_ids.append(master_id)

    def _check_new_master(self, master_id: int) -> None:
        if master_id in self.local_masters or master_id in self.remote_master_ids:
            raise AhbError(f"duplicate master id {master_id} in half bus {self.name!r}")

    def add_local_slave(self, slave: AhbSlave, base: int, size: int) -> AhbSlave:
        if slave.slave_id in self.local_slaves or slave.slave_id in self.remote_slave_ids:
            raise AhbError(f"duplicate slave id {slave.slave_id} in half bus {self.name!r}")
        self.local_slaves[slave.slave_id] = slave
        self.decoder.add_region(base, size, slave.slave_id, name=slave.name)
        return slave

    def add_remote_slave(self, slave_id: int, base: int, size: int, name: str = "") -> None:
        if slave_id in self.local_slaves or slave_id in self.remote_slave_ids:
            raise AhbError(f"duplicate slave id {slave_id} in half bus {self.name!r}")
        self.remote_slave_ids.append(slave_id)
        self.decoder.add_region(base, size, slave_id, name=name or f"remote_slave_{slave_id}")

    def finalize(self) -> None:
        """Build the arbiter / bus core once the component map is complete."""
        if self.core is not None:
            return
        master_ids = sorted(list(self.local_masters) + self.remote_master_ids)
        if not master_ids:
            raise AhbError(f"half bus {self.name!r} knows of no masters")
        default_master = (
            self._default_master_id if self._default_master_id is not None else master_ids[0]
        )
        policy = self._policy or FixedPriorityPolicy(master_ids)
        arbiter = Arbiter(policy=policy, default_master=default_master)
        self.core = AhbBusCore(arbiter=arbiter, decoder=self.decoder, master_ids=master_ids)
        # The component map is fixed from here on: precompute the structures
        # the per-cycle phase methods would otherwise rebuild every cycle.
        self._tick_order = list(self.local_masters.values()) + list(self.local_slaves.values())
        # Only components with a real per-cycle evaluate() need a tick; the
        # base master/slave evaluates are bus-driven no-ops and skipping them
        # removes two function calls per component per cycle.  Detection is
        # exact (the class attribute must *be* one of the known no-ops), so
        # any subclass overriding evaluate() keeps its tick.
        noops = (AhbMaster.evaluate, AhbSlave.evaluate, ClockedComponent.evaluate)
        self._tick_active = [
            component for component in self._tick_order
            if type(component).evaluate not in noops
        ]
        self._request_drivers = tuple(
            (mid, master.drive_hbusreq) for mid, master in self.local_masters.items()
        )
        self._request_template = dict.fromkeys(master_ids, False)
        self._remote_master_tuple = tuple(self.remote_master_ids)
        self._remote_master_set = frozenset(self.remote_master_ids)
        self._remote_slave_set = frozenset(self.remote_slave_ids)

    # -- ClockedComponent --------------------------------------------------------------
    def evaluate(self, cycle: int) -> None:
        """The half bus is driven through its phase methods, not by a kernel."""
        return

    # -- per-cycle protocol ---------------------------------------------------------------
    def needed_fields(self) -> NeededFields:
        """Describe which remote values are required for the upcoming cycle.

        The result only depends on registered bus-core state, so it is
        memoized until the next commit / restore / reset (the same
        invalidation points as the core's data-phase info cache).
        """
        needed = self._needed_cache
        if needed is not None:
            return needed
        assert self.core is not None, "finalize() must be called first"
        info = self.core.data_phase_info()
        granted = self.core.arbiter.current_grant
        needs_addr = granted in self._remote_master_set
        needs_wdata = (
            info.active and info.is_write and info.owner_master_id in self._remote_master_set
        )
        needs_response = info.active and info.slave_id in self._remote_slave_set
        response_is_read = info.active and not info.is_write
        key = (granted, needs_addr, needs_wdata, needs_response, response_is_read)
        needed = self._needed_intern.get(key)
        if needed is None:
            needed = NeededFields(
                remote_master_ids=self._remote_master_tuple,
                needs_remote_requests=bool(self._remote_master_tuple),
                needs_remote_address_phase=needs_addr,
                needs_remote_hwdata=needs_wdata,
                needs_remote_response=needs_response,
                response_is_read=response_is_read,
                granted_master_id=granted,
            )
            self._needed_intern[key] = needed
        self._needed_cache = needed
        return needed

    def influence_lookahead(self, cycle: int) -> float:
        """Earliest future cycle at which this domain could initiate new bus
        activity of its own accord (Chandy-Misra-Bryant lookahead).

        Derived from the local masters' workload state: a domain whose
        masters are all drained can never initiate again (``inf``); one whose
        next transaction is queued for a future issue cycle is quiet until
        then; anything mid-flight yields the conservative ``cycle + 1``.
        Remote-triggered activity (responses of local slaves) is not counted
        -- the responder ships those explicitly while a data phase is active.
        """
        horizon = float("inf")
        for master in self.local_masters.values():
            candidate = master.activity_lookahead(cycle)
            if candidate < horizon:
                horizon = candidate
                if horizon <= cycle + 1:
                    break
        return horizon

    # -- batch-stepping quiescence support ----------------------------------------
    def idle_stationary(self) -> bool:
        """True when this half bus is at its structural idle fixed point.

        At the fixed point one committed idle cycle maps the registered state
        onto itself: no data phase is in flight, the grant is parked on the
        default master (where the stationary policies keep it under an
        all-False request vector), no local component needs a per-cycle tick
        and no interrupt line is asserted.  Whether the *masters* stay idle is
        a separate, per-cycle question answered by :meth:`next_local_activity`.
        """
        core = self.core
        return (
            core is not None
            and not self._tick_active
            and not self.interrupt_outputs
            and core.data_phase is None
            and core.data_phase_first_cycle
            and core.arbiter.current_grant == core.arbiter.default_master
            and type(core.arbiter.policy) in _STATIONARY_POLICIES
        )

    def trace_signature(self, cycle: int, horizon: int) -> Optional[tuple]:
        """Structural state digest of this half bus for the periodic trace
        cache (see :mod:`repro.core.trace`).

        Combines every local master's and slave's digest; two cycles with
        equal half-bus digests (plus the shared bus-core digest held by the
        trace controller) evolve identically for ``horizon`` cycles when fed
        the same bus-level schedule.  Returns ``None`` -- disabling trace
        replay for the topology -- when any component cannot be digested or
        an interrupt line is asserted (interrupt consumers are not covered).
        """
        parts = []
        for master_id in sorted(self.local_masters):
            sig = self.local_masters[master_id].trace_signature(cycle, horizon)
            if sig is None:
                return None
            parts.append((master_id, sig))
        for slave_id in sorted(self.local_slaves):
            sig = self.local_slaves[slave_id].trace_signature()
            if sig is None:
                return None
            parts.append((slave_id, sig))
        if self.interrupt_outputs:
            return None
        return tuple(parts)

    def next_local_activity(self, cycle: int) -> float:
        """Earliest cycle >= ``cycle`` at which a local master may be active.

        The quiescence horizon companion to :meth:`idle_stationary`: the bus
        stays at its idle fixed point for cycles ``[cycle, horizon)``.
        """
        horizon = float("inf")
        for master in self.local_masters.values():
            candidate = master.next_activity_cycle(cycle)
            if candidate < horizon:
                horizon = candidate
                if horizon <= cycle:
                    break
        return horizon

    def idle_drive(self, cycle: int) -> Optional[BoundaryDrive]:
        """This domain's drive contribution at ``cycle`` if it is all idle.

        The local half of the quiescence probe: every local bus request is
        low and the granted master, when local, drives an inactive phase.
        Returns ``None`` otherwise.  At the :meth:`idle_stationary` fixed
        point the probe has no side effects (no component ticks, and parked
        masters return interned idle phases without starting transactions).
        """
        requests = {mid: drive_req(cycle) for mid, drive_req in self._request_drivers}
        if any(requests.values()):
            return None
        granted_master = self.local_masters.get(self.core.arbiter.current_grant)
        phase = (
            granted_master.drive_address_phase(cycle, granted=True)
            if granted_master is not None
            else None
        )
        if phase is not None and phase.is_active:
            return None
        return BoundaryDrive(
            cycle=cycle,
            requests=requests,
            address_phase=phase,
            hwdata=None,
            interrupts=_NO_INTERRUPTS,
        )

    def commit_idle_cycles(
        self, cycle: int, phases: List[AddressPhase], requests: Dict[int, bool]
    ) -> List[BusCycleRecord]:
        """Commit ``len(phases)`` idle cycles from ``cycle`` in one step.

        Builds the cycles' records -- the current grant, the given merged
        address phase per cycle, no data phase, the interned OKAY and the
        shared all-low ``requests`` map -- and adopts them through
        :meth:`adopt_idle_records`.  Returns the records so lock-step
        replicas can adopt the same objects.
        """
        grant = self.core.arbiter.current_grant
        records = [
            BusCycleRecord(
                cycle=cycle + offset,
                granted_master=grant,
                address_phase=phase,
                data_phase=None,
                hwdata=None,
                response=_OKAY,
                requests=requests,
            )
            for offset, phase in enumerate(phases)
        ]
        self.adopt_idle_records(records, requests)
        return records

    def adopt_idle_records(
        self, records: List[BusCycleRecord], latched_requests: Dict[int, bool]
    ) -> None:
        """Adopt a proven-idle run of committed cycles in one step.

        The caller (the quiescence skip) has verified the bus is
        :meth:`idle_stationary` for the whole run and built the per-cycle
        records (see :meth:`commit_idle_cycles`).  This applies exactly the
        state transitions ``len(records)`` idle :meth:`commit_phase` calls
        would have applied: records and the monotone commit counter advance,
        the monitor adopts the run, the arbiter books one parked all-idle
        decision per cycle (grant unchanged), the latched request vector
        becomes the all-False map, and the per-cycle caches are invalidated.
        Masters receive no callbacks (HREADY is high but nothing is active)
        and the data-phase registers are already at their idle values.
        """
        core = self.core
        assert core is not None
        count = len(records)
        if count == 0:
            return
        self.records.extend(records)
        self._records_committed += count
        if self.monitor is not None:
            self.monitor.observe_idle_run(records[-1])
        core.arbiter.record_idle_cycles(count)
        core.latched_requests = latched_requests
        core._info_cache = None
        self._needed_cache = None

    def drive_phase(self, cycle: int) -> BoundaryDrive:
        """Evaluate local components and return this domain's drive contribution."""
        core = self.core
        assert core is not None, "finalize() must be called first"
        for component in self._tick_active:
            component.tick(cycle)
        info = core.data_phase_info()
        local_masters = self.local_masters
        requests = {mid: drive_req(cycle) for mid, drive_req in self._request_drivers}
        granted_master = local_masters.get(core.arbiter.current_grant)
        address_phase = (
            granted_master.drive_address_phase(cycle, granted=True)
            if granted_master is not None
            else None
        )
        hwdata = None
        if info.active and info.is_write and info.owner_master_id in local_masters:
            hwdata = local_masters[info.owner_master_id].drive_hwdata(info.address_phase)
        interrupts = self.interrupt_outputs
        return BoundaryDrive(
            cycle=cycle,
            requests=requests,
            address_phase=address_phase,
            hwdata=hwdata,
            interrupts=dict(interrupts) if interrupts else _NO_INTERRUPTS,
        )

    def merge_drive(self, local: BoundaryDrive, remote: BoundaryDrive) -> DriveValues:
        """Combine the local and remote contributions into full drive values."""
        assert self.core is not None
        requests = self._request_template.copy()
        requests.update(local.requests)
        requests.update(remote.requests)
        address_phase = local.address_phase or remote.address_phase
        if address_phase is None:
            address_phase = AddressPhase.idle_phase(self.core.granted_master)
        hwdata = local.hwdata if local.hwdata is not None else remote.hwdata
        if remote.interrupts or local.interrupts:
            interrupts = dict(remote.interrupts)
            interrupts.update(local.interrupts)
        else:
            interrupts = _NO_INTERRUPTS
        return DriveValues(
            requests=requests,
            address_phase=address_phase,
            hwdata=hwdata,
            interrupts=interrupts,
        )

    def merge_drives(self, local: BoundaryDrive, remotes: List[BoundaryDrive]) -> DriveValues:
        """Combine the local contribution with any number of remote ones."""
        return self.merge_drive(local, merge_boundary_drives(remotes))

    def response_phase(self, cycle: int, drive: DriveValues) -> BoundaryResponse:
        """Compute the data-phase response if the active slave is local."""
        assert self.core is not None
        info = self.core.data_phase_info()
        if not info.active or info.slave_id not in self.local_slaves:
            return BoundaryResponse(cycle=cycle, response=None)
        slave = self.local_slaves[info.slave_id]
        response = slave.data_phase(cycle, info.address_phase, drive.hwdata, info.first_cycle)
        return BoundaryResponse(cycle=cycle, response=response)

    def commit_phase(
        self, cycle: int, drive: DriveValues, response: DataPhaseResult
    ) -> BusCycleRecord:
        """Notify local masters and advance the registered bus state."""
        assert self.core is not None
        core = self.core
        info = core.data_phase_info()
        if response.hready:
            if info.active and info.owner_master_id in self.local_masters:
                owner = self.local_masters[info.owner_master_id]
                owner.on_data_phase_done(cycle, info.address_phase, response)
            accepted = drive.address_phase
            if (
                accepted is not None
                and accepted.is_active
                and accepted.master_id in self.local_masters
            ):
                self.local_masters[accepted.master_id].on_address_accepted(cycle, accepted)
        record = core.commit_cycle(cycle, drive, response)
        self._needed_cache = None
        self.records.append(record)
        self._records_committed += 1
        if self.monitor is not None:
            self.monitor.check(record)
        if info.active and response.hready:
            self._record_completed_beat(cycle, info, drive, response)
        return record

    def commit_lockstep(
        self,
        cycle: int,
        merged: DriveValues,
        response: DataPhaseResult,
        record: BusCycleRecord,
        beat: Optional[CompletedBeat],
    ) -> None:
        """Commit one N-domain lock-step cycle with shared pre-built objects.

        In lock step every replicated core commits the same merged values and
        therefore produces a value-identical cycle record and completed beat;
        the engine builds them once and every domain's half bus adopts them
        by reference.  Must stay behaviourally identical to
        :meth:`commit_phase` followed by the recorder update (the gating
        on/off equivalence tests enforce this).
        """
        core = self.core
        assert core is not None
        info = core._info_cache
        if info is None:
            info = core.data_phase_info()
        local_masters = self.local_masters
        if response.hready:
            if info.active and info.owner_master_id in local_masters:
                local_masters[info.owner_master_id].on_data_phase_done(
                    cycle, info.address_phase, response
                )
            accepted = merged.address_phase
            if accepted.is_active and accepted.master_id in local_masters:
                local_masters[accepted.master_id].on_address_accepted(cycle, accepted)
        core.commit_cycle(cycle, merged, response, record=record)
        self._needed_cache = None
        self.records.append(record)
        self._records_committed += 1
        if self.monitor is not None:
            self.monitor.check(record)
        if beat is not None:
            self.recorder.record_beat(beat)

    def run_local_cycle(
        self,
        cycle: int,
        remote_drive: BoundaryDrive,
        remote_response: Optional[DataPhaseResult],
    ) -> tuple[BoundaryDrive, Optional[DataPhaseResult], BusCycleRecord]:
        """Run all three steps of one cycle given the remote domain's values.

        ``remote_drive`` / ``remote_response`` contain the values obtained
        from (or predicted for) the other domain.  Returns this domain's own
        drive contribution, its local data-phase response (``None`` when the
        active slave is remote or the bus is idle) and the committed record.

        This is the engines' speculative hot path (leader run-ahead, lagger
        follow-up, roll-forth), so the drive / merge / respond / commit steps
        are inlined: one data-phase-info lookup serves the whole cycle and no
        intermediate containers are allocated.  The behaviour must remain
        identical to calling :meth:`drive_phase` / :meth:`merge_drive` /
        :meth:`response_phase` / :meth:`commit_phase` in sequence -- the
        golden regression suite enforces this.
        """
        core = self.core
        assert core is not None, "finalize() must be called first"
        # -- drive step ------------------------------------------------------
        for component in self._tick_active:
            component.tick(cycle)
        # Inline the data_phase_info cache hit (needed_fields usually ran
        # first this cycle and already computed it).
        info = core._info_cache
        if info is None:
            info = core.data_phase_info()
        info_active = info.active
        local_masters = self.local_masters
        requests = {mid: drive_req(cycle) for mid, drive_req in self._request_drivers}
        granted = core.arbiter.current_grant
        granted_master = local_masters.get(granted)
        address_phase = (
            granted_master.drive_address_phase(cycle, granted=True)
            if granted_master is not None
            else None
        )
        hwdata = None
        if info_active and info.is_write and info.owner_master_id in local_masters:
            hwdata = local_masters[info.owner_master_id].drive_hwdata(info.address_phase)
        interrupt_outputs = self.interrupt_outputs
        local_interrupts = dict(interrupt_outputs) if interrupt_outputs else _NO_INTERRUPTS
        local_drive = BoundaryDrive(
            cycle=cycle,
            requests=requests,
            address_phase=address_phase,
            hwdata=hwdata,
            interrupts=local_interrupts,
        )
        # -- merge (same rules as merge_drive) -------------------------------
        remote_requests = remote_drive.requests
        if not remote_requests and len(requests) == len(self._request_template):
            # Every master is local and the remote side contributes nothing:
            # the merged vector is just the local one (fresh copy -- the
            # commit takes ownership of it).
            merged_requests = requests.copy()
        else:
            merged_requests = self._request_template.copy()
            merged_requests.update(requests)
            merged_requests.update(remote_requests)
        merged_phase = address_phase if address_phase is not None else remote_drive.address_phase
        if merged_phase is None:
            merged_phase = AddressPhase.idle_phase(granted)
        merged_hwdata = hwdata if hwdata is not None else remote_drive.hwdata
        remote_interrupts = remote_drive.interrupts
        if remote_interrupts or local_interrupts:
            merged_interrupts = dict(remote_interrupts)
            merged_interrupts.update(local_interrupts)
        else:
            merged_interrupts = _NO_INTERRUPTS
        merged = DriveValues(
            requests=merged_requests,
            address_phase=merged_phase,
            hwdata=merged_hwdata,
            interrupts=merged_interrupts,
        )
        # -- respond step (same rules as response_phase) ---------------------
        local_response: Optional[DataPhaseResult] = None
        if info_active:
            slave = self.local_slaves.get(info.slave_id)
            if slave is not None:
                local_response = slave.data_phase(
                    cycle, info.address_phase, merged_hwdata, info.first_cycle
                )
        response = local_response or remote_response or _OKAY
        # -- commit step (same rules as commit_phase) ------------------------
        if response.hready:
            if info_active and info.owner_master_id in local_masters:
                local_masters[info.owner_master_id].on_data_phase_done(
                    cycle, info.address_phase, response
                )
            if merged_phase.is_active and merged_phase.master_id in local_masters:
                local_masters[merged_phase.master_id].on_address_accepted(cycle, merged_phase)
        record = core.commit_cycle(cycle, merged, response)
        self._needed_cache = None
        self.records.append(record)
        self._records_committed += 1
        if self.monitor is not None:
            self.monitor.check(record)
        if info_active and response.hready:
            self._record_completed_beat(cycle, info, merged, response)
        return local_drive, local_response, record

    def _record_completed_beat(
        self,
        cycle: int,
        info: DataPhaseInfo,
        drive: DriveValues,
        response: DataPhaseResult,
    ) -> None:
        # Caller guarantees ``info.active and response.hready``.
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

    # -- state management --------------------------------------------------------------------
    def local_components(self) -> List[ClockedComponent]:
        return list(self.local_masters.values()) + list(self.local_slaves.values())

    def all_local_masters_done(self) -> bool:
        done_flags = [
            master.done for master in self.local_masters.values() if hasattr(master, "done")
        ]
        return all(done_flags) if done_flags else True

    def reset(self) -> None:
        super().reset()
        for component in self.local_components():
            component.reset()
        if self.core is not None:
            self.core.reset()
        self.recorder = TransactionRecorder()
        self.records.clear()
        self._records_committed = 0
        self._needed_cache = None
        if self.monitor is not None:
            self.monitor.reset()
        self.interrupt_outputs.clear()

    def snapshot_state(self) -> dict:
        assert self.core is not None
        return {
            "core": self.core.snapshot(),
            "masters": {mid: m.snapshot_state() for mid, m in self.local_masters.items()},
            "slaves": {sid: s.snapshot_state() for sid, s in self.local_slaves.items()},
            "recorder": self.recorder.snapshot(),
            "n_records": self._records_committed,
            "interrupts": dict(self.interrupt_outputs),
            "monitor": None if self.monitor is None else self.monitor.snapshot(),
        }

    def restore_state(self, state: dict) -> None:
        assert self.core is not None
        self._needed_cache = None
        self.core.restore(state["core"])
        for mid, m_state in state["masters"].items():
            self.local_masters[mid].restore_state(m_state)
        for sid, s_state in state["slaves"].items():
            self.local_slaves[sid].restore_state(s_state)
        self.recorder.restore(state["recorder"])
        self._trim_records(state["n_records"])
        self.interrupt_outputs = dict(state["interrupts"])
        if self.monitor is not None and state.get("monitor") is not None:
            self.monitor.restore(state["monitor"])

    def _trim_records(self, n_records: int) -> List[BusCycleRecord]:
        # Drop the speculative records from the right; records that aged out
        # of the bounded history were committed long ago and stay dropped.
        # Returns the dropped records, oldest first.
        dropped = []
        while self._records_committed > n_records and self.records:
            dropped.append(self.records.pop())
            self._records_committed -= 1
        self._records_committed = n_records
        dropped.reverse()
        return dropped

    # -- checkpoint windows -------------------------------------------------------
    # Slaves checkpoint through their own windows (memories journal their
    # writes); the core, masters, recorder and monitor contribute owned
    # snapshots.  This keeps the per-transition rb_store cost proportional to
    # the registered/control state instead of to total memory size.
    def open_checkpoint_window(self) -> dict:
        assert self.core is not None
        return {
            "core": self.core.snapshot(),
            "masters": {
                mid: master.open_checkpoint_window()
                for mid, master in self.local_masters.items()
            },
            "slaves": {
                sid: slave.open_checkpoint_window() for sid, slave in self.local_slaves.items()
            },
            "recorder": self.recorder.snapshot(),
            "n_records": self._records_committed,
            "interrupts": dict(self.interrupt_outputs),
            "monitor": None if self.monitor is None else self.monitor.snapshot(),
        }

    def rewind_checkpoint_window(self, token: dict, redo: bool = False) -> Optional[dict]:
        core = self.core
        assert core is not None
        monitor = self.monitor
        state = None
        if redo:
            # The append-only histories (records, beats, violations) are
            # truncated by the rewind, so the redo token keeps what it drops.
            beats = self.recorder.beats
            state = {
                "core": core.snapshot(),
                "n_records": self._records_committed,
                "n_beats": len(beats),
                "beats": beats[token["recorder"]:],
                "interrupts": dict(self.interrupt_outputs),
                "monitor": None if monitor is None else monitor.snapshot(),
                "violations": (
                    None if monitor is None
                    else monitor.violations[token["monitor"]["n_violations"]:]
                ),
            }
        self._needed_cache = None
        core.restore(token["core"])
        masters = {
            mid: self.local_masters[mid].rewind_checkpoint_window(m_token, redo=redo)
            for mid, m_token in token["masters"].items()
        }
        slaves = {
            sid: self.local_slaves[sid].rewind_checkpoint_window(s_token, redo=redo)
            for sid, s_token in token["slaves"].items()
        }
        self.recorder.restore(token["recorder"])
        records = self._trim_records(token["n_records"])
        self.interrupt_outputs = dict(token["interrupts"])
        if monitor is not None and token.get("monitor") is not None:
            monitor.restore(token["monitor"])
        if state is not None:
            state.update(masters=masters, slaves=slaves, records=records)
        return state

    def redo_checkpoint_window(self, state: dict) -> None:
        """Jump forward to the discarded run-ahead end state (see
        :meth:`~repro.sim.component.ClockedComponent.redo_checkpoint_window`).

        Registered state is restored from the redo snapshot; the truncated
        histories (records, beats, violations) get back the entries past the
        re-executed prefix.
        """
        core = self.core
        assert core is not None
        self._needed_cache = None
        core.restore(state["core"])
        for mid, m_state in state["masters"].items():
            self.local_masters[mid].redo_checkpoint_window(m_state)
        for sid, s_state in state["slaves"].items():
            self.local_slaves[sid].redo_checkpoint_window(s_state)
        regrow(self.recorder.beats, state["beats"], state["n_beats"])
        records = self.records
        n_records = state["n_records"]
        regrow(records, state["records"], len(records) + n_records - self._records_committed)
        self._records_committed = n_records
        self.interrupt_outputs = dict(state["interrupts"])
        monitor = self.monitor
        if monitor is not None and state["monitor"] is not None:
            monitor.restore(state["monitor"])
            regrow(monitor.violations, state["violations"], state["monitor"]["n_violations"])

    @staticmethod
    def redo_records(state: dict) -> List[BusCycleRecord]:
        """The cycle records a ``rewind_checkpoint_window(redo=True)``
        discarded, oldest first (one per run-ahead cycle)."""
        return state["records"]

    def close_checkpoint_window(self, token: dict) -> None:
        for mid, m_token in token["masters"].items():
            self.local_masters[mid].close_checkpoint_window(m_token)
        for sid, s_token in token["slaves"].items():
            self.local_slaves[sid].close_checkpoint_window(s_token)

    def rollback_variable_count(self) -> int:
        total = 0
        for component in self.local_components():
            total += component.rollback_variable_count()
        return total + 8  # bus core registers
