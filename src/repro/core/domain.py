"""Domain hosts: one verification domain of the co-emulated system.

A :class:`DomainHost` bundles everything one side of the channel owns:

* the half bus model with its local masters and slaves,
* the domain's execution-speed cost model (charging Tsim. or Tacc.),
* the checkpoint manager used for rollback when the domain is the leader,
* optionally the predictor used to guess the other domain's values,
* a per-domain target-cycle clock (the two clocks drift apart while the
  leader runs ahead and re-converge after follow-up / roll-forth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ahb.half_bus import BoundaryDrive, BoundaryResponse, HalfBusModel, NeededFields
from ..ahb.signals import BusCycleRecord, DataPhaseResult
from ..sim.checkpoint import Checkpoint, CheckpointManager, StateCostModel
from ..sim.clock import Clock
from ..sim.component import Domain
from ..sim.time_model import DomainSpeed, ExecutionCostModel, WallClockLedger
from .prediction import LaggerPredictor


class DomainHostError(RuntimeError):
    """Raised on inconsistent domain-host usage."""


@dataclass
class DomainHostConfig:
    """Static configuration of one domain host.

    ``ledger_category`` defaults to the domain id itself, which for the
    canonical pair reproduces the paper's ``simulator`` / ``accelerator``
    Table 2 columns; additional domains get one execution bucket each.
    """

    domain: Domain
    speed: DomainSpeed
    state_costs: StateCostModel
    rollback_variable_budget: Optional[int] = None
    ledger_category: Optional[str] = None


class DomainHost:
    """One verification domain (simulator or accelerator) of the split system."""

    def __init__(
        self,
        config: DomainHostConfig,
        hbm: HalfBusModel,
        ledger: WallClockLedger,
        predictor: Optional[LaggerPredictor] = None,
    ) -> None:
        self.domain = config.domain
        self.hbm = hbm
        self.ledger = ledger
        self.predictor = predictor
        self.clock = Clock(config.domain.value)
        category = config.ledger_category or config.domain.value
        ledger.ensure_category(category)
        self.execution = ExecutionCostModel(
            ledger=ledger,
            category=category,
            speed=config.speed,
        )
        checkpoint_components = [hbm]
        if predictor is not None:
            checkpoint_components.append(predictor)
        self.checkpoints = CheckpointManager(
            components=checkpoint_components,
            cost_model=config.state_costs,
            rollback_variable_budget=config.rollback_variable_budget,
        )

    # -- cycle execution -------------------------------------------------------
    @property
    def current_cycle(self) -> int:
        return self.clock.cycle

    def needed_fields(self) -> NeededFields:
        return self.hbm.needed_fields()

    def drive(self) -> BoundaryDrive:
        """Run the drive step of the current cycle (local components tick here)."""
        return self.hbm.drive_phase(self.clock.cycle)

    def respond(self, merged_drive) -> BoundaryResponse:
        return self.hbm.response_phase(self.clock.cycle, merged_drive)

    def commit(self, merged_drive, response: DataPhaseResult) -> BusCycleRecord:
        """Finish the current cycle: notify masters, advance state and clock,
        and charge the domain's execution time."""
        record = self.hbm.commit_phase(self.clock.cycle, merged_drive, response)
        self.clock.advance(1)
        self.execution.charge_cycles(1)
        return record

    def advance(self, count: int) -> None:
        """Account ``count`` executed cycles committed outside the per-cycle
        wrappers: advance the clock and charge the domain's execution time."""
        self.clock.advance(count)
        self.execution.charge_cycles(count)

    def execute_cycle(
        self,
        remote_drive: BoundaryDrive,
        remote_response: Optional[DataPhaseResult],
    ) -> tuple[BoundaryDrive, Optional[DataPhaseResult], BusCycleRecord]:
        """Run one full cycle given the remote domain's (or predicted) values.

        Returns the local drive contribution, the local data-phase response
        (``None`` when the active slave is remote or the bus is idle) and the
        committed cycle record.  Speculative hot path: the clock advance is
        inlined (no validation needed for the constant +1 step).
        """
        clock = self.clock
        local_drive, local_response, record = self.hbm.run_local_cycle(
            clock.cycle, remote_drive, remote_response
        )
        clock.cycle += 1
        clock.total_executed += 1
        self.execution.charge_cycles(1)
        return local_drive, local_response, record

    # -- checkpointing ----------------------------------------------------------
    def store_checkpoint(self, label: str = "") -> Checkpoint:
        """Store leader state (``rb_store``); charges Tstore to the ledger."""
        store_time = self.checkpoints.last_store_time()
        self.ledger.charge("state_store", store_time)
        self.clock.mark()
        return self.checkpoints.store(self.clock.cycle, label=label)

    def restore_checkpoint(self, redo: bool = False) -> Checkpoint:
        """Restore leader state (``rb_restore``); charges Trestore and rewinds
        the domain clock to the checkpointed cycle.  ``redo`` keeps the
        discarded state's redo tokens in the returned checkpoint (host-only,
        see :meth:`CheckpointManager.restore`)."""
        restore_time = self.checkpoints.last_restore_time()
        self.ledger.charge("state_restore", restore_time)
        checkpoint = self.checkpoints.restore(redo=redo)
        self.clock.rollback_to(checkpoint.cycle)
        self.clock.pop_mark()
        return checkpoint

    def discard_checkpoint(self) -> Checkpoint:
        """Drop the outstanding checkpoint after a fully successful transition."""
        self.clock.pop_mark()
        return self.checkpoints.discard()

    # -- bookkeeping --------------------------------------------------------------
    @property
    def wasted_cycles(self) -> int:
        """Cycles executed by this domain that were later rolled back."""
        return self.clock.wasted_cycles

    def rollback_variable_count(self) -> int:
        return self.checkpoints.variable_count()

    def local_slave_ids(self) -> set:
        return set(self.hbm.local_slaves.keys())

    def local_master_ids(self) -> set:
        return set(self.hbm.local_masters.keys())

    def reset(self) -> None:
        self.clock.reset()
        self.hbm.reset()
        self.checkpoints.clear()
        if self.predictor is not None:
            self.predictor.reset()


def assert_cores_in_sync(sim_host: DomainHost, acc_host: DomainHost) -> None:
    """Verify the two half bus models agree on the shared registered state.

    Called by tests and (optionally) by the engines after synchronisation
    points; disagreement indicates a bug in the exchange/prediction logic.
    """
    sim_core = sim_host.hbm.core
    acc_core = acc_host.hbm.core
    assert sim_core is not None and acc_core is not None
    problems = []
    if sim_core.granted_master != acc_core.granted_master:
        problems.append(
            f"granted master differs: sim={sim_core.granted_master} acc={acc_core.granted_master}"
        )
    sim_phase = sim_core.data_phase
    acc_phase = acc_core.data_phase
    if (sim_phase is None) != (acc_phase is None):
        problems.append("one core has an active data phase and the other does not")
    elif sim_phase is not None and acc_phase is not None:
        if (
            sim_phase.haddr != acc_phase.haddr
            or sim_phase.htrans != acc_phase.htrans
            or sim_phase.hwrite != acc_phase.hwrite
            or sim_phase.master_id != acc_phase.master_id
        ):
            problems.append(
                f"data phase differs: sim={sim_phase.haddr:#x} acc={acc_phase.haddr:#x}"
            )
    if sim_host.current_cycle != acc_host.current_cycle:
        problems.append(
            f"clocks differ: sim={sim_host.current_cycle} acc={acc_host.current_cycle}"
        )
    if problems:
        raise DomainHostError("half bus models out of sync: " + "; ".join(problems))
