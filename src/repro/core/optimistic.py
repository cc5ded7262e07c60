"""The optimistic (prediction packetizing) co-emulation engine.

This module implements the paper's contribution: the pair of channel
wrappers that let one verification domain (the *leader*) run ahead of the
other (the *lagger*) by predicting the values it would otherwise read over
the channel, buffering its own outputs in the Leader Output Buffer and
flushing them as one burst transfer.

The behaviour follows the channel-wrapper state machine of Figure 3.  Each
per-cycle pass through the state machine takes one of six paths; the engine
records which path each domain took so traces can be compared against the
paper's Table 1:

* **C-path** (conservative): conventional cycle-by-cycle synchronisation.
* **P-path** (prediction): the leader's run-ahead cycles.  The first P-path
  cycle of a transition registers a state store and still runs
  conservatively (states P-5 / P-6 in the paper).
* **S-path** (synchronisation): the leader flushes the LOB and waits for the
  lagger's report; on a reported misprediction it stores the actual response
  and requests a state restore.
* **L-path** (lagger): the lagger's follow-up cycles, each checking one
  prediction.
* **R-path** (report): the lagger reports that every prediction was correct.
* **F-path** (roll-forth): the leader re-executes committed cycles after a
  rollback.

Relation to the transition steps (Table 1): RA = leader on P-path while the
lagger sits on L/R/C; FU = leader on S-path, lagger on L-path; RB = the state
restore triggered from the S-path; RF = leader on F-path.

On a misprediction at LOB index *f*, RB restores the transition-start
checkpoint and RF re-executes cycles 0..*f*; the run-ahead cycles *f*+1..
are discarded.  The host then re-uses them where it can (Time Warp's *lazy
re-evaluation*: Jefferson, "Virtual Time", TOPLAS 1985; Gafni 1988).  When
the lagger's actual values at *f* are exactly the predicted ones -- the
usual case for an injected failure -- RF leaves the leader in the state it
had after run-ahead cycle *f*, so RB keeps the discarded tail (its LOB
entries, the ``NeededFields`` each was predicted under, and a redo token of
the leader's half bus).  If the next transition has the same leader and its
conservative first cycle commits exactly what tail cycle *f*+1 committed,
its run-ahead adopts the tail's remaining cycles instead of re-running them:
each still calls ``predict`` / ``observe`` (so RNG draws, prediction
statistics and predictor state are today's) and is charged like a computed
cycle, and the half bus then jumps to the tail's end state.  Anything else
drops the tail.  This is host work only: every modelled quantity, path trace
entry and ``RunRecord`` byte is the same as without it
(:attr:`OptimisticCoEmulation.lazy_reevaluation` switches it off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..ahb.half_bus import NeededFields, drives_functionally_equal, merge_boundary_drives
from ..ahb.signals import AddressPhase, BusCycleRecord
from ..sim.batchmath import repeat_add
from ..sim.component import Domain
from .coemulation import (
    PERIODIC_REPLAY,
    QUIESCENCE_SKIP,
    CoEmulationConfig,
    CoEmulationEngineBase,
    CoEmulationResult,
)
from .domain import DomainHost
from .engine import register_engine
from .lob import LeaderOutputBuffer, LobEntry
from .modes import ModeDecision, OperatingMode, policy_for_mode
from .prediction import PredictionRecord, PredictionStats
from .transition import TransitionOutcome, TransitionRecord


_INF = float("inf")


class CwPath(str, Enum):
    """The six operation paths of the channel wrapper (Figure 3)."""

    CONSERVATIVE = "C"
    PREDICTION = "P"
    SYNCHRONIZATION = "S"
    LAGGER = "L"
    REPORT = "R"
    ROLL_FORTH = "F"


@dataclass
class PathTraceEntry:
    """One unit-cycle operation of one channel wrapper."""

    domain: Domain
    cycle: int
    path: CwPath


@dataclass
class OptimisticRunTrace:
    """Optional per-cycle path trace (kept only when enabled)."""

    enabled: bool = False
    entries: List[PathTraceEntry] = field(default_factory=list)

    def record(self, domain: Domain, cycle: int, path: CwPath) -> None:
        if self.enabled:
            self.entries.append(PathTraceEntry(domain=domain, cycle=cycle, path=path))

    def paths_for(self, domain: Domain) -> List[CwPath]:
        return [entry.path for entry in self.entries if entry.domain is domain]


@dataclass
class LazyReevaluationStats:
    """Host-side counters of the run-ahead tail re-use (never in results)."""

    tails_kept: int = 0
    tails_adopted: int = 0
    cycles_adopted: int = 0


@dataclass
class _RunAheadTail:
    """The run-ahead cycles *f*+1.. discarded by a rollback at index *f*.

    ``entries`` / ``needed`` start at cycle *f*+1; ``redo`` is the leader half
    bus's redo token (its state at the end of the run-ahead).
    """

    leader: Domain
    entries: List[LobEntry]
    needed: List[NeededFields]
    redo: dict
    first_record: BusCycleRecord


def _same_commit(a: BusCycleRecord, b: BusCycleRecord) -> bool:
    """Did two cycle records commit exactly the same bus values?"""
    return (
        a.granted_master == b.granted_master
        and a.address_phase == b.address_phase
        and a.data_phase == b.data_phase
        and a.hwdata == b.hwdata
        and a.response == b.response
        and a.requests == b.requests
    )


@register_engine(
    "als_trace",
    fast_paths=(QUIESCENCE_SKIP, PERIODIC_REPLAY),
    description="ALS batch engine with the trace-replay plumbing (replay "
    "stays disabled while conservative cycles train the predictors)",
)
@register_engine(
    "als_batch",
    fast_paths=(QUIESCENCE_SKIP,),
    description="batch-stepped prediction-and-rollback engine (fused run-ahead / follow-up)",
)
@register_engine(
    "optimistic",
    modes=(OperatingMode.SLA, OperatingMode.ALS, OperatingMode.AUTO),
    description="prediction-and-rollback engine (SLA / ALS / AUTO leaders)",
)
class OptimisticCoEmulation(CoEmulationEngineBase):
    """Prediction-and-rollback synchronisation between the topology domains.

    One domain leads; every other domain is a lagger.  With two domains this
    is exactly the paper's scheme; with N domains the leader predicts the
    merged boundary values of all laggers, flushes the LOB to each of them,
    and the laggers replay the buffered cycles in lock step among themselves.

    With the quiescence skip on, the two per-cycle inner loops batch their
    idle stretches (the transition structure is unchanged):

    * **Run-Ahead**: when the leader bus is at its structural idle fixed
      point and the predictor at its all-idle fixed point, ``k`` predicted
      cycles (up to the local-activity horizon and the LOB budget) are
      committed as one segment -- shared value-identical prediction records
      and drive objects, per-cycle forced-failure RNG draws in scalar order,
      one batched record adoption and one bit-exact batched time charge.
    * **Follow-Up** (single lagger): a run of all-idle LOB entries against an
      idle-stationary lagger replays as one segment with the per-entry
      prediction checks folded into closed-form counter updates (every check
      in such a run provably matches).

    Path-trace-enabled runs keep the scalar loops (the trace is inherently
    per-cycle).  Periodic replay never engages here: conservative cycles
    train the predictors every cycle, so the controller refuses with a
    single ``predictor_training`` bailout and only reports its counters.

    Lazy re-evaluation (see the module docstring) is on in every preset;
    the class attribute below switches it off, which leaves exactly the
    scalar rollback path the equivalence tests compare against.
    """

    #: Keep the run-ahead tail a rollback discards and adopt it in the next
    #: transition when that provably recomputes the same cycles.
    lazy_reevaluation = True

    def __init__(
        self,
        partition,
        config: CoEmulationConfig,
        trace_paths: bool = False,
    ) -> None:
        super().__init__(partition, config)
        config = self.config
        if config.mode is OperatingMode.CONSERVATIVE:
            raise ValueError(
                "OptimisticCoEmulation requires an optimistic mode (SLA / ALS / AUTO); "
                "use ConventionalCoEmulation for the conservative baseline"
            )
        self.policy = policy_for_mode(config.mode, topology=self.topology)
        self.lob = LeaderOutputBuffer(config.lob_depth)
        self.trace = OptimisticRunTrace(enabled=trace_paths)
        #: The tail kept by the last rollback, pending until the next
        #: transition start adopts or drops it.
        self._tail: Optional[_RunAheadTail] = None
        self.lazy_stats = LazyReevaluationStats()

    # -- top level -----------------------------------------------------------------
    def run(self) -> CoEmulationResult:
        """Run ``config.total_cycles`` committed target cycles."""
        total = self.config.total_cycles
        while self.ledger.committed_cycles < total:
            self._safe_point()
            if self.config.stop_when_workload_done and self._workload_done():
                break
            decision = self._decide_mode()
            if not decision.optimistic:
                self._tail = None
                self._traced_conservative_cycle()
                continue
            leader = self.host_for(decision.leader)
            self._run_transition(leader, remaining=total - self.ledger.committed_cycles)
        prediction = self._combined_prediction_stats()
        return self._build_result(self.config.mode, prediction=prediction, lob=self.lob.stats.as_dict())

    # -- mode decision -----------------------------------------------------------------
    def _decide_mode(self) -> ModeDecision:
        if len(self._host_list) == 1:
            # No laggers, no channel: optimism could only add checkpoint
            # overhead, so a single-domain topology always runs conservative.
            return ModeDecision(
                optimistic=False,
                reason="single-domain topology has no remote values to predict",
            )
        candidates: Dict[Domain, bool] = {}
        for domain, host in self.hosts.items():
            candidates[domain] = (
                host.predictor.can_predict(host.needed_fields())
                if host.predictor is not None
                else False
            )
        return self.policy.decide(candidates)

    def _traced_conservative_cycle(self) -> None:
        if self.trace.enabled:
            cycle = self._host_list[0].current_cycle
            for host in self._host_list:
                self.trace.record(host.domain, cycle, CwPath.CONSERVATIVE)
        self.run_conservative_cycle()

    # -- one transition ------------------------------------------------------------------
    def _run_transition(self, leader: DomainHost, remaining: int) -> TransitionRecord:
        laggers = self.peer_hosts(leader)
        predictor = leader.predictor
        assert predictor is not None
        record = self.transitions.new_record(leader.domain, leader.current_cycle)

        # First P-path cycle: register the state store and run conservatively
        # (paper states P-5 / P-6).  The stored state is the leader state
        # *after* this cycle completes.
        self.trace.record(leader.domain, leader.current_cycle, CwPath.PREDICTION)
        for lagger in laggers:
            self.trace.record(lagger.domain, lagger.current_cycle, CwPath.CONSERVATIVE)
        self.run_conservative_cycle()
        remaining -= 1
        leader.store_checkpoint(label=f"transition_{record.index}")
        tail, self._tail = self._tail, None
        if tail is not None and not self._tail_continues(tail, leader):
            tail = None

        # Run-Ahead step: leader proceeds, predicting the laggers' values.
        run_ahead_budget = min(self.config.lob_depth, max(remaining, 0))
        entries, needed = self._run_ahead(leader, predictor, record, run_ahead_budget, tail)
        if not entries:
            # Degenerate transition: the leader could not predict even one
            # cycle.  The state store was wasted overhead (paper footnote 6).
            leader.discard_checkpoint()
            record.outcome = TransitionOutcome.DEGENERATE
            return record

        # Synchronisation: flush the LOB to every lagger as one burst access
        # per sync channel.
        flush_words = self._flush_lob(leader, laggers, entries, record)
        record.flush_words = flush_words

        # Follow-Up step: the laggers replay the buffered cycles in lock
        # step, checking each prediction.
        failure_index, failure_reason, injected, actual_drive, actual_response = (
            self._follow_up(laggers, predictor, entries)
        )

        if failure_index is None:
            self._finish_success(leader, laggers, record, entries)
        else:
            self._finish_misprediction(
                leader,
                laggers,
                record,
                entries,
                needed,
                failure_index,
                failure_reason,
                injected,
                actual_drive,
                actual_response,
            )
        return record

    # -- RA step ------------------------------------------------------------------------------
    def _tail_continues(self, tail: _RunAheadTail, leader: DomainHost) -> bool:
        """Does this transition recompute the kept tail exactly?

        It must have the same leader and start at the tail's first cycle, and
        its conservative first cycle must have fed the leader the same commit
        values (requests, address phase, write data, response: the committed
        cycle record) as that tail cycle did.  Interrupts never reach the bus
        commit, only the predictor's memory, so that memory is compared with
        the one the tail's next prediction was made from.
        """
        if tail.leader is not leader.domain or tail.entries[1].cycle != leader.current_cycle:
            return False
        if not _same_commit(leader.hbm.records[-1], tail.first_record):
            return False
        remembered = leader.predictor._last_interrupts or None
        return remembered == tail.entries[1].prediction.interrupts

    def _run_ahead(
        self,
        leader: DomainHost,
        predictor,
        record: TransitionRecord,
        budget: int,
        tail: Optional[_RunAheadTail] = None,
    ) -> tuple[List[LobEntry], List[NeededFields]]:
        """Run the leader ahead; returns the flushed LOB entries and the
        ``NeededFields`` each entry was predicted under."""
        ra_cycles = 0
        # Hot loop: bind the per-cycle collaborators once (every attribute
        # lookup in here runs tens of thousands of times per second), and
        # inline the DomainHost.execute_cycle wrapper -- run the half bus
        # cycle directly, then advance the clock and charge execution time
        # exactly as execute_cycle would.
        lob = self.lob
        entries: List[LobEntry] = []
        entries_append = entries.append
        needs: List[NeededFields] = []
        needs_append = needs.append
        hbm = leader.hbm
        needed_fields = hbm.needed_fields
        can_predict = predictor.can_predict
        predict = predictor.predict
        observe = predictor.observe
        run_cycle = hbm.run_local_cycle
        clock = leader.clock
        execution = leader.execution
        buckets = self.ledger.buckets
        category = execution.category
        seconds_per_cycle = execution._seconds_per_cycle
        trace = self.trace if self.trace.enabled else None
        skip = self.quiescence_skip and trace is None
        idle_stationary = hbm.idle_stationary
        is_idle_fixed_point = predictor.is_idle_fixed_point
        # Clock and execution-time bookkeeping are accumulated locally and
        # written back once after the loop.  The float additions happen in
        # exactly the per-cycle order (bucket += spc each iteration), so the
        # modelled times stay bit-identical to per-cycle charging.
        cycle = clock.cycle
        bucket_acc = buckets[category]
        # The run ahead stops at the budget or at the LOB depth, whichever
        # comes first.
        depth = lob.depth
        limit = budget if budget < depth else depth
        # Lazy re-evaluation: adopt the kept tail's cycles f+2.. (f+1 was this
        # transition's conservative first cycle).  Only a whole tail is
        # adopted -- the redo token reaches its end state, nothing between.
        if tail is not None and len(tail.entries) - 1 <= limit:
            for entry, needed in zip(tail.entries[1:], tail.needed[1:]):
                assert can_predict(needed)
                prediction = predict(cycle, needed)
                assert prediction.same_values(entry.prediction), (
                    f"lazy re-evaluation: cycle {cycle} predicted differently"
                )
                remote_drive, remote_response = prediction.as_boundary_values(cycle)
                bucket_acc += seconds_per_cycle
                observe(remote_drive, remote_response)
                entries_append(
                    LobEntry(
                        cycle=cycle,
                        leader_drive=entry.leader_drive,
                        leader_response=entry.leader_response,
                        prediction=prediction,
                    )
                )
                needs_append(needed)
                if trace is not None:
                    trace.record(leader.domain, cycle, CwPath.PREDICTION)
                cycle += 1
            ra_cycles = len(entries)
            hbm.redo_checkpoint_window(tail.redo)
            stats = self.lazy_stats
            stats.tails_adopted += 1
            stats.cycles_adopted += ra_cycles
        while ra_cycles < limit:
            needed = needed_fields()
            if not can_predict(needed):
                predictor.record_unpredictable()
                break
            if skip and idle_stationary() and is_idle_fixed_point(needed):
                k = limit - ra_cycles
                horizon = hbm.next_local_activity(cycle)
                if horizon - cycle < k:
                    k = int(horizon - cycle)
                if k > 1 and self._run_ahead_idle_segment(
                    leader, predictor, needed, cycle, k, entries_append
                ):
                    # One batched charge replicating k sequential += adds.
                    bucket_acc = repeat_add(bucket_acc, seconds_per_cycle, k)
                    needs.extend([needed] * k)
                    cycle += k
                    ra_cycles += k
                    continue
            needs_append(needed)
            prediction = predict(cycle, needed)
            remote_drive, remote_response = prediction.as_boundary_values(cycle)
            local_drive, local_response, _ = run_cycle(cycle, remote_drive, remote_response)
            bucket_acc += seconds_per_cycle
            # Chain the prediction state: subsequent predictions extrapolate
            # from what was just predicted.
            observe(remote_drive, remote_response)
            entries_append(
                LobEntry(
                    cycle=cycle,
                    leader_drive=local_drive,
                    leader_response=local_response,
                    prediction=prediction,
                )
            )
            if trace is not None:
                trace.record(leader.domain, cycle, CwPath.PREDICTION)
            cycle += 1
            ra_cycles += 1
        clock.cycle = cycle
        clock.total_executed += ra_cycles
        buckets[category] = bucket_acc
        execution.cycles_charged += ra_cycles
        record.run_ahead_cycles = ra_cycles
        if not ra_cycles:
            return [], needs
        lob.adopt(entries)
        return lob.flush(), needs

    def _run_ahead_idle_segment(
        self,
        leader: DomainHost,
        predictor,
        needed,
        cycle: int,
        count: int,
        entries_append,
    ) -> bool:
        """Commit ``count`` all-idle run-ahead cycles as one batched segment.

        Preconditions (established by the caller): the leader bus is
        :meth:`~repro.ahb.half_bus.HalfBusModel.idle_stationary`, the
        predictor is at its all-idle fixed point for ``needed``, and every
        local master stays inactive for ``count`` cycles.  Under those
        conditions each scalar iteration produces value-identical objects --
        an all-idle prediction (``predict`` returns the remembered inactive
        remote phase itself, cycle after cycle), an all-idle local drive (the
        parked granted master returns its interned idle phase without side
        effects) and an idle commit whose ``observe`` call is a state no-op
        -- so the segment shares one prediction record and one drive object
        across its LOB entries, draws the forced-failure RNG per cycle in
        scalar order, and adopts the committed records in one step.

        Returns ``False`` (leaving no state modified) when a structural
        sanity guard fails; the caller then runs the scalar cycle.
        """
        hbm = leader.hbm
        shared_drive = hbm.idle_drive(cycle)
        if shared_drive is None:
            return False
        pred_requests = dict(predictor._last_requests) if needed.needs_remote_requests else None
        pred_phase = (
            predictor._last_remote_phase if needed.needs_remote_address_phase else None
        )
        shared_prediction = PredictionRecord(
            cycle=cycle, requests=pred_requests, address_phase=pred_phase
        )
        # The merged commit values every scalar iteration would build:
        # template + local + predicted requests (all False), the local idle
        # phase (or the predicted inactive remote phase).
        merged_requests = hbm._request_template.copy()
        merged_requests.update(shared_drive.requests)
        if pred_requests:
            merged_requests.update(pred_requests)
        merged_phase = shared_drive.address_phase
        if merged_phase is None:
            merged_phase = pred_phase
            if merged_phase is None:
                merged_phase = AddressPhase.idle_phase(hbm.core.arbiter.current_grant)
        forced = predictor.forced_accuracy
        if forced is not None and forced.accuracy < 1.0:
            # One RNG draw per prediction, in scalar order; an injected
            # failure gets its own record (the follow-up must see the flag).
            should_fail = forced.should_fail
            for offset in range(count):
                prediction = shared_prediction
                if should_fail():
                    prediction = PredictionRecord(
                        cycle=cycle + offset,
                        requests=pred_requests,
                        address_phase=pred_phase,
                        forced_failure=True,
                    )
                entries_append(
                    LobEntry(
                        cycle=cycle + offset,
                        leader_drive=shared_drive,
                        leader_response=None,
                        prediction=prediction,
                    )
                )
        else:
            for offset in range(count):
                entries_append(
                    LobEntry(
                        cycle=cycle + offset,
                        leader_drive=shared_drive,
                        leader_response=None,
                        prediction=shared_prediction,
                    )
                )
        predictor.stats.predictions_made += count
        hbm.commit_idle_cycles(cycle, [merged_phase] * count, merged_requests)
        return True

    # -- flush (S-path, leader side) ---------------------------------------------------------------
    def _flush_lob(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        entries: List[LobEntry],
        record: TransitionRecord,
    ) -> int:
        # The flush is charged from the exact word counts the packetizer
        # would produce; the burst itself is never materialised (the laggers
        # consume the LOB entries in-process).  Each lagger receives its own
        # burst over its sync channel with the leader.  The per-entry counts
        # inline BoundaryPacketizer.cycle_word_count's arithmetic (header +
        # 2-word address phase + write data + response + read data);
        # tests/core/test_flush_words.py pins this copy to the packetizer
        # across every field combination.
        n_words = 0
        for entry in entries:
            drive = entry.leader_drive
            words = 1
            if drive.address_phase is not None:
                words += 2
            if drive.hwdata is not None:
                words += 1
            response = entry.leader_response
            if response is not None:
                words += 2 if response.hrdata is not None else 1
                words += 1  # response packet header
            prediction = entry.prediction
            if prediction is not None:
                words += 1
                if prediction.address_phase is not None:
                    words += 2
                if prediction.hwdata is not None:
                    words += 1
                predicted_response = prediction.response
                if predicted_response is not None:
                    words += 2 if predicted_response.hrdata is not None else 1
            n_words += words
        self.trace.record(leader.domain, leader.current_cycle, CwPath.SYNCHRONIZATION)
        for lagger in laggers:
            self._charge_channel(leader, lagger, n_words, purpose="lob_flush", cycle=entries[0].cycle)
        return n_words

    # -- FU step (L-path / R-path, lagger side) ---------------------------------------------------------
    def _follow_up(self, laggers: List[DomainHost], predictor, entries: List[LobEntry]):
        if not laggers:
            # Single-domain topology: nothing external was predicted, so the
            # whole run-ahead window commits unchecked.
            return None, "", False, None, None
        if len(laggers) == 1:
            return self._follow_up_single(laggers[0], predictor, entries)
        return self._follow_up_group(laggers, predictor, entries)

    def _follow_up_single(self, lagger: DomainHost, predictor, entries: List[LobEntry]):
        failure_index: Optional[int] = None
        failure_reason = ""
        injected = False
        actual_drive = None
        actual_response = None
        execute_cycle = lagger.execute_cycle
        trace = self.trace if self.trace.enabled else None
        skip = self.quiescence_skip and trace is None
        n = len(entries)
        index = 0
        while index < n:
            if skip:
                run = self._idle_followup_run(lagger, entries, index)
                if run > 1 and self._replay_followup_idle(lagger, predictor, entries, index, run):
                    index += run
                    continue
            entry = entries[index]
            if trace is not None:
                trace.record(lagger.domain, lagger.current_cycle, CwPath.LAGGER)
            lag_drive, lag_response, _ = execute_cycle(
                entry.leader_drive, entry.leader_response
            )
            prediction = entry.prediction
            if prediction is not None:
                matched, reason = prediction.check(lag_drive, lag_response)
                predictor.record_check(matched, prediction.forced_failure)
                if not matched:
                    failure_index = index
                    failure_reason = reason
                    injected = prediction.forced_failure
                    actual_drive = lag_drive
                    actual_response = lag_response
                    break
            index += 1
        return failure_index, failure_reason, injected, actual_drive, actual_response

    @staticmethod
    def _entry_is_idle(entry: LobEntry) -> bool:
        """Cheap per-entry test: does this LOB entry carry only idle values?

        A qualifying entry has a non-forced prediction whose populated fields
        are all at their idle values (so its check against the lagger's idle
        actuals provably matches) and a leader contribution that commits as
        an idle cycle on the lagger's replicated core.
        """
        prediction = entry.prediction
        if prediction is None or prediction.forced_failure:
            return False
        if prediction.response is not None or prediction.hwdata is not None:
            return False
        if prediction.interrupts is not None:
            return False
        requests = prediction.requests
        if requests is not None and any(requests.values()):
            return False
        phase = prediction.address_phase
        if phase is not None and phase.is_active:
            return False
        drive = entry.leader_drive
        if (
            entry.leader_response is not None
            or drive.hwdata is not None
            or drive.interrupts
        ):
            return False
        if any(drive.requests.values()):
            return False
        drive_phase = drive.address_phase
        if drive_phase is not None and drive_phase.is_active:
            return False
        return True

    def _idle_followup_run(self, lagger: DomainHost, entries: List[LobEntry], index: int) -> int:
        """Length of the all-idle replay run starting at ``entries[index]``.

        A run qualifies when every entry passes :meth:`_entry_is_idle` and
        the lagger bus is idle-stationary with every local master inactive
        for the run's whole span.  The per-entry field tests come first so a
        busy entry -- the common case in dense traffic -- costs a few
        attribute reads, not a bus-state probe.
        """
        entry_is_idle = self._entry_is_idle
        if not entry_is_idle(entries[index]):
            return 0
        hbm = lagger.hbm
        if not hbm.idle_stationary():
            return 0
        cycle = lagger.clock.cycle
        horizon = hbm.next_local_activity(cycle)
        if horizon <= cycle:
            return 0
        limit = len(entries) - index
        span = horizon - cycle
        if span < limit:
            limit = int(span)
        run = 0
        for entry in entries[index : index + limit]:
            if not entry_is_idle(entry):
                break
            run += 1
        return run if run > 1 else 0

    def _replay_followup_idle(
        self,
        lagger: DomainHost,
        predictor,
        entries: List[LobEntry],
        index: int,
        count: int,
    ) -> bool:
        """Replay ``count`` all-idle LOB entries on the lagger in one step.

        Applies exactly what ``count`` scalar follow-up iterations would:
        idle commits on the lagger core (same per-cycle records, same merged
        phase selection), the per-cycle clock / execution-time bookkeeping
        (bit-exact batched float adds) and the closed-form outcome of the
        per-entry prediction checks (every check in a qualifying run
        matches).  Returns ``False``, leaving no state modified, when a
        structural sanity guard fails.
        """
        hbm = lagger.hbm
        cycle = lagger.clock.cycle
        local = hbm.idle_drive(cycle)
        if local is None:
            return False
        local_phase = local.address_phase
        if local_phase is None:
            granted = hbm.core.arbiter.current_grant
            phases = []
            for entry in entries[index : index + count]:
                phase = entry.leader_drive.address_phase
                phases.append(phase if phase is not None else AddressPhase.idle_phase(granted))
        else:
            phases = [local_phase] * count
        hbm.commit_idle_cycles(cycle, phases, hbm._request_template.copy())
        lagger.advance(count)
        stats = predictor.stats
        stats.predictions_checked += count
        stats.predictions_correct += count
        return True

    def _follow_up_group(self, laggers: List[DomainHost], predictor, entries: List[LobEntry]):
        """Multi-lagger follow-up: the laggers replay the buffered cycles in
        lock step among themselves, exchanging their own boundary values
        pairwise (conservatively) while the leader's contribution comes from
        the LOB.  The leader's prediction is checked against the *merged*
        lagger values -- exactly what the leader consumed during run-ahead.

        With sync gating enabled the pairwise exchange is both *activity
        gated* (a lagger whose drive is unchanged since it last shipped
        contributes nothing that entry) and *batched*: the changed drives of
        the whole transition travel as one burst access per ordered lagger
        pair, charged when the replay window closes -- mirroring how the
        leader's own LOB flush amortises the channel startup cost."""
        failure_index: Optional[int] = None
        failure_reason = ""
        injected = False
        actual_drive = None
        actual_response = None
        packetizer = self.packetizer
        gating = self._sync_gating
        last_broadcast = self._last_broadcast
        batched_words: Dict[Domain, int] = {}
        trace = self.trace if self.trace.enabled else None
        last_cycle = laggers[0].current_cycle
        slave_ids_of = self._slave_ids_of
        quiet_until = self._quiet_until
        master_home = self._master_home
        for index, entry in enumerate(entries):
            cycle = last_cycle = laggers[0].current_cycle
            first_core = laggers[0].hbm.core
            lock_info = first_core.data_phase_info()
            if gating:
                # Quiet-lagger drive reuse under stable arbitration (same
                # reasoning as the gated conservative cycle).
                effective_grant = first_core.arbiter.current_grant
                grant_stable = effective_grant == self._last_grant
                self._last_grant = effective_grant
                owner_host = (
                    master_home.get(lock_info.owner_master_id)
                    if lock_info.active
                    else None
                )
                drive_list = []
                for src in laggers:
                    domain = src.domain
                    if (
                        grant_stable
                        and src is not owner_host
                        and quiet_until.get(domain, -1.0) == _INF
                        and not src.hbm._tick_active
                    ):
                        drive_list.append(last_broadcast[domain])
                        continue
                    drive = src.hbm.drive_phase(cycle)
                    drive_list.append(drive)
                    last = last_broadcast.get(domain)
                    if last is not None and drives_functionally_equal(drive, last):
                        continue
                    last_broadcast[domain] = drive
                    quiet_until[domain] = -1.0
                    batched_words[domain] = batched_words.get(domain, 0) + (
                        packetizer.drive_word_count(drive)
                    )
            else:
                drive_list = [lagger.hbm.drive_phase(cycle) for lagger in laggers]
                for src_index, src in enumerate(laggers):
                    words = packetizer.drive_word_count(drive_list[src_index])
                    for dst in laggers:
                        if dst is not src:
                            self._charge_channel(
                                src, dst, words, purpose="followup_exchange", cycle=cycle
                            )
            # Only the domain owning the active data-phase slave can answer
            # (first lagger in order, matching the ungated first-non-None
            # rule); otherwise the leader's buffered response commits.
            responder = None
            if lock_info.active:
                slave_id = lock_info.slave_id
                for lagger in laggers:
                    if slave_id in slave_ids_of[lagger.domain]:
                        responder = lagger
                        break
            _, lagger_response, _ = self._commit_lockstep_cycle(
                laggers,
                cycle,
                lock_info,
                [entry.leader_drive] + drive_list,
                responder,
                entry.leader_response,
            )
            if trace is not None:
                for lagger in laggers:
                    trace.record(lagger.domain, cycle, CwPath.LAGGER)
            if entry.prediction is None:
                continue
            merged_drive = merge_boundary_drives(drive_list)
            matched, reason = entry.prediction.check(merged_drive, lagger_response)
            predictor.record_check(matched, entry.prediction.forced_failure)
            if not matched:
                failure_index = index
                failure_reason = reason
                injected = entry.prediction.forced_failure
                actual_drive = merged_drive
                actual_response = lagger_response
                break
        if gating:
            # Charge the batched exchange: one burst access per ordered
            # lagger pair carrying every changed drive of this transition.
            for src in laggers:
                words = batched_words.get(src.domain, 0)
                if not words:
                    continue
                for dst in laggers:
                    if dst is not src:
                        self._charge_channel(
                            src, dst, words, purpose="followup_exchange", cycle=last_cycle
                        )
        return failure_index, failure_reason, injected, actual_drive, actual_response

    # -- transition epilogue -----------------------------------------------------------------------------
    def _finish_success(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        record: TransitionRecord,
        entries: List[LobEntry],
    ) -> None:
        # R-path: each lagger reports success (one channel access per sync
        # channel).  The reply carries the lagger's current boundary outputs,
        # mirroring the conventional read the leader skipped on its final
        # run-ahead cycle.
        report_words = self.packetizer.cycle_word_count()
        for lagger in laggers:
            self.trace.record(lagger.domain, lagger.current_cycle, CwPath.REPORT)
            self._charge_channel(
                lagger, leader, report_words, purpose="followup_success", cycle=lagger.current_cycle
            )
        leader.discard_checkpoint()
        if self._sync_gating and entries:
            # The flush shipped the leader's drives: the channels now
            # remember the last consumed entry.
            self._last_broadcast[leader.domain] = entries[-1].leader_drive
            self._quiet_until[leader.domain] = -1.0
        committed = len(entries)
        self.ledger.commit_cycles(committed)
        record.committed_cycles = committed
        record.outcome = TransitionOutcome.SUCCESS

    def _finish_misprediction(
        self,
        leader: DomainHost,
        laggers: List[DomainHost],
        record: TransitionRecord,
        entries: List[LobEntry],
        needed: List[NeededFields],
        failure_index: int,
        failure_reason: str,
        injected: bool,
        actual_drive,
        actual_response,
    ) -> None:
        predictor = leader.predictor
        assert predictor is not None
        # Keep the run-ahead tail (cycles f+1..) when the actual values at f
        # are exactly the predicted ones: RF then leaves the leader where
        # run-ahead cycle f did.  A tail of one cycle has nothing to adopt.
        keep = (
            self.lazy_reevaluation
            and failure_index + 2 < len(entries)
            and entries[failure_index].prediction.equals_actual(actual_drive, actual_response)
        )
        # L-5 / L-6: each lagger reports the prediction failure together with
        # the actual values for the failed cycle (one channel access per sync
        # channel; with several laggers the merged report is a conservative
        # upper bound on each link's payload).
        report_words = self.packetizer.drive_word_count(actual_drive)
        report_words += self.packetizer.response_word_count(actual_response)
        for lagger in laggers:
            self._charge_channel(
                lagger, leader, report_words, purpose="followup_failure", cycle=lagger.current_cycle
            )
        # S-5 / S-6 then RB step: leader stores the reported response and
        # rolls back to the checkpoint taken at the start of the transition.
        self.trace.record(leader.domain, leader.current_cycle, CwPath.SYNCHRONIZATION)
        if self._sync_gating:
            # The laggers consumed the flushed burst up to the failed entry;
            # the channels remember that drive (speculative values already
            # shipped stay shipped -- the gate state is never rolled back).
            self._last_broadcast[leader.domain] = entries[failure_index].leader_drive
            self._quiet_until[leader.domain] = -1.0
        checkpoint = leader.restore_checkpoint(redo=keep)
        # RF step (F-path): the leader re-executes the cycles the lagger has
        # already committed.  For the validated prefix the (correct)
        # predictions are re-used; the failed cycle uses the actual values
        # reported by the lagger.
        for index in range(failure_index + 1):
            entry = entries[index]
            if index < failure_index:
                remote_drive, remote_response = entry.prediction.as_boundary_values(entry.cycle)
            else:
                remote_drive, remote_response = actual_drive, actual_response
            leader.execute_cycle(remote_drive, remote_response)
            predictor.observe(remote_drive, remote_response)
            self.trace.record(leader.domain, entry.cycle, CwPath.ROLL_FORTH)
        committed = failure_index + 1
        if keep:
            hbm = leader.hbm
            redo = checkpoint.redo[hbm.name]
            self._tail = _RunAheadTail(
                leader=leader.domain,
                entries=entries[committed:],
                needed=needed[committed:],
                redo=redo,
                first_record=hbm.redo_records(redo)[committed],
            )
            self.lazy_stats.tails_kept += 1
        self.ledger.commit_cycles(committed)
        record.committed_cycles = committed
        record.roll_forth_cycles = committed
        record.outcome = TransitionOutcome.MISPREDICTION
        record.failure_position = failure_index
        record.failure_reason = failure_reason
        record.forced_failure = injected

    # -- reporting ------------------------------------------------------------------------------------------
    def _combined_prediction_stats(self) -> PredictionStats:
        combined = PredictionStats()
        for host in self._host_list:
            if host.predictor is None:
                continue
            stats = host.predictor.stats
            combined.predictions_made += stats.predictions_made
            combined.predictions_checked += stats.predictions_checked
            combined.predictions_correct += stats.predictions_correct
            combined.real_failures += stats.real_failures
            combined.injected_failures += stats.injected_failures
            combined.unpredictable_cycles += stats.unpredictable_cycles
        return combined
