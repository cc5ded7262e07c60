"""Periodic steady-state trace replay: a cycle-pattern cache for busy loops.

The quiescence skip (:data:`~repro.core.coemulation.QUIESCENCE_SKIP`)
fast-forwards only the degenerate steady state -- full quiescence.  Dense streaming workloads never
quiesce: they run the scalar lock-step exchange cycle by cycle even though the
bus activity is perfectly periodic (streaming bursts are periodic by
construction).  This module adds the busy-loop analogue of quiescence
fast-forwarding:

1. **Search.**  After every scalar cycle the controller digests the
   architectural state that determines future *control* decisions -- arbiter
   grant, burst progress, data-phase shape, latched requests, each master's
   queue position and in-flight beats, each slave's wait countdown -- into a
   structural signature (:meth:`HalfBusModel.trace_signature`).  Data values
   (addresses, payload words) are deliberately excluded.
2. **Verify.**  When a signature recurs at a fixed period ``p``, the
   controller *re-executes the next period scalar* and accepts the candidate
   only if the end-of-period signature matches again and the two periods'
   committed bus-cycle records are structurally identical.  The verified
   period becomes a template: one per-cycle schedule (who is granted, which
   phase shape, which slave responds, the full request vector) plus a
   closed-form channel charge plan and per-master workload guards.
3. **Replay.**  Each further period first re-checks the signature and the
   guards (upcoming transactions must match the template's shapes, issue
   offsets and slave routes), then executes the period through the *real*
   component calls -- masters drive phases, slaves service data phases,
   both cores commit via :meth:`HalfBusModel.commit_lockstep` -- but skips
   everything the schedule already fixes: request collection, boundary-drive
   construction and merging, slave-side-host resolution, packet sizing, and
   per-cycle ledger/channel bookkeeping (charged per period through the
   bit-exact :func:`repro.sim.batchmath.repeat_add` helpers instead).

Because every value still flows through the real calls, replay is
bit-identical to the scalar engine on every modelled quantity -- beat
streams, ledger floats (accumulation order preserved), channel statistics,
monitor verdicts.  The equivalence suites enforce digest equality.

Any structural surprise mid-period falls back to scalar execution at a point
where the committed prefix is exact: the per-cycle checks only run against
idempotent or not-yet-mutating calls, and partially replayed cycles receive
exactly the charges the scalar path would have booked.  Every refusal and
bailout is counted by reason on :class:`TraceReplayStats`, surfaced as
``CoEmulationResult.trace_replay`` and in the CLI tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ahb.master import TrafficMaster
from ..ahb.signals import BusCycleRecord, DataPhaseResult, HBurst, HTrans
from ..ahb.slave import MemorySlave
from ..ahb.transaction import CompletedBeat
from .coemulation import ChargePlan

#: Longest period the cache will consider.  Streaming bursts repeat every few
#: tens of cycles; anything longer is unlikely to recur often enough to pay
#: for verification, and the signature clamps issue deltas to this horizon.
PERIOD_CAP = 256

#: Shortest useful period (a 1-cycle "period" is the idle fixed point, which
#: the quiescence fast-forward already handles better).
MIN_PERIOD = 2

#: Bound on the signature->cycle search table (cleared, not evicted, when
#: full: periodic workloads re-populate it within one period).
_SEEN_LIMIT = 4096

#: Failed verifications before the controller gives up searching (aperiodic
#: workloads whose signatures collide occasionally).
_MAX_VERIFY_FAILURES = 8

#: Consecutive guard failures before an armed template is dropped and the
#: controller returns to searching.
_MAX_GUARD_FAILURES = 4

_OKAY_RESPONSE = DataPhaseResult.okay()


class TraceReplayError(RuntimeError):
    """A replayed cycle diverged at a point with no clean scalar fallback.

    Raised only on conditions the period guards prove impossible; reaching
    this is a bug in the guard set, not a workload property.
    """


class TraceReplayStats:
    """Counters surfaced as ``CoEmulationResult.trace_replay``."""

    __slots__ = ("enabled", "replayed_cycles", "verified_periods", "replay_hits", "bailouts")

    def __init__(self) -> None:
        self.enabled = True
        self.replayed_cycles = 0
        self.verified_periods = 0
        self.replay_hits = 0
        self.bailouts: Dict[str, int] = {}

    def record_bailout(self, reason: str) -> None:
        self.bailouts[reason] = self.bailouts.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "replayed_cycles": self.replayed_cycles,
            "verified_periods": self.verified_periods,
            "replay_hits": self.replay_hits,
            "bailouts": dict(self.bailouts),
        }


class _MasterGuard:
    """Per-master workload preconditions captured over the verified period.

    Only *schedule-shaping* properties are guarded here: transaction shapes
    (they drive the bus-request vector and burst lengths) and clamped issue
    offsets (they drive request timing).  Address routes are checked inside
    the replay loop instead -- pre-mutation, against the data phase the
    route actually matters for -- so the guards stay O(transactions), not
    O(beats).
    """

    __slots__ = ("issued", "lookahead_off", "lookahead_exists", "active_shape", "outstanding_shapes")

    def __init__(self, issued, lookahead_off, lookahead_exists, active_shape, outstanding_shapes):
        #: Per transaction issued during the period: (shape, clamped offset).
        self.issued = issued
        #: Clamped issue offset of the first transaction *not* issued during
        #: the period (``period`` means "not ready within the period").
        self.lookahead_off = lookahead_off
        self.lookahead_exists = lookahead_exists
        #: Shape of the burst active at period start (None when idle).
        self.active_shape = active_shape
        #: Shapes of the transactions owning each outstanding data beat.
        self.outstanding_shapes = outstanding_shapes


class _PeriodTemplate:
    """One verified period: the schedule, charges and guards to replay it."""

    __slots__ = ("period", "start_signature", "cycles", "plan", "guards")

    def __init__(self, period, start_signature, cycles, plan, guards):
        self.period = period
        self.start_signature = start_signature
        #: Per cycle: (grant, phase_active, htrans, dp_active, dp_owner,
        #: dp_write, dp_slave, dp_slave_id, hwdata_present, resp_hready,
        #: resp_hresp, resp_has_rdata, requests).
        self.cycles = cycles
        #: The period's 2p channel legs, pre-aggregated.
        self.plan = plan
        self.guards = guards


def _txn_shape(txn) -> tuple:
    return (txn.write, txn.hburst, txn.hsize, txn.n_beats)


def _phases_structurally_equal(a, b) -> bool:
    """Shape equality for address phases (addresses excluded on purpose)."""
    if a is None or b is None:
        return a is None and b is None
    if a.is_active != b.is_active:
        return False
    if not a.is_active:
        return True
    return (
        a.master_id == b.master_id
        and a.htrans is b.htrans
        and a.hwrite == b.hwrite
        and a.hburst is b.hburst
        and a.hsize is b.hsize
    )


def _records_structurally_equal(a: BusCycleRecord, b: BusCycleRecord) -> bool:
    return (
        a.granted_master == b.granted_master
        and _phases_structurally_equal(a.address_phase, b.address_phase)
        and _phases_structurally_equal(a.data_phase, b.data_phase)
        and (a.hwdata is None) == (b.hwdata is None)
        and a.response.hready == b.response.hready
        and a.response.hresp is b.response.hresp
        and (a.response.hrdata is None) == (b.response.hrdata is None)
        and a.requests == b.requests
    )


class PeriodicTraceController:
    """Detects, verifies and replays periodic steady states for one engine.

    Attached as ``engine.replay`` when the engine runs with
    :data:`~repro.core.coemulation.PERIODIC_REPLAY`; the lock-step run loop
    calls :meth:`observe` after every scalar conservative cycle,
    :meth:`try_replay` when a template is armed, and
    :meth:`note_discontinuity` after quiescence fast-forwards.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.stats = TraceReplayStats()
        self.state = "search"
        self.template: Optional[_PeriodTemplate] = None
        self._seen: Dict[tuple, int] = {}
        self._verify: Optional[dict] = None
        self._verify_failures = 0
        self._guard_failures = 0
        self._horizon_noted = False
        hosts = engine._host_list
        self._master_of = {
            mid: host.hbm.local_masters[mid] for host in hosts for mid in host.hbm.local_masters
        }
        #: (cycle, signature) memo: the end-of-period signature check is the
        #: next period's start check, so consecutive replays digest once.
        self._sig_memo: Optional[Tuple[int, tuple]] = None
        reason = self._probe_envelope()
        if reason is not None:
            self.disable(reason)

    # -- lifecycle -------------------------------------------------------------
    def disable(self, reason: str) -> None:
        self.state = "disabled"
        self.stats.enabled = False
        self.stats.record_bailout(reason)
        self._seen.clear()
        self._verify = None
        self.template = None

    def _probe_envelope(self) -> Optional[str]:
        """One-time structural check: can this topology be trace-replayed?

        Returns the refusal reason, or ``None`` when replay is possible.
        The conditions are all construction-time constants.
        """
        engine = self.engine
        if engine.observe_during_conservative:
            # Conservative cycles train the predictors per cycle; replaying
            # them would have to re-derive per-cycle predictor updates, which
            # defeats the point.  The ALS trace preset stays honest and runs
            # its conservative stretches scalar.
            return "predictor_training"
        if len(engine._host_list) != 2:
            return "topology"
        if engine._fault_links:
            return "channel_faults"
        if engine.config.keep_channel_log:
            return "channel_log"
        for host in engine._host_list:
            hbm = host.hbm
            if hbm._tick_active:
                return "ticking_components"
            if hbm.trace_signature(0, PERIOD_CAP) is None:
                return "unsupported_component"
        return None

    def note_discontinuity(self) -> None:
        """The engine advanced time outside the scalar loop (idle
        fast-forward): every remembered cycle number is stale."""
        if self.state == "disabled":
            return
        self._seen.clear()
        self._verify = None
        self.template = None
        self._sig_memo = None
        self.state = "search"

    # -- signature -------------------------------------------------------------
    def signature(self, cycle: int) -> tuple:
        """Full structural state digest at ``cycle`` (compared by equality,
        never by hash alone)."""
        hosts = self.engine._host_list
        core = hosts[0].hbm.core
        dp = core.data_phase
        dp_sig = (
            None
            if dp is None
            else (dp.master_id, dp.htrans, dp.hwrite, dp.hburst, dp.hsize)
        )
        core_sig = (
            core.arbiter.current_grant,
            core._burst_beats_done,
            core.data_phase_first_cycle,
            dp_sig,
            tuple(sorted(core.latched_requests.items())),
        )
        return (
            core_sig,
            hosts[0].hbm.trace_signature(cycle, PERIOD_CAP),
            hosts[1].hbm.trace_signature(cycle, PERIOD_CAP),
        )

    # -- search / verify -------------------------------------------------------
    def observe(self) -> None:
        """Digest the state after one committed scalar cycle."""
        state = self.state
        if state == "disabled":
            return
        cycle = self.engine._host_list[0].current_cycle
        sig = self.signature(cycle)
        if state == "verify":
            verify = self._verify
            verify["remaining"] -= 1
            if verify["remaining"] == 0:
                self._finish_verify(cycle, sig)
            return
        if state == "replay":
            # A scalar cycle ran with a template armed (guard failure or the
            # run tail); once the structure drifts off the template's start
            # state, resume searching.
            if sig == self.template.start_signature:
                return
            self.state = "search"
        seen = self._seen
        prev = seen.get(sig)
        if prev is not None:
            period = cycle - prev
            if MIN_PERIOD <= period <= PERIOD_CAP and self._begin_verify(cycle, period, sig):
                seen[sig] = cycle
                return
        if len(seen) >= _SEEN_LIMIT:
            seen.clear()
        seen[sig] = cycle

    def _begin_verify(self, cycle: int, period: int, sig: tuple) -> bool:
        engine = self.engine
        records = engine._host_list[0].hbm.records
        if len(records) < period:
            self.stats.record_bailout("records_unavailable")
            return False
        base = list(records)[-period:]
        if base[0].cycle != cycle - period or base[-1].cycle != cycle - 1:
            self.stats.record_bailout("records_unavailable")
            return False
        masters = {}
        for host in engine._host_list:
            for mid, master in host.hbm.local_masters.items():
                if not isinstance(master, TrafficMaster):
                    continue
                active_shape = None
                if master._active_txn_index is not None and master._tracker is not None:
                    active_shape = _txn_shape(master.queue[master._active_txn_index])
                outstanding = tuple(
                    _txn_shape(master.queue[beat.transaction_index])
                    for beat in master._outstanding
                )
                masters[mid] = {
                    "start_next": master._next_txn_index,
                    "active_shape": active_shape,
                    "outstanding": outstanding,
                }
        self._verify = {
            "start_cycle": cycle,
            "period": period,
            "signature": sig,
            "remaining": period,
            "base_records": base,
            "masters": masters,
            # The replay loop applies precomputed monitor state transitions
            # instead of re-running the rule bodies, which is only valid for
            # periods the monitors judged violation-free.
            "violations": tuple(
                len(host.hbm.monitor.violations) if host.hbm.monitor is not None else 0
                for host in engine._host_list
            ),
        }
        self.state = "verify"
        return True

    def _verify_failed(self, reason: str) -> None:
        self.stats.record_bailout(reason)
        self._verify_failures += 1
        if self._verify_failures >= _MAX_VERIFY_FAILURES:
            self.disable("verify_exhausted")

    def _finish_verify(self, cycle: int, sig: tuple) -> None:
        verify = self._verify
        self._verify = None
        self.state = "search"
        period = verify["period"]
        if sig != verify["signature"]:
            self._verify_failed("verify_mismatch")
            return
        records = self.engine._host_list[0].hbm.records
        if len(records) < period:
            self._verify_failed("records_unavailable")
            return
        fresh = list(records)[-period:]
        if fresh[0].cycle != cycle - period:
            self._verify_failed("records_unavailable")
            return
        for a, b in zip(verify["base_records"], fresh):
            if not _records_structurally_equal(a, b):
                self._verify_failed("verify_mismatch")
                return
        violations = tuple(
            len(host.hbm.monitor.violations) if host.hbm.monitor is not None else 0
            for host in self.engine._host_list
        )
        if violations != verify["violations"]:
            # A period that trips the protocol monitor is not a steady state
            # worth caching (and the replay loop skips the rule bodies).
            self._verify_failed("protocol_violation")
            return
        template = self._build_template(verify, fresh)
        if template is None:
            return  # reason already recorded
        self.template = template
        self.state = "replay"
        self.stats.verified_periods += 1
        self._verify_failures = 0
        self._guard_failures = 0

    # -- template construction -------------------------------------------------
    def _build_template(self, verify: dict, records: List[BusCycleRecord]):
        engine = self.engine
        hosts = engine._host_list
        slave_ids_of = engine._slave_ids_of
        master_home = engine._master_home
        packetizer = engine.packetizer
        start_cycle = verify["start_cycle"]
        period = verify["period"]
        cycles = []
        plan = []
        # Arbitration and monitor bookkeeping are deterministic functions of
        # the template's control schedule (grants, phase shapes, request
        # vectors -- never data values), so their per-cycle outcomes are
        # resolved here once and the replay loop merely applies them to both
        # lock-step cores.  The live core state *is* the period-start state:
        # _finish_verify only reaches this point after the end-of-period
        # signature matched the start-of-period one.
        core = hosts[0].hbm.core
        bbd = core._burst_beats_done
        n_records = len(records)
        for offset, record in enumerate(records):
            dp = record.data_phase
            second = None
            slave = None
            slave_id = None
            if dp is not None:
                slave_id = hosts[0].hbm.decoder.select(dp.haddr)
                for host in hosts:  # mirrors _slave_side_host (topology order)
                    if slave_id in slave_ids_of[host.domain]:
                        second = host
                        break
                if second is not None:
                    slave = second.hbm.local_slaves.get(slave_id)
                if slave is not None and not isinstance(slave, MemorySlave):
                    # Default-slave ERROR sequencing (and any exotic slave)
                    # stays scalar.
                    self._verify_failed("unsupported_slave")
                    return None
            if second is None:
                second = hosts[0]
            first = hosts[1] if second is hosts[0] else hosts[0]
            grant_home = master_home[record.granted_master]
            owner_home = master_home[dp.master_id] if dp is not None else None
            hwdata_present = record.hwdata is not None
            drive_words = 1
            if grant_home is first:
                drive_words += 2
            if hwdata_present and owner_home is first:
                drive_words += 1
            reply_words = 1
            if grant_home is second:
                reply_words += 2
            if hwdata_present and owner_home is second:
                reply_words += 1
            reply_words += packetizer.response_word_count(record.response)
            plan.append((first, second, drive_words, "conservative_drive"))
            plan.append((second, first, reply_words, "conservative_reply"))
            phase = record.address_phase
            phase_active = phase.is_active
            hready = record.response.hready
            # mon_kind: the BURST-tracking state transition of a clean cycle
            # (0: none, 1: NONSEQ starts a burst, 2: SEQ extends it).
            mon_kind = 0
            # arb_step: (next grant, grant changed, parked) when this cycle
            # re-arbitrates, None when a fixed-length burst holds the grant.
            arb_step = None
            if hready:
                if phase_active:
                    if phase.htrans is HTrans.NONSEQ:
                        bbd = 1
                        mon_kind = 1
                    elif phase.htrans is HTrans.SEQ:
                        bbd += 1
                        mon_kind = 2
                    # Mirrors AhbBusCore._may_rearbitrate over the schedule.
                    fixed_beats = phase.hburst.beats
                    rearb = (
                        (fixed_beats is not None and bbd >= fixed_beats)
                        or phase.hburst is HBurst.SINGLE
                        or (
                            phase.hburst is HBurst.INCR
                            and not record.requests.get(phase.master_id, False)
                        )
                    )
                else:
                    rearb = True
                if rearb:
                    next_grant = (
                        records[offset + 1].granted_master
                        if offset + 1 < n_records
                        # The verified period maps the state onto itself, so
                        # the last arbitration lands on the period's first
                        # grant again.
                        else records[0].granted_master
                    )
                    arb_step = (
                        next_grant,
                        next_grant != record.granted_master,
                        not any(record.requests.values()),
                    )
            cycles.append(
                (
                    record.granted_master,
                    phase_active,
                    phase.htrans,
                    dp is not None,
                    None if dp is None else dp.master_id,
                    False if dp is None else dp.hwrite,
                    slave,
                    slave_id,
                    hwdata_present,
                    hready,
                    record.response.hresp,
                    record.response.hrdata is not None,
                    record.requests,
                    arb_step,
                    mon_kind,
                )
            )
        guards = {}
        for mid, captured in verify["masters"].items():
            master = self._master_of[mid]
            start_next = captured["start_next"]
            n_issued = master._next_txn_index - start_next
            issued = []
            for j in range(n_issued):
                index = start_next + j
                txn = master.queue[index]
                offset = txn.issue_cycle - start_cycle
                if offset < 0:
                    offset = 0
                elif offset > period:
                    offset = period
                issued.append((_txn_shape(txn), offset))
            lookahead_index = start_next + n_issued
            lookahead_exists = lookahead_index < len(master.queue)
            if lookahead_exists:
                lookahead_off = master.queue[lookahead_index].issue_cycle - start_cycle
                if lookahead_off < 0:
                    lookahead_off = 0
                elif lookahead_off > period:
                    lookahead_off = period
            else:
                lookahead_off = period
            guards[mid] = _MasterGuard(
                tuple(issued),
                lookahead_off,
                lookahead_exists,
                captured["active_shape"],
                captured["outstanding"],
            )
        return _PeriodTemplate(
            period, verify["signature"], cycles, ChargePlan(engine, plan), guards
        )

    # -- replay ----------------------------------------------------------------
    def _check_guards(self, template: _PeriodTemplate, base: int) -> Optional[str]:
        """Do the upcoming transactions fit the template?  The request vector
        each cycle depends only on in-flight bursts plus the readiness of the
        *first* pending transaction, so checking every transaction the
        template issues plus one lookahead pins the whole period's schedule.
        Returns the bailout reason or ``None``.
        """
        engine = self.engine
        period = template.period
        stop = engine.config.stop_when_workload_done
        for mid, guard in template.guards.items():
            master = self._master_of[mid]
            queue = master.queue
            next_index = master._next_txn_index
            for j, (shape, offset) in enumerate(guard.issued):
                index = next_index + j
                if index >= len(queue):
                    return "workload_tail"
                txn = queue[index]
                if _txn_shape(txn) != shape:
                    return "txn_shape"
                delta = txn.issue_cycle - base
                if delta < 0:
                    delta = 0
                elif delta > period:
                    delta = period
                if delta != offset:
                    return "issue_offset"
            lookahead_index = next_index + len(guard.issued)
            exists = lookahead_index < len(queue)
            if stop and exists != guard.lookahead_exists:
                # Replaying would change *when* the workload drains.
                return "drain_mismatch"
            if exists:
                delta = queue[lookahead_index].issue_cycle - base
                if delta < 0:
                    delta = 0
                elif delta > period:
                    delta = period
            else:
                delta = period
            if delta != guard.lookahead_off:
                return "issue_offset"
            if guard.active_shape is not None:
                index = master._active_txn_index
                if index is None:
                    return "data_phase"
                if _txn_shape(queue[index]) != guard.active_shape:
                    return "txn_shape"
            outstanding = master._outstanding
            if len(outstanding) != len(guard.outstanding_shapes):
                return "data_phase"
            for beat, shape in zip(outstanding, guard.outstanding_shapes):
                if _txn_shape(queue[beat.transaction_index]) != shape:
                    return "txn_shape"
        return None

    def try_replay(self) -> bool:
        """Attempt to commit one full template period.  Returns True when at
        least one cycle was committed (the engine loop then re-enters)."""
        template = self.template
        engine = self.engine
        stats = self.stats
        period = template.period
        if engine.ledger.committed_cycles + period > engine.config.total_cycles:
            # The run tail is shorter than one period: finish scalar.
            if not self._horizon_noted:
                stats.record_bailout("horizon")
                self._horizon_noted = True
            return False
        base = engine._host_list[0].current_cycle
        memo = self._sig_memo
        start_sig = memo[1] if memo is not None and memo[0] == base else self.signature(base)
        if start_sig != template.start_signature:
            stats.record_bailout("resync")
            self.state = "search"
            return False
        reason = self._check_guards(template, base)
        if reason is not None:
            stats.record_bailout(reason)
            self._guard_failures += 1
            if self._guard_failures >= _MAX_GUARD_FAILURES:
                self.state = "search"
                self._guard_failures = 0
            return False
        committed = self._replay_period(template, base)
        if committed == 0:
            return False
        stats.replayed_cycles += committed
        if committed < period:
            self.state = "search"
            return True
        stats.replay_hits += 1
        self._guard_failures = 0
        end_sig = self.signature(base + period)
        self._sig_memo = (base + period, end_sig)
        if end_sig != template.start_signature:
            # The period no longer maps the state onto itself (e.g. the
            # workload tail starts next period): committed cycles are exact
            # (every value came from real calls); just stop replaying.
            stats.record_bailout("period_signature")
            self.state = "search"
        return True

    def _replay_period(self, template: _PeriodTemplate, base: int) -> int:
        """Execute template cycles through the real component calls.

        Returns the number of cycles committed (< period on a structural
        bailout; the committed prefix is exact and fully charged).

        The per-domain commit (:meth:`HalfBusModel.commit_lockstep`) is
        inlined here with the work the two lock-step replicas would duplicate
        done once and applied to both sides: the template supplies the
        arbitration outcome (``arb_step``) and the monitor's BURST-tracking
        transition (``mon_kind``), both deterministic functions of the
        verified control schedule, so neither the arbitration policy nor the
        monitor rule bodies re-run.  Skipping the monitor is sound because
        templates are only built from periods the monitors passed clean
        (``protocol_violation`` verify check) and every replayed cycle is
        structurally identical to a verified one; the equivalence suites
        compare full digests -- monitor verdicts included -- against the
        scalar engine.
        """
        engine = self.engine
        host_a, host_b = engine._host_list
        hbm_a = host_a.hbm
        hbm_b = host_b.hbm
        core_a = hbm_a.core
        core_b = hbm_b.core
        arb_a = core_a.arbiter
        arb_b = core_b.arbiter
        astats_a = arb_a.stats
        astats_b = arb_b.stats
        mon_a = hbm_a.monitor
        mon_b = hbm_b.monitor
        have_monitors = mon_a is not None and mon_b is not None
        records_a = hbm_a.records.append
        records_b = hbm_b.records.append
        record_beat_a = hbm_a.recorder.record_beat
        record_beat_b = hbm_b.recorder.record_beat
        select = core_a.decoder.select
        master_of = self._master_of
        stats = self.stats
        _NONSEQ = HTrans.NONSEQ
        _SEQ = HTrans.SEQ
        committed = 0
        for offset, entry in enumerate(template.cycles):
            (
                grant,
                phase_active,
                htrans,
                dp_active,
                dp_owner,
                dp_write,
                dp_slave,
                dp_slave_id,
                hwdata_present,
                resp_hready,
                resp_hresp,
                resp_has_rdata,
                requests,
                arb_step,
                mon_kind,
            ) = entry
            cycle = base + offset
            # Pre-mutation checks: bailing here leaves the cycle to the
            # scalar path untouched.  The route check (decoder select) makes
            # the template's charge plan and slave selection exact for every
            # committed cycle -- addresses are otherwise unconstrained.
            if arb_a.current_grant != grant:
                stats.record_bailout("grant")
                break
            dp = core_a.data_phase
            if (dp is not None and dp.is_active) != dp_active or (
                dp_active
                and (
                    dp.master_id != dp_owner
                    or dp.hwrite != dp_write
                    or select(dp.haddr) != dp_slave_id
                )
            ):
                stats.record_bailout("data_phase")
                break
            phase = master_of[grant].drive_address_phase(cycle, True)
            if phase.is_active != phase_active or (
                phase_active and phase.htrans is not htrans
            ):
                # Safe bail: a repeated same-cycle drive_address_phase call
                # is idempotent, so the scalar retry sees identical state.
                stats.record_bailout("address_phase")
                break
            hwdata = master_of[dp_owner].drive_hwdata(dp) if hwdata_present else None
            if dp_slave is not None:
                response = dp_slave.data_phase(
                    cycle, dp, hwdata, core_a.data_phase_first_cycle
                )
                if (
                    response.hready != resp_hready
                    or response.hresp is not resp_hresp
                    or (response.hrdata is not None) != resp_has_rdata
                ):
                    # The slave call already mutated its wait/stat state; the
                    # guards prove this unreachable for supported slaves.
                    raise TraceReplayError(
                        f"trace replay: slave response diverged from the verified "
                        f"template at cycle {cycle} (period offset {offset})"
                    )
            else:
                response = _OKAY_RESPONSE
            shared_requests = dict(requests)
            record = BusCycleRecord(
                cycle=cycle,
                granted_master=grant,
                address_phase=phase,
                data_phase=dp,
                hwdata=hwdata,
                response=response,
                requests=shared_requests,
            )
            # -- inlined lock-step commit, applied to both domains ---------
            # Callback order matches commit_lockstep (data-phase completion
            # before address acceptance); each fires exactly once because
            # every master is local to exactly one half bus.
            if resp_hready:
                if dp_active:
                    master_of[dp_owner].on_data_phase_done(cycle, dp, response)
                if phase_active:
                    master_of[grant].on_address_accepted(cycle, phase)
                    if htrans is _NONSEQ:
                        core_a._burst_beats_done = core_b._burst_beats_done = 1
                    elif htrans is _SEQ:
                        core_a._burst_beats_done += 1
                        core_b._burst_beats_done += 1
                    core_a.data_phase = core_b.data_phase = phase
                else:
                    core_a.data_phase = core_b.data_phase = None
                core_a.data_phase_first_cycle = core_b.data_phase_first_cycle = True
                if arb_step is not None:
                    next_grant, changed, parked = arb_step
                    arb_a.current_grant = arb_b.current_grant = next_grant
                    astats_a.decisions += 1
                    astats_b.decisions += 1
                    if changed:
                        astats_a.grant_changes += 1
                        astats_b.grant_changes += 1
                    if parked:
                        astats_a.cycles_parked += 1
                        astats_b.cycles_parked += 1
                if dp_active:
                    beat = CompletedBeat(
                        cycle=cycle,
                        master_id=dp_owner,
                        address=dp.haddr,
                        write=dp_write,
                        data=hwdata if dp_write else response.hrdata,
                        hresp=response.hresp,
                        hburst=dp.hburst,
                        hsize=dp.hsize,
                        first_beat=dp.htrans is _NONSEQ,
                    )
                    record_beat_a(beat)
                    record_beat_b(beat)
            else:
                core_a.data_phase_first_cycle = core_b.data_phase_first_cycle = False
            core_a.latched_requests = core_b.latched_requests = shared_requests
            core_a._info_cache = core_b._info_cache = None
            hbm_a._needed_cache = hbm_b._needed_cache = None
            records_a(record)
            records_b(record)
            hbm_a._records_committed += 1
            hbm_b._records_committed += 1
            if have_monitors:
                mon_a._previous = mon_b._previous = record
                if mon_kind == 1:
                    mon_a._burst_start = mon_a._last_accepted = phase
                    mon_b._burst_start = mon_b._last_accepted = phase
                elif mon_kind == 2:
                    mon_a._last_accepted = phase
                    mon_b._last_accepted = phase
            committed += 1
        if committed == 0:
            return 0
        # Channel charges: closed form for a full period, per-leg scalar
        # charging for a partial prefix (identical arithmetic either way).
        if committed == template.period:
            template.plan.apply(engine, base)
        else:
            for leg_index in range(2 * committed):
                src, dst, words, purpose = template.plan.legs[leg_index]
                engine._charge_channel(src, dst, words, purpose, cycle=base + (leg_index >> 1))
        for host in engine._host_list:
            host.advance(committed)
        engine.ledger.commit_cycles(committed)
        engine.transitions.record_conservative_cycle(committed)
        return committed
