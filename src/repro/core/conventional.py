"""The conventional (conservative) co-emulation baseline.

With a conventional simulation accelerator the progress of the simulator and
accelerator is synchronised at every valid simulation time: each target cycle
requires one simulator-to-accelerator transfer and one accelerator-to-
simulator transfer, each paying the channel's static startup overhead.  The
paper reports 38.9 kcycles/s for this scheme with a 1,000 kcycles/s simulator
and 28.8 kcycles/s with a 100 kcycles/s simulator; the analytical and
mechanism-level models here reproduce those numbers.
"""

from __future__ import annotations

from ..ahb.half_bus import drives_functionally_equal, merge_boundary_drives
from ..ahb.signals import AddressPhase, DataPhaseResult
from .coemulation import (
    PERIODIC_REPLAY,
    QUIESCENCE_SKIP,
    ChargePlan,
    CoEmulationEngineBase,
    CoEmulationResult,
)
from .engine import register_engine
from .modes import OperatingMode
from .prediction import PredictionStats


_INF = float("inf")


@register_engine(
    "conventional_trace",
    fast_paths=(QUIESCENCE_SKIP, PERIODIC_REPLAY),
    description="lock-step engine with periodic steady-state trace replay",
)
@register_engine(
    "conventional_batch",
    fast_paths=(QUIESCENCE_SKIP,),
    description="batch-stepped lock-step baseline (quiescence fast-forwarding)",
)
@register_engine(
    "conventional",
    modes=(OperatingMode.CONSERVATIVE,),
    description="lock-step cycle-by-cycle synchronisation (the paper's baseline)",
)
class ConventionalCoEmulation(CoEmulationEngineBase):
    """Lock-step, cycle-by-cycle synchronisation of all topology domains."""

    # No predictions are ever made, so conservative cycles skip the predictor
    # training bookkeeping entirely (host-side only; results are unchanged).
    observe_during_conservative = False

    def run(self) -> CoEmulationResult:
        """Run ``config.total_cycles`` target cycles in lock step.

        The loop counts *committed* cycles rather than iterations, so a
        restored snapshot resumes with the remainder instead of re-running
        the total.  With the quiescence skip on, a provably all-idle stretch
        commits in one step; with periodic replay on, an armed template
        commits a whole period.  Everything else runs the scalar cycle.
        """
        total = self.config.total_cycles
        stop = self.config.stop_when_workload_done
        ledger = self.ledger
        skip = self.quiescence_skip
        replay = self.replay
        fast = skip or replay is not None
        while ledger.committed_cycles < total:
            self._safe_point()
            # The workload-done check comes *first*: the scalar loop always
            # runs one more cycle after the workload drains, then stops --
            # fast-forwarding here would commit the whole idle remainder
            # instead of that single cycle.  Done-ness cannot change inside a
            # quiescent stretch (no transaction completes while every master
            # is parked), so checking once per stretch is exact.
            if fast and not (stop and self._workload_done()):
                if skip:
                    run = self._idle_run_length(total - ledger.committed_cycles)
                    if run > 1:
                        self._fast_forward_idle_cycles(run)
                        if replay is not None:
                            replay.note_discontinuity()
                        continue
                if replay is not None and replay.state == "replay" and replay.try_replay():
                    if stop and self._workload_done():
                        break
                    continue
            self.run_conservative_cycle()
            if replay is not None:
                replay.observe()
            if stop and self._workload_done():
                break
        return self._build_result(
            OperatingMode.CONSERVATIVE, prediction=PredictionStats(), lob={}
        )

    # -- fast path: quiescence skip ---------------------------------------------------
    def _idle_run_length(self, limit: int) -> int:
        """Longest ``k <= limit`` such that the next ``k`` lock-step cycles
        are provably identical all-idle fixed-point cycles.

        Returns 0 when no batchable run exists (anything active, quiescence
        horizon too close, a gating promise due for renewal, ...); a result
        ``k > 1`` may be handed to :meth:`_fast_forward_idle_cycles`.
        """
        if limit <= 1:
            return 0
        hosts = self._host_list
        cycle = hosts[0].current_cycle
        horizon = float(cycle + limit)
        for host in hosts:
            hbm = host.hbm
            if not hbm.idle_stationary():
                return 0
            activity = hbm.next_local_activity(cycle)
            if activity <= cycle:
                return 0
            if activity < horizon:
                horizon = activity
        if self._sync_gating:
            # The gated lock-step cycle adds three per-domain conditions: the
            # grant must have been stable since the last committed cycle, a
            # quiet domain's promise must outlast the whole stretch (a
            # renewal cycle runs scalar), and a domain outside the
            # infinite-promise reuse branch must re-drive exactly what it
            # last shipped (otherwise the scalar path ships the change).
            if hosts[0].hbm.core.arbiter.current_grant != self._last_grant:
                return 0
            quiet_until = self._quiet_until
            last_broadcast = self._last_broadcast
            for host in hosts:
                domain = host.domain
                last = last_broadcast.get(domain)
                if last is None:
                    return 0
                quiet = quiet_until.get(domain, -1.0)
                if quiet == _INF:
                    continue  # reuse branch: no drive step, no traffic
                if quiet <= cycle:
                    return 0  # promise renewal due this cycle
                if quiet < horizon:
                    horizon = quiet
                # Sampling the drive is side-effect-free at the idle fixed
                # point (no per-cycle ticks; parked masters return interned
                # idle phases without starting transactions).
                if not drives_functionally_equal(host.hbm.drive_phase(cycle), last):
                    return 0
        run = int(horizon - cycle)
        return run if run > 1 else 0

    def _fast_forward_idle_cycles(self, count: int) -> None:
        """Commit ``count`` all-idle lock-step cycles in one batched step.

        Preconditions are established by :meth:`_idle_run_length`; this
        method applies exactly the state transitions ``count`` scalar
        :meth:`run_conservative_cycle` calls would have applied -- same cycle
        records, same channel accesses in the same order, same float
        accumulation sequences -- without re-entering per-cycle dispatch.
        """
        hosts = self._host_list
        cycle = hosts[0].current_cycle
        grant = hosts[0].hbm.core.arbiter.current_grant
        if self._sync_gating:
            # Effective per-domain drives: reuse the last shipped values for
            # infinite-promise domains (as the scalar gated cycle does),
            # sample the rest once -- their outputs are constant over the
            # stretch.  No charges: nothing ships while every drive repeats
            # its last broadcast and every promise outlasts the stretch.
            drives = [
                self._last_broadcast[host.domain]
                if self._quiet_until.get(host.domain, -1.0) == _INF
                else host.hbm.drive_phase(cycle)
                for host in hosts
            ]
            global_drive = merge_boundary_drives(drives)
            requests = global_drive.requests
            phase = global_drive.address_phase
            legs = []
        else:
            # Ungated lock-step: the drive/reply exchange happens every cycle
            # with constant word counts.  With the bus idle the responder is
            # always the first topology domain.
            drives = [host.hbm.drive_phase(cycle) for host in hosts]
            requests = hosts[0].hbm._request_template.copy()
            phase = next(
                (drive.address_phase for drive in drives if drive.address_phase is not None),
                None,
            )
            packetizer = self.packetizer
            responder = hosts[0]
            others = hosts[1:]
            legs = []
            for index, host in enumerate(others, start=1):
                drive_words = packetizer.drive_word_count(drives[index])
                for dest in hosts:
                    if dest is not host:
                        legs.append((host, dest, drive_words, "conservative_drive"))
            if others:
                reply_words = packetizer.drive_word_count(drives[0])
                reply_words += packetizer.response_word_count(DataPhaseResult.okay())
                for dest in others:
                    legs.append((responder, dest, reply_words, "conservative_reply"))
        if phase is None:
            phase = AddressPhase.idle_phase(grant)
        ChargePlan(self, legs).apply(self, cycle, count)
        records = hosts[0].hbm.commit_idle_cycles(cycle, [phase] * count, requests)
        for host in hosts[1:]:
            host.hbm.adopt_idle_records(records, requests)
        for host in hosts:
            host.advance(count)
        if self._sync_gating:
            self._last_grant = grant
        self.ledger.commit_cycles(count)
        self.transitions.record_conservative_cycle(count)
