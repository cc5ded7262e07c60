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

from .coemulation import (
    PERIODIC_REPLAY,
    QUIESCENCE_SKIP,
    CoEmulationEngineBase,
    CoEmulationResult,
)
from .engine import register_engine
from .modes import OperatingMode
from .prediction import PredictionStats


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
