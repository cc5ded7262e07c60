"""The closed-form performance model packaged as a registry engine.

The paper's published numbers (Table 2, Figure 4, the SLA summary) come from
an analytical estimate, not from running the mechanism.  Registering that
estimate as a pseudo-engine lets sweeps, benchmarks and the batch
orchestrator treat "evaluate the formula" and "run the protocol" uniformly:
the same :class:`~repro.core.coemulation.CoEmulationConfig` goes in, the same
:class:`~repro.core.coemulation.CoEmulationResult` shape comes out.

Select it explicitly -- it claims no operating mode::

    engine = create_engine(config, engine="analytical")
    result = engine.run()

The result carries the model's per-cycle cost breakdown and performance for
``config.total_cycles`` committed cycles; mechanism-only observables (beat
keys, channel access counts, LOB statistics) are empty.
"""

from __future__ import annotations

from typing import Optional

from ..sim.time_model import WallClockLedger
from .analytical import AnalyticalConfig, conventional_performance, estimate_performance
from .coemulation import CoEmulationConfig, CoEmulationResult, DEFAULT_ROLLBACK_VARIABLES
from .engine import register_engine
from .modes import OperatingMode


@register_engine(
    "analytical",
    modes=(),
    description="closed-form performance model (the paper's own methodology)",
    requires_split=False,
)
class AnalyticalPseudoEngine:
    """Evaluate the analytical model as if it were a co-emulation run."""

    def __init__(self, partition, config: CoEmulationConfig) -> None:
        # The partition is accepted for factory uniformity but never touched:
        # the analytical model only sees speeds, costs and depths.
        self.config = config

    def _analytical_config(self, mode: Optional[OperatingMode] = None) -> AnalyticalConfig:
        config = self.config
        accuracy = 1.0 if config.forced_accuracy is None else config.forced_accuracy
        # rollback_variables=None means "no budget limit" in the mechanism
        # (the checkpoint manager counts actual variables); the closed-form
        # model needs a count, so fall back to the paper's default.
        rollback_variables = (
            DEFAULT_ROLLBACK_VARIABLES
            if config.rollback_variables is None
            else config.rollback_variables
        )
        return AnalyticalConfig(
            mode=mode or config.mode,
            prediction_accuracy=max(accuracy, 1e-9),
            simulator_cycles_per_second=config.simulator_speed.cycles_per_second,
            accelerator_cycles_per_second=config.accelerator_speed.cycles_per_second,
            lob_depth=config.lob_depth,
            rollback_variables=rollback_variables,
            channel=config.channel_params,
            simulator_state_costs=config.simulator_state_costs,
            accelerator_state_costs=config.accelerator_state_costs,
        )

    def run(self) -> CoEmulationResult:
        config = self.config
        cycles = config.total_cycles
        if config.mode is OperatingMode.CONSERVATIVE:
            # AnalyticalConfig rejects CONSERVATIVE (it models the optimistic
            # transition); conventional_performance() only reads speeds and
            # the channel, so evaluate it under a stand-in optimistic mode.
            performance = conventional_performance(
                self._analytical_config(mode=OperatingMode.ALS)
            )
            channel_per_cycle = (1.0 / performance) - (
                1.0 / config.simulator_speed.cycles_per_second
                + 1.0 / config.accelerator_speed.cycles_per_second
            )
            per_cycle = {
                "simulator": 1.0 / config.simulator_speed.cycles_per_second,
                "accelerator": 1.0 / config.accelerator_speed.cycles_per_second,
                "state_store": 0.0,
                "state_restore": 0.0,
                "channel": channel_per_cycle,
                "other": 0.0,
            }
            prediction = {}
        else:
            estimate = estimate_performance(self._analytical_config())
            performance = estimate.performance
            per_cycle = {
                "simulator": estimate.t_sim,
                "accelerator": estimate.t_acc,
                "state_store": estimate.t_store,
                "state_restore": estimate.t_restore,
                "channel": estimate.t_channel,
                "other": 0.0,
            }
            prediction = {"accuracy": estimate.prediction_accuracy}

        ledger = WallClockLedger()
        ledger.commit_cycles(cycles)
        for category, seconds in per_cycle.items():
            ledger.charge(category, seconds * cycles)
        return CoEmulationResult(
            mode=config.mode,
            committed_cycles=cycles,
            per_cycle_times=per_cycle,
            total_modelled_time=ledger.total_seconds,
            performance_cycles_per_second=performance,
            channel={},
            transitions={},
            prediction=prediction,
            lob={},
            sim_beat_keys=[],
            acc_beat_keys=[],
            monitors_ok=True,
            wasted_leader_cycles=0,
            ledger=ledger,
        )
