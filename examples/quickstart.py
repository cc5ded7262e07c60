#!/usr/bin/env python
"""Quickstart: co-emulate a small SoC with and without prediction packetizing.

Builds the ALS-friendly streaming SoC (RTL DMA engines in the accelerator
writing into transaction-level memories in the simulator), runs it once with
the conventional lock-step synchronisation and once with the paper's
prediction packetizing scheme (accelerator leading), and prints the modelled
performance, channel traffic and prediction statistics side by side.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import CoEmulationConfig, OperatingMode, als_streaming_soc
from repro.analysis.report import render_table
from repro.core import create_engine


TOTAL_CYCLES = 600


def run_mode(mode: OperatingMode) -> "CoEmulationResult":
    spec = als_streaming_soc(n_bursts=16)
    config = CoEmulationConfig(mode=mode, total_cycles=TOTAL_CYCLES)
    return create_engine(config, partition=spec.build_partition()).run()


def main() -> None:
    conventional = run_mode(OperatingMode.CONSERVATIVE)
    optimistic = run_mode(OperatingMode.ALS)

    rows = []
    for label, result in (("conventional", conventional), ("prediction packetizing (ALS)", optimistic)):
        rows.append(
            [
                label,
                f"{result.performance_cycles_per_second / 1000:.1f} kcycles/s",
                str(result.channel["accesses"]),
                f"{result.channel['words_per_access']:.1f}",
                f"{result.tchannel * 1e6:.2f} us",
                f"{result.prediction.get('accuracy', 1.0):.3f}",
            ]
        )
    print(
        render_table(
            ["scheme", "performance", "channel accesses", "words/access", "Tch per cycle", "prediction accuracy"],
            rows,
            title=f"Co-emulating {TOTAL_CYCLES} target cycles of the ALS streaming SoC",
        )
    )
    gain = optimistic.speedup_over(conventional)
    print(f"\nSpeed-up of the prediction packetizing scheme: {gain:.1f}x")
    print(f"Rollbacks: {optimistic.transitions['rollbacks']}, "
          f"transitions: {optimistic.transitions['transitions']}, "
          f"mean run-ahead length: {optimistic.transitions['mean_run_ahead_length']:.1f} cycles")

    # The two schemes must agree on every committed bus transfer.
    assert optimistic.sim_beat_keys == conventional.sim_beat_keys
    print("\nFunctional equivalence with the lock-step run: OK "
          f"({len(optimistic.sim_beat_keys)} committed beats identical)")


if __name__ == "__main__":
    main()
