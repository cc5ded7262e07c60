"""Conventional (conservative) baseline.

Paper claims (Section 6): 38.9 kcycles/s with a 1,000 kcycles/s simulator and
28.8 kcycles/s with a 100 kcycles/s simulator.  Regenerated both analytically
and with the mechanism-level lock-step engine.
"""

from __future__ import annotations

from repro.analysis.report import render_comparison
from repro.core import CoEmulationConfig, OperatingMode, create_engine
from repro.core.analytical import (
    AnalyticalConfig,
    PAPER_CONVENTIONAL_100K,
    PAPER_CONVENTIONAL_1000K,
    conventional_performance,
)
from repro.sim.time_model import DomainSpeed
from repro.workloads import als_streaming_soc


def test_bench_conventional_analytical(benchmark, report):
    def compute():
        return {
            "1000k": conventional_performance(AnalyticalConfig()),
            "100k": conventional_performance(
                AnalyticalConfig(simulator_cycles_per_second=100_000.0)
            ),
        }

    values = benchmark(compute)
    rows = [
        {
            "name": "conventional, sim=1000k (cycles/s)",
            "paper": PAPER_CONVENTIONAL_1000K,
            "measured": values["1000k"],
            "ratio": values["1000k"] / PAPER_CONVENTIONAL_1000K,
            "relative_error": abs(values["1000k"] - PAPER_CONVENTIONAL_1000K)
            / PAPER_CONVENTIONAL_1000K,
        },
        {
            "name": "conventional, sim=100k (cycles/s)",
            "paper": PAPER_CONVENTIONAL_100K,
            "measured": values["100k"],
            "ratio": values["100k"] / PAPER_CONVENTIONAL_100K,
            "relative_error": abs(values["100k"] - PAPER_CONVENTIONAL_100K)
            / PAPER_CONVENTIONAL_100K,
        },
    ]
    report(render_comparison("Conventional baseline: paper vs reproduction", rows))
    assert abs(values["1000k"] - PAPER_CONVENTIONAL_1000K) / PAPER_CONVENTIONAL_1000K < 0.02
    assert abs(values["100k"] - PAPER_CONVENTIONAL_100K) / PAPER_CONVENTIONAL_100K < 0.02


def test_bench_conventional_mechanism(benchmark, report):
    def run(sim_speed):
        partition = als_streaming_soc(n_bursts=8).build_partition()
        config = CoEmulationConfig(
            mode=OperatingMode("conservative"),
            total_cycles=300,
            simulator_speed=DomainSpeed(sim_speed),
        )
        return create_engine(config, partition=partition).run()

    def compute():
        return {speed: run(speed) for speed in (1_000_000.0, 100_000.0)}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for speed, result in results.items():
        paper = PAPER_CONVENTIONAL_1000K if speed == 1_000_000.0 else PAPER_CONVENTIONAL_100K
        measured = result.performance_cycles_per_second
        rows.append(
            {
                "name": f"lock-step engine, sim={int(speed/1000)}k (cycles/s)",
                "paper": paper,
                "measured": measured,
                "ratio": measured / paper,
                "relative_error": abs(measured - paper) / paper,
            }
        )
    report(render_comparison("Conventional baseline: mechanism-level engine", rows))
    for row in rows:
        assert row["relative_error"] < 0.05
    # two channel accesses per cycle, always
    for result in results.values():
        assert result.channel["accesses"] == 2 * result.committed_cycles
