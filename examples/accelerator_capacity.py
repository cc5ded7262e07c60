#!/usr/bin/env python
"""Map a split SoC onto the emulated accelerator and report capacity/rollback data.

Shows the accelerator-substrate side of the reproduction: which RTL blocks
end up in the acceleration domain, the estimated gate/register budget, and
how the register count relates to the rollback-variable budget used by the
performance model.

Run with::

    python examples/accelerator_capacity.py
"""

from __future__ import annotations

from repro.accelerator import AcceleratorSpec, EmulatedAccelerator
from repro.analysis.report import render_table
from repro.core import CoEmulationConfig, OperatingMode, create_engine
from repro.workloads import als_streaming_soc


def main() -> None:
    spec = als_streaming_soc(n_bursts=12)
    sim_hbm, acc_hbm, _ = spec.build_split()

    accelerator = EmulatedAccelerator(
        spec=AcceleratorSpec(cycles_per_second=10_000_000.0, capacity_gates=2_000_000)
    ).map_design(acc_hbm)
    report = accelerator.capacity_report()

    rows = [
        [name, str(info["gates"]), str(info["registers"])]
        for name, info in sorted(report["blocks"].items())
    ]
    print(
        render_table(
            ["RTL block", "gates (est.)", "registers (est.)"],
            rows,
            title="RTL blocks mapped onto the emulated accelerator",
        )
    )
    print(
        f"\nCapacity: {report['used_gates']:,} / {report['capacity_gates']:,} gates "
        f"({report['utilisation'] * 100:.1f}% utilisation)"
    )
    print(f"Registers to shadow for rb_store/rb_restore: {report['rollback_registers']:,}")

    # Use the accelerator's own register estimate as the rollback budget.
    config = CoEmulationConfig(
        mode=OperatingMode.ALS,
        total_cycles=400,
        rollback_variables=report["rollback_registers"],
    )
    partition = als_streaming_soc(n_bursts=12).build_partition()
    result = create_engine(config, partition=partition).run()
    print(
        f"\nCo-emulation with that rollback budget: "
        f"{result.performance_cycles_per_second / 1000:.1f} kcycles/s, "
        f"Tstore = {result.tstore:.2e} s/cycle, Trestore = {result.trestore:.2e} s/cycle"
    )


if __name__ == "__main__":
    main()
