"""Property-based end-to-end test: random workloads, random scheme parameters,
functional equivalence must always hold.

This is the strongest invariant of the whole reproduction: no combination of
operating mode, LOB depth and injected prediction accuracy may change the
committed bus traffic relative to the monolithic reference bus.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoEmulationConfig, OperatingMode, OptimisticCoEmulation
from repro.sim.component import Domain
from repro.sim.kernel import CycleKernel
from repro.workloads import AddressWindow, MasterSpec, SlaveSpec, SocSpec
from repro.workloads.generators import TrafficProfile, generate_traffic
from repro.workloads.trace import traces_equivalent, transaction_to_dict


SIM_WINDOW = AddressWindow(base=0x1000_0000, size=0x1000)
ACC_WINDOW = AddressWindow(base=0x0000_0000, size=0x1000)


def make_spec(seed: int, acc_writes_to_sim: bool) -> SocSpec:
    """A two-master SoC with randomised traffic.

    Master 0 lives in the accelerator and (when ``acc_writes_to_sim``) streams
    writes into the simulator memory -- the ALS-friendly direction.  Master 1
    lives in the simulator and works on the simulator-local memory.
    """

    def acc_traffic():
        return generate_traffic(
            TrafficProfile(
                master_id=0,
                n_transactions=6,
                write_fraction=1.0 if acc_writes_to_sim else 0.5,
                write_windows=(SIM_WINDOW if acc_writes_to_sim else ACC_WINDOW,),
                read_windows=(ACC_WINDOW,),
                seed=seed,
            )
        )

    def sim_traffic():
        return generate_traffic(
            TrafficProfile(
                master_id=1,
                n_transactions=6,
                write_fraction=0.5,
                write_windows=(SIM_WINDOW,),
                read_windows=(SIM_WINDOW,),
                seed=seed + 1,
                issue_gap=3,
            )
        )

    return SocSpec(
        name=f"random_{seed}",
        masters=[
            MasterSpec(master_id=0, name="acc_m", domain=Domain.ACCELERATOR, transactions=acc_traffic),
            MasterSpec(master_id=1, name="sim_m", domain=Domain.SIMULATOR, transactions=sim_traffic),
        ],
        slaves=[
            SlaveSpec(
                slave_id=0,
                name="acc_mem",
                domain=Domain.ACCELERATOR,
                base=ACC_WINDOW.base,
                size=ACC_WINDOW.size,
            ),
            SlaveSpec(
                slave_id=1,
                name="sim_mem",
                domain=Domain.SIMULATOR,
                base=SIM_WINDOW.base,
                size=SIM_WINDOW.size,
            ),
        ],
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from([OperatingMode.ALS, OperatingMode.SLA, OperatingMode.AUTO]),
    lob_depth=st.sampled_from([2, 8, 64]),
    accuracy=st.one_of(st.none(), st.floats(min_value=0.3, max_value=0.99)),
    acc_writes_to_sim=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_workloads_preserve_functional_equivalence(
    seed, mode, lob_depth, accuracy, acc_writes_to_sim
):
    cycles = 180
    reference_spec = make_spec(seed, acc_writes_to_sim)
    bus, _ = reference_spec.build_reference()
    kernel = CycleKernel("reference")
    kernel.add_component(bus)
    kernel.run(cycles)
    assert bus.monitor.ok, [str(v) for v in bus.monitor.violations]

    split_spec = make_spec(seed, acc_writes_to_sim)
    sim_hbm, acc_hbm, _ = split_spec.build_split()
    config = CoEmulationConfig(
        mode=mode,
        total_cycles=cycles,
        lob_depth=lob_depth,
        forced_accuracy=accuracy,
        forced_accuracy_seed=seed,
    )
    partition = {Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}
    result = OptimisticCoEmulation(partition, config).run()
    assert result.monitors_ok
    assert traces_equivalent(bus.recorder, [sim_hbm.recorder, acc_hbm.recorder]) is None
    # The reassembled transactions too (per master, cycles excluded): a
    # rolled-back leader must not split a burst that was open at its
    # checkpoint.
    reference = transaction_streams(bus.recorder)
    assert transaction_streams(sim_hbm.recorder) == reference
    assert transaction_streams(acc_hbm.recorder) == reference


def transaction_streams(recorder):
    streams = {}
    for txn in recorder.finalize():
        streams.setdefault(txn.master_id, []).append(transaction_to_dict(txn))
    return streams
