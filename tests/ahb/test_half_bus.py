"""Unit tests for the half bus models and the boundary-value plumbing.

These tests drive two :class:`HalfBusModel` instances directly (without the
co-emulation engines) by exchanging their boundary contributions every cycle,
i.e. a hand-rolled conservative synchronisation.  This isolates the split-bus
logic from the channel wrappers.
"""

from __future__ import annotations

import pytest

from repro.ahb.half_bus import BoundaryDrive, HalfBusModel
from repro.ahb.master import TrafficMaster
from repro.ahb.signals import AhbError, DataPhaseResult, HBurst
from repro.ahb.slave import MemorySlave
from repro.ahb.transaction import BusTransaction
from repro.sim.component import Domain


def build_split_pair(acc_master_txns, sim_slave_base=0x1000, sim_slave_size=0x1000):
    """One RTL master in the accelerator, one memory in the simulator."""
    sim_hbm = HalfBusModel("hbms", Domain.SIMULATOR)
    acc_hbm = HalfBusModel("hbma", Domain.ACCELERATOR)
    master = TrafficMaster("m0", 0, acc_master_txns)
    acc_hbm.add_local_master(master)
    sim_hbm.add_remote_master(0)
    memory = MemorySlave("mem", 0, sim_slave_base, sim_slave_size)
    sim_hbm.add_local_slave(memory, sim_slave_base, sim_slave_size)
    acc_hbm.add_remote_slave(0, sim_slave_base, sim_slave_size, name="mem")
    sim_hbm.finalize()
    acc_hbm.finalize()
    return sim_hbm, acc_hbm, master, memory


def lockstep_cycle(sim_hbm, acc_hbm, cycle):
    """Run one conservatively synchronised cycle across both halves."""
    acc_drive = acc_hbm.drive_phase(cycle)
    sim_drive = sim_hbm.drive_phase(cycle)
    merged_sim = sim_hbm.merge_drive(sim_drive, acc_drive)
    merged_acc = acc_hbm.merge_drive(acc_drive, sim_drive)
    sim_response = sim_hbm.response_phase(cycle, merged_sim).response
    acc_response = acc_hbm.response_phase(cycle, merged_acc).response
    response = sim_response or acc_response or DataPhaseResult.okay()
    sim_hbm.commit_phase(cycle, merged_sim, response)
    acc_hbm.commit_phase(cycle, merged_acc, response)
    return response


def run_lockstep(sim_hbm, acc_hbm, cycles):
    for cycle in range(cycles):
        lockstep_cycle(sim_hbm, acc_hbm, cycle)


class TestConstruction:
    def test_duplicate_master_ids_rejected_across_local_and_remote(self):
        hbm = HalfBusModel("h", Domain.SIMULATOR)
        hbm.add_local_master(TrafficMaster("m", 0))
        with pytest.raises(AhbError):
            hbm.add_remote_master(0)
        with pytest.raises(AhbError):
            hbm.add_local_master(TrafficMaster("m2", 0))

    def test_duplicate_slave_ids_rejected(self):
        hbm = HalfBusModel("h", Domain.SIMULATOR)
        hbm.add_local_slave(MemorySlave("a", 0, 0x0, 0x100), 0x0, 0x100)
        with pytest.raises(AhbError):
            hbm.add_remote_slave(0, 0x1000, 0x100)

    def test_finalize_requires_at_least_one_master(self):
        hbm = HalfBusModel("h", Domain.SIMULATOR)
        with pytest.raises(AhbError):
            hbm.finalize()

    def test_both_halves_share_the_same_memory_map_view(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.SINGLE, data=[1])]
        )
        assert sim_hbm.decoder.select(0x1004) == acc_hbm.decoder.select(0x1004) == 0


class TestNeededFields:
    def test_simulator_needs_remote_address_when_remote_master_granted(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4])]
        )
        needed = sim_hbm.needed_fields()
        assert needed.needs_remote_requests
        assert needed.needs_remote_address_phase  # granted master 0 is remote to sim
        assert not needed.needs_remote_response

    def test_accelerator_needs_remote_response_once_data_phase_targets_sim_slave(self):
        sim_hbm, acc_hbm, master, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4])]
        )
        run_lockstep(sim_hbm, acc_hbm, 2)  # first beat enters its data phase
        needed = acc_hbm.needed_fields()
        assert needed.needs_remote_response
        assert not needed.response_is_read
        assert not needed.needs_anything_non_predictable

    def test_read_from_remote_slave_is_non_predictable(self):
        sim_hbm, acc_hbm, _, memory = build_split_pair(
            [BusTransaction(0, 0x1000, False, HBurst.INCR4)]
        )
        run_lockstep(sim_hbm, acc_hbm, 2)
        needed = acc_hbm.needed_fields()
        assert needed.needs_remote_response
        assert needed.response_is_read
        assert needed.needs_anything_non_predictable

    def test_remote_write_data_is_non_predictable_for_slave_side(self):
        # Master in the simulator writes to an accelerator memory: the
        # accelerator needs the remote HWDATA, which is non-predictable.
        sim_hbm = HalfBusModel("hbms", Domain.SIMULATOR)
        acc_hbm = HalfBusModel("hbma", Domain.ACCELERATOR)
        master = TrafficMaster("m0", 0, [BusTransaction(0, 0x0, True, HBurst.INCR4, data=[1, 2, 3, 4])])
        sim_hbm.add_local_master(master)
        acc_hbm.add_remote_master(0)
        memory = MemorySlave("mem", 0, 0x0, 0x1000)
        acc_hbm.add_local_slave(memory, 0x0, 0x1000)
        sim_hbm.add_remote_slave(0, 0x0, 0x1000)
        sim_hbm.finalize()
        acc_hbm.finalize()
        run_lockstep(sim_hbm, acc_hbm, 2)
        needed = acc_hbm.needed_fields()
        assert needed.needs_remote_hwdata
        assert needed.needs_anything_non_predictable


class TestLockstepExecution:
    def test_write_burst_lands_in_remote_memory(self):
        sim_hbm, acc_hbm, master, memory = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[10, 20, 30, 40])]
        )
        run_lockstep(sim_hbm, acc_hbm, 20)
        assert master.done
        assert [memory.read_word(0x1000 + 4 * i) for i in range(4)] == [10, 20, 30, 40]

    def test_both_halves_record_the_same_beat_stream(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [
                BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4]),
                BusTransaction(0, 0x1000, False, HBurst.INCR4),
            ]
        )
        run_lockstep(sim_hbm, acc_hbm, 30)
        assert sim_hbm.recorder.beat_keys() == acc_hbm.recorder.beat_keys()
        assert len(sim_hbm.recorder.beat_keys()) == 8

    def test_registered_state_stays_in_sync(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.INCR8, data=list(range(8)))]
        )
        for cycle in range(15):
            lockstep_cycle(sim_hbm, acc_hbm, cycle)
            assert sim_hbm.core.granted_master == acc_hbm.core.granted_master
            sim_phase = sim_hbm.core.data_phase
            acc_phase = acc_hbm.core.data_phase
            assert (sim_phase is None) == (acc_phase is None)
            if sim_phase is not None:
                assert sim_phase.haddr == acc_phase.haddr

    def test_no_protocol_violations_in_either_half(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [
                BusTransaction(0, 0x1000, True, HBurst.INCR8, data=list(range(8))),
                BusTransaction(0, 0x1000, False, HBurst.INCR8),
            ]
        )
        run_lockstep(sim_hbm, acc_hbm, 40)
        assert sim_hbm.monitor.ok, [str(v) for v in sim_hbm.monitor.violations]
        assert acc_hbm.monitor.ok, [str(v) for v in acc_hbm.monitor.violations]

    def test_merge_drive_fills_idle_phase_when_nobody_drives(self):
        sim_hbm, acc_hbm, _, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.SINGLE, data=[1], issue_cycle=100)]
        )
        drive = sim_hbm.merge_drive(
            BoundaryDrive(cycle=0, requests={}),
            BoundaryDrive(cycle=0, requests={0: False}),
        )
        assert not drive.address_phase.is_active

    def test_snapshot_restore_rewinds_half_bus(self):
        sim_hbm, acc_hbm, master, memory = build_split_pair(
            [
                BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4]),
                BusTransaction(0, 0x1010, True, HBurst.INCR4, data=[5, 6, 7, 8]),
            ]
        )
        run_lockstep(sim_hbm, acc_hbm, 6)
        sim_state = sim_hbm.snapshot_state()
        acc_state = acc_hbm.snapshot_state()
        beats_before = list(sim_hbm.recorder.beat_keys())
        for cycle in range(6, 20):
            lockstep_cycle(sim_hbm, acc_hbm, cycle)
        sim_hbm.restore_state(sim_state)
        acc_hbm.restore_state(acc_state)
        assert sim_hbm.recorder.beat_keys() == beats_before
        # replay after restore reaches the same final state
        for cycle in range(6, 20):
            lockstep_cycle(sim_hbm, acc_hbm, cycle)
        assert [memory.read_word(0x1010 + 4 * i) for i in range(4)] == [5, 6, 7, 8]


def record_key(record):
    return (
        record.cycle,
        record.granted_master,
        record.address_phase,
        record.data_phase,
        record.hwdata,
        record.response,
        dict(record.requests),
    )


def late_write_pair():
    """A split pair whose only master stays idle until cycle 30."""
    return build_split_pair(
        [BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4], issue_cycle=30)]
    )


class TestIdleCommit:
    def test_idle_drive_is_all_low_while_the_master_waits(self):
        sim_hbm, acc_hbm, _, _ = late_write_pair()
        drive = acc_hbm.idle_drive(0)
        assert drive is not None
        assert drive.cycle == 0
        assert drive.requests == {0: False}
        assert drive.address_phase is None or not drive.address_phase.is_active
        # The simulator half has no local master: its idle drive is empty.
        assert sim_hbm.idle_drive(0).requests == {}

    def test_idle_drive_is_none_once_a_local_master_requests(self):
        _, acc_hbm, _, _ = build_split_pair(
            [BusTransaction(0, 0x1000, True, HBurst.SINGLE, data=[5])]
        )
        assert acc_hbm.idle_drive(0) is None

    def test_commit_idle_cycles_matches_scalar_idle_commits(self):
        scalar = late_write_pair()
        batched = late_write_pair()
        run_lockstep(scalar[0], scalar[1], 20)

        sim_hbm, acc_hbm, _, _ = batched
        assert sim_hbm.idle_stationary() and acc_hbm.idle_stationary()
        local = acc_hbm.idle_drive(0)
        merged = sim_hbm.merge_drive(sim_hbm.idle_drive(0), local)
        requests = {0: False}
        records = sim_hbm.commit_idle_cycles(0, [merged.address_phase] * 20, requests)
        acc_hbm.adopt_idle_records(records, requests)

        assert all(a is b for a, b in zip(acc_hbm.records, records))  # by reference
        assert len(acc_hbm.records) == len(records) == 20
        for scalar_hbm, batched_hbm in zip(scalar[:2], batched[:2]):
            assert [record_key(r) for r in batched_hbm.records] == [
                record_key(r) for r in scalar_hbm.records
            ]
            assert batched_hbm.core.snapshot() == scalar_hbm.core.snapshot()
        # Both pairs then run the burst to the same end state.
        for pair in (scalar, batched):
            for cycle in range(20, 60):
                lockstep_cycle(pair[0], pair[1], cycle)
        assert batched[0].recorder.beat_keys() == scalar[0].recorder.beat_keys()
        assert len(batched[0].recorder.beats) == 4
        assert [batched[3].read_word(0x1000 + 4 * i) for i in range(4)] == [1, 2, 3, 4]

    def test_redo_checkpoint_window_regrows_the_discarded_history(self):
        reference = build_split_pair(
            [
                BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4]),
                BusTransaction(0, 0x1010, True, HBurst.INCR4, data=[5, 6, 7, 8]),
            ]
        )
        pair = build_split_pair(
            [
                BusTransaction(0, 0x1000, True, HBurst.INCR4, data=[1, 2, 3, 4]),
                BusTransaction(0, 0x1010, True, HBurst.INCR4, data=[5, 6, 7, 8]),
            ]
        )
        run_lockstep(reference[0], reference[1], 30)
        halves = pair[:2]
        run_lockstep(pair[0], pair[1], 3)
        tokens = [hbm.open_checkpoint_window() for hbm in halves]
        for cycle in range(3, 12):  # the discarded run: ends inside a burst
            lockstep_cycle(pair[0], pair[1], cycle)
        discarded = [len(hbm.recorder.beats) for hbm in halves]
        redo = [hbm.rewind_checkpoint_window(t, redo=True) for hbm, t in zip(halves, tokens)]
        assert [len(hbm.recorder.beats) for hbm in halves] < discarded
        for cycle in range(3, 5):  # the re-executed prefix
            lockstep_cycle(pair[0], pair[1], cycle)
        for hbm, state in zip(halves, redo):
            hbm.open_checkpoint_window()
            hbm.redo_checkpoint_window(state)
        assert [len(hbm.recorder.beats) for hbm in halves] == discarded
        for cycle in range(12, 30):
            lockstep_cycle(pair[0], pair[1], cycle)
        for hbm, ref in zip(halves, reference[:2]):
            assert hbm.recorder.beat_keys() == ref.recorder.beat_keys()
            assert [(t.data, t.hburst) for t in hbm.recorder.finalize()] == [
                (t.data, t.hburst) for t in ref.recorder.finalize()
            ]
            assert [record_key(r) for r in hbm.records] == [
                record_key(r) for r in ref.records
            ]
        assert [pair[3].read_word(0x1000 + 4 * i) for i in range(8)] == list(range(1, 9))
