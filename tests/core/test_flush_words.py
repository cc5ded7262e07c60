"""The LOB flush's inlined word arithmetic must match the packetizer.

``OptimisticCoEmulation._flush_lob`` inlines
``BoundaryPacketizer.cycle_word_count``'s layout for speed (it runs once
per LOB entry on the transition hot path).  This suite pins the inline
copy to the packetizer across every field combination, so an encoding
layout change that only updates the packetizer fails here instead of
silently desynchronising the flush's channel accounting.
"""

from __future__ import annotations

import itertools

from repro.ahb.half_bus import BoundaryDrive
from repro.ahb.signals import AddressPhase, DataPhaseResult, HResp, HTrans
from repro.core import CoEmulationConfig, OperatingMode, OptimisticCoEmulation
from repro.core.lob import LobEntry
from repro.core.prediction import PredictionRecord
from repro.core.transition import TransitionLog
from repro.workloads import als_streaming_soc


def reference_words(packetizer, entries) -> int:
    """The flush size computed through the packetizer's own counters."""
    total = 0
    for entry in entries:
        total += packetizer.drive_word_count(entry.leader_drive)
        if entry.leader_response is not None:
            total += packetizer.response_word_count(entry.leader_response)
        if entry.prediction is not None:
            total += packetizer.cycle_word_count(
                address_phase=entry.prediction.address_phase,
                hwdata=entry.prediction.hwdata,
                response=entry.prediction.response,
            )
    return total


def build_engine():
    partition = als_streaming_soc(n_bursts=4).build_partition()
    config = CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=50)
    return OptimisticCoEmulation(partition, config)


def all_entry_shapes():
    """Every combination of present/absent optional fields."""
    phase = AddressPhase(master_id=0, haddr=0x100, htrans=HTrans.NONSEQ, hwrite=True)
    responses = [
        None,
        DataPhaseResult.okay(),
        DataPhaseResult.okay(hrdata=0xABC),
        DataPhaseResult(hready=False, hresp=HResp.OKAY),
    ]
    entries = []
    cycle = 0
    for drive_phase, drive_hwdata, response, with_prediction in itertools.product(
        (None, phase), (None, 0x1234), responses, (False, True)
    ):
        for pred_phase, pred_hwdata, pred_response in itertools.product(
            (None, phase), (None, 0x9), (None, DataPhaseResult.okay(hrdata=7))
        ):
            prediction = (
                PredictionRecord(
                    cycle=cycle,
                    requests={1: True},
                    address_phase=pred_phase,
                    hwdata=pred_hwdata,
                    response=pred_response,
                )
                if with_prediction
                else None
            )
            entries.append(
                LobEntry(
                    cycle=cycle,
                    leader_drive=BoundaryDrive(
                        cycle=cycle,
                        requests={0: True},
                        address_phase=drive_phase,
                        hwdata=drive_hwdata,
                    ),
                    leader_response=response,
                    prediction=prediction,
                )
            )
            cycle += 1
    return entries


def test_inline_flush_word_arithmetic_matches_the_packetizer():
    engine = build_engine()
    entries = all_entry_shapes()
    leader = engine.acc_host
    laggers = [engine.sim_host]
    record = TransitionLog().new_record(leader.domain, 0)
    flushed = engine._flush_lob(leader, laggers, entries, record)
    assert flushed == reference_words(engine.packetizer, entries)


def test_inline_flush_matches_packetizer_per_single_entry():
    """Pin every shape individually so a mismatch names the offender."""
    engine = build_engine()
    leader = engine.acc_host
    laggers = [engine.sim_host]
    log = TransitionLog()
    for entry in all_entry_shapes():
        record = log.new_record(leader.domain, entry.cycle)
        flushed = engine._flush_lob(leader, laggers, [entry], record)
        expected = reference_words(engine.packetizer, [entry])
        assert flushed == expected, f"mismatch for {entry!r}"
