"""Unit tests for transaction-level containers and the recorder."""

from __future__ import annotations

import pytest

from repro.ahb.signals import AhbError, HBurst, HResp, HSize
from repro.ahb.transaction import (
    BusTransaction,
    CompletedBeat,
    TransactionRecorder,
)


def beat(master=0, addr=0x0, write=True, data=1, first=True, burst=HBurst.INCR4, resp=HResp.OKAY, cycle=0):
    return CompletedBeat(
        cycle=cycle,
        master_id=master,
        address=addr,
        write=write,
        data=data,
        hresp=resp,
        hburst=burst,
        hsize=HSize.WORD,
        first_beat=first,
    )


class TestBusTransaction:
    def test_beats_inferred_from_burst_type(self):
        txn = BusTransaction(0, 0x0, False, HBurst.INCR8)
        assert txn.n_beats == 8

    def test_write_data_length_must_match_beats(self):
        BusTransaction(0, 0x0, True, HBurst.INCR4, data=[1, 2, 3, 4])
        with pytest.raises(AhbError):
            BusTransaction(0, 0x0, True, HBurst.INCR4, data=[1, 2])

    def test_incr_burst_requires_explicit_length(self):
        txn = BusTransaction(0, 0x0, True, HBurst.INCR, data=[1, 2, 3])
        assert txn.n_beats == 3
        with pytest.raises(AhbError):
            BusTransaction(0, 0x0, False, HBurst.INCR)

    def test_alignment_enforced(self):
        with pytest.raises(AhbError):
            BusTransaction(0, 0x2, False, HBurst.SINGLE, hsize=HSize.WORD)


class TestCompletedBeatKey:
    def test_key_ignores_cycle(self):
        a = beat(cycle=5)
        b = beat(cycle=900)
        assert a.key() == b.key()

    def test_key_distinguishes_content(self):
        assert beat(data=1).key() != beat(data=2).key()
        assert beat(addr=0x0).key() != beat(addr=0x4).key()
        assert beat(write=True).key() != beat(write=False).key()


class TestTransactionRecorder:
    def test_fixed_burst_assembled_into_one_transaction(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(addr=0x0, data=1, first=True))
        recorder.record_beat(beat(addr=0x4, data=2, first=False))
        recorder.record_beat(beat(addr=0x8, data=3, first=False))
        recorder.record_beat(beat(addr=0xC, data=4, first=False))
        transactions = recorder.finalize()
        assert len(transactions) == 1
        assert transactions[0].data == [1, 2, 3, 4]
        assert transactions[0].address == 0x0
        assert transactions[0].ok

    def test_single_burst_closes_immediately(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(burst=HBurst.SINGLE, first=True))
        assert len(recorder.transactions) == 1

    def test_interleaved_masters_are_kept_separate(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(master=0, addr=0x0, data=10, first=True))
        recorder.record_beat(beat(master=1, addr=0x100, data=20, first=True))
        recorder.record_beat(beat(master=0, addr=0x4, data=11, first=False))
        recorder.record_beat(beat(master=1, addr=0x104, data=21, first=False))
        recorder.finalize()
        by_master = {t.master_id: t for t in recorder.transactions}
        assert by_master[0].data == [10, 11]
        assert by_master[1].data == [20, 21]

    def test_new_first_beat_closes_unfinished_transaction(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(addr=0x0, data=1, first=True))  # 4-beat burst, aborted
        recorder.record_beat(beat(addr=0x100, data=9, first=True, burst=HBurst.SINGLE))
        transactions = recorder.finalize()
        assert len(transactions) == 2
        assert transactions[0].data == [1]

    def test_error_response_recorded(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(resp=HResp.ERROR, burst=HBurst.SINGLE))
        assert not recorder.transactions[0].ok

    def test_seq_without_open_transaction_becomes_single(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(addr=0x8, data=3, first=False))
        assert len(recorder.transactions) == 1
        assert recorder.transactions[0].hburst is HBurst.SINGLE

    def test_beat_keys_capture_the_stream(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(addr=0x0, data=1))
        recorder.record_beat(beat(addr=0x4, data=2, first=False))
        assert len(recorder.beat_keys()) == 2
        assert recorder.beat_keys()[0] != recorder.beat_keys()[1]

    def test_snapshot_restore_trims_appended_beats(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(burst=HBurst.SINGLE))
        state = recorder.snapshot()
        recorder.record_beat(beat(addr=0x4, burst=HBurst.SINGLE))
        recorder.record_beat(beat(addr=0x8, burst=HBurst.SINGLE))
        recorder.restore(state)
        assert len(recorder.beats) == 1
        assert len(recorder.transactions) == 1

    def test_restore_keeps_a_burst_open_across_the_snapshot(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(addr=0x0, data=1, first=True))
        recorder.record_beat(beat(addr=0x4, data=2, first=False))
        state = recorder.snapshot()
        # Speculative beats, rolled back ...
        recorder.record_beat(beat(addr=0x8, data=99, first=False))
        recorder.restore(state)
        # ... then the burst completes for real.
        recorder.record_beat(beat(addr=0x8, data=3, first=False))
        recorder.record_beat(beat(addr=0xC, data=4, first=False))
        transactions = recorder.finalize()
        assert len(transactions) == 1
        assert transactions[0].data == [1, 2, 3, 4]
        assert transactions[0].hburst is HBurst.INCR4

    def test_open_bursts_close_at_finalize_in_opening_order(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(master=0, addr=0x0, data=1, first=True))
        recorder.record_beat(beat(master=1, addr=0x100, data=2, first=True, burst=HBurst.INCR))
        recorder.record_beat(beat(master=1, addr=0x104, data=3, first=False, burst=HBurst.INCR))
        assert [(t.master_id, t.data) for t in recorder.finalize()] == [(0, [1]), (1, [2, 3])]

    def test_incr_burst_runs_until_its_masters_next_first_beat(self):
        recorder = TransactionRecorder()
        recorder.record_beat(beat(master=0, addr=0x0, data=1, burst=HBurst.INCR))
        recorder.record_beat(beat(master=1, addr=0x100, data=7, burst=HBurst.SINGLE))
        recorder.record_beat(beat(master=0, addr=0x4, data=2, first=False, burst=HBurst.INCR))
        recorder.record_beat(beat(master=0, addr=0x8, data=3, first=False, burst=HBurst.INCR))
        recorder.record_beat(beat(master=0, addr=0x40, data=4, burst=HBurst.SINGLE))
        assert [(t.master_id, t.hburst, t.data) for t in recorder.transactions] == [
            (1, HBurst.SINGLE, [7]),
            (0, HBurst.INCR, [1, 2, 3]),
            (0, HBurst.SINGLE, [4]),
        ]
