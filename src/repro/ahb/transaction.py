"""Transaction-level representations of bus activity.

A :class:`BusTransaction` is the unit of work a bus master wants to perform:
a read or write burst of one or more beats.  Masters turn transactions into
pin-level address/data phases; the :class:`TransactionRecorder` records the
completed beats and performs the inverse, re-assembling them into
transactions.  Comparing the recorded beat streams of two system models
(monolithic bus vs. split co-emulated bus, conservative vs. optimistic
synchronisation) is the golden functional-equivalence check used throughout
the test suite; the end-to-end property test also compares the reassembled
transaction streams per master.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .signals import AhbError, HBurst, HResp, HSize
from .burst import beat_count


@dataclass
class BusTransaction:
    """A read or write burst requested by a master.

    Attributes:
        master_id: identifier of the issuing master.
        address: byte address of the first beat (must be HSIZE aligned).
        write: True for a write burst, False for a read burst.
        data: write data words (writes) -- must have one entry per beat.
        hburst: AHB burst type.
        hsize: transfer size.
        beats: number of beats; inferred from ``hburst`` when possible.
        issue_cycle: earliest target cycle at which the master may request
            the bus for this transaction.
    """

    master_id: int
    address: int
    write: bool
    hburst: HBurst = HBurst.SINGLE
    hsize: HSize = HSize.WORD
    data: List[int] = field(default_factory=list)
    beats: Optional[int] = None
    issue_cycle: int = 0

    def __post_init__(self) -> None:
        if self.beats is None:
            self.beats = beat_count(self.hburst, len(self.data) or None)
        if self.write:
            if len(self.data) != self.beats:
                raise AhbError(
                    f"write transaction has {len(self.data)} data words "
                    f"but {self.beats} beats"
                )
        if self.address % self.hsize.bytes != 0:
            raise AhbError(
                f"transaction address {self.address:#x} not aligned to {self.hsize.name}"
            )

    @property
    def n_beats(self) -> int:
        return int(self.beats)


@dataclass(slots=True)
class CompletedBeat:
    """One completed data phase, as observed on the bus (hot-path object:
    one per committed beat, hence ``__slots__``)."""

    cycle: int
    master_id: int
    address: int
    write: bool
    data: Optional[int]
    hresp: HResp
    hburst: HBurst
    hsize: HSize
    first_beat: bool

    def key(self) -> tuple:
        """Order-sensitive functional summary (cycle excluded on purpose).

        The optimistic scheme changes *when* things happen in wall-clock
        terms but must not change the order or content of completed beats,
        so equivalence checks compare keys without the cycle number only if
        requested by the caller.
        """
        return (
            self.master_id,
            self.address,
            self.write,
            self.data,
            int(self.hresp),
            int(self.hburst),
            int(self.hsize),
            self.first_beat,
        )


@dataclass
class CompletedTransaction:
    """A fully completed burst, reassembled from its beats."""

    master_id: int
    address: int
    write: bool
    hburst: HBurst
    hsize: HSize
    data: List[int]
    start_cycle: int
    end_cycle: int
    responses: List[HResp] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(resp is HResp.OKAY for resp in self.responses)


class TransactionRecorder:
    """Records completed beats and reassembles them into transactions.

    The beat list is the recorder's only state: a snapshot is a beat count,
    and a restore truncates the list, so a burst that was open at the
    snapshot is reassembled from its beats like any other.  Reassembly
    (:meth:`finalize`) groups consecutive beats from the same master: a beat
    marked ``first_beat`` starts a new transaction, subsequent beats extend
    it until the expected beat count is reached.
    """

    def __init__(self) -> None:
        self.beats: List[CompletedBeat] = []

    def record_beat(self, beat: CompletedBeat) -> None:
        """Record one completed data phase."""
        self.beats.append(beat)

    @property
    def transactions(self) -> List[CompletedTransaction]:
        """The beats reassembled into transactions (see :meth:`finalize`)."""
        return self.finalize()

    def finalize(self) -> List[CompletedTransaction]:
        """Reassemble the recorded beats into transactions.

        Transactions are listed in the order they closed; bursts still open
        after the last beat close as they stand, last-opened last.  A new
        first beat closes its master's unfinished transaction as-is (an
        ERROR response aborts the remainder of a burst), an INCR burst runs
        until its master's next first beat, and a SEQ beat without an open
        transaction counts as a single transfer.
        """
        transactions: List[CompletedTransaction] = []
        # master id -> (open transaction, expected beats or -1 for INCR)
        open_txns: Dict[int, tuple] = {}
        for beat in self.beats:
            master_id = beat.master_id
            entry = None if beat.first_beat else open_txns.get(master_id)
            if entry is not None:
                txn, expected = entry
                if beat.data is not None:
                    txn.data.append(beat.data)
                txn.responses.append(beat.hresp)
                txn.end_cycle = beat.cycle
                if expected > 0 and len(txn.responses) >= expected:
                    transactions.append(open_txns.pop(master_id)[0])
                continue
            unfinished = open_txns.pop(master_id, None)
            if unfinished is not None:
                transactions.append(unfinished[0])
            hburst = beat.hburst if beat.first_beat else HBurst.SINGLE
            txn = CompletedTransaction(
                master_id=master_id,
                address=beat.address,
                write=beat.write,
                hburst=hburst,
                hsize=beat.hsize,
                data=[] if beat.data is None else [beat.data],
                start_cycle=beat.cycle,
                end_cycle=beat.cycle,
                responses=[beat.hresp],
            )
            expected = -1 if hburst is HBurst.INCR else hburst.beats or 1
            if expected == 1:
                transactions.append(txn)
            else:
                open_txns[master_id] = (txn, expected)
        transactions.extend(txn for txn, _ in open_txns.values())
        return transactions

    def beat_keys(self) -> List[tuple]:
        """Functional summary of the beat stream (for equivalence checks)."""
        return [beat.key() for beat in self.beats]

    def snapshot(self) -> int:
        """Snapshot for rollback: the beat count (beats are append-only)."""
        return len(self.beats)

    def restore(self, n_beats: int) -> None:
        del self.beats[n_beats:]
