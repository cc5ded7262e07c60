"""Selective-repeat reliability layer over an imperfect channel.

Two views of the same protocol live here:

* :class:`ReliableStream` -- the *byte-level* protocol: a selective-repeat
  window with SACK-style feedback, per-segment retransmission timers with
  exponential-backoff RTO, duplicate suppression and additive-checksum
  verification, driven over a :class:`~repro.channel.faults.
  FaultyChannelEndpoint` under a virtual clock.  This is the reference
  implementation the property suite exercises: for any fault combination
  within the give-up threshold it delivers every payload exactly once, in
  order.

* :class:`SelectiveRepeatLink` -- the *modelled* per-access form the engines
  charge through.  Engine boundary values travel in-process (see
  :meth:`~repro.core.coemulation.CoEmulationEngineBase._charge_channel`), so
  functional state can never diverge; what an imperfect link changes is the
  modelled wall-clock cost and the traffic accounting.  ``deliver`` simulates
  the protocol closed-form for one message: draw the wire's fate per attempt,
  pay the wire time (every retransmission and duplicate is recorded on the
  underlying :class:`~repro.channel.stats.ChannelStats`), wait out RTOs with
  exponential backoff, pay the SACK feedback (which may itself be lost), and
  give up with a structured :class:`~repro.channel.faults.
  ChannelDegradedError` once one message exhausts ``max_attempts``.

Both views consume the same :class:`~repro.channel.faults.
ChannelFaultInjector`, so the fault schedule is a pure function of the
configured seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .driver import ChannelEndpoint
from .faults import (
    ChannelDegradedError,
    ChannelFaultConfig,
    ChannelFaultInjector,
    FaultyChannelEndpoint,
    frame_checksum,
)
from .phy import ChannelDirection
from .stats import FaultStats


class SelectiveRepeatLink:
    """Modelled exactly-once delivery of one message over a faulty link.

    One instance exists per (source, dest) ordered pair of a sync channel;
    both directions of a channel share the underlying
    :class:`~repro.channel.driver.ChannelEndpoint` (and its
    :class:`~repro.channel.stats.FaultStats`), but each direction draws from
    its own seeded stream so reversing a topology never perturbs the other
    direction's schedule.
    """

    def __init__(
        self,
        channel: ChannelEndpoint,
        direction: ChannelDirection,
        config: ChannelFaultConfig,
        injector: ChannelFaultInjector,
    ) -> None:
        self.channel = channel
        self.direction = direction
        self.config = config
        self.injector = injector
        self.stats = injector.stats
        # Pre-compute the per-frame wire times the closed-form simulation
        # reuses (payload sizes vary per call; these are the fixed parts).
        self._reverse = direction.other

    def deliver(self, n_words: int, purpose: str, target_cycle: int) -> float:
        """Deliver one ``n_words`` message; returns total modelled seconds.

        The sequence/checksum framing words ride along on every attempt, the
        SACK feedback frame pays the reverse direction, and every wire
        transmission (original, retransmission, duplicate, ack) is recorded
        on the channel's traffic stats -- retransmissions *cost* modelled
        time and show up as accesses, exactly like the ideal path's single
        access would.
        """
        config = self.config
        injector = self.injector
        stats = self.stats
        channel = self.channel
        direction = self.direction
        frame_words = n_words + config.frame_overhead_words
        frame_time = channel.params.access_time(direction, frame_words)
        rto = config.base_rto
        total = 0.0
        attempts = 0
        data_delivered = False
        while True:
            if attempts >= config.max_attempts:
                raise ChannelDegradedError(
                    direction=direction,
                    purpose=purpose,
                    target_cycle=target_cycle,
                    attempts=attempts,
                    limit=config.max_attempts,
                    elapsed=total,
                )
            attempts += 1
            stats.attempts += 1
            if attempts > 1:
                stats.retransmissions += 1
            fate = injector.wire_fate()
            total += channel.charge(
                direction, frame_words, purpose=purpose, target_cycle=target_cycle
            )
            total += fate.jitter
            stats.jitter_time += fate.jitter
            for _ in range(fate.duplicates):
                # The wire carries the copy and the receiver discards it.
                stats.duplicates += 1
                stats.duplicates_suppressed += 1
                total += channel.charge(
                    direction, frame_words, purpose=purpose, target_cycle=target_cycle
                )
            if fate.lost or fate.corrupted:
                # Vanished on the wire, overflowed the receive buffer, or
                # failed the checksum: either way the sender only learns via
                # its retransmission timer.
                if fate.corrupted and not fate.lost:
                    stats.corruptions += 1
                elif fate.overflowed:
                    stats.buffer_overflows += 1
                else:
                    stats.drops += 1
                total += rto
                stats.rto_wait_time += rto
                stats.rto_events += 1
                rto = min(rto * config.rto_backoff, config.max_rto)
                continue
            if data_delivered:
                # A retransmission of an already-buffered frame: the receiver
                # suppresses it and re-acks.
                stats.duplicates_suppressed += 1
            elif fate.reorder_depth > 0:
                # Arrived behind younger frames: the receiver's window
                # buffers it for reorder_depth frame-times before it can be
                # released in order.
                stats.reorder_events += 1
                stats.max_reorder_depth = max(stats.max_reorder_depth, fate.reorder_depth)
                wait = fate.reorder_depth * frame_time
                total += wait
                stats.reorder_wait_time += wait
            data_delivered = True
            # SACK feedback on the reverse direction; it can be lost or
            # corrupted too, in which case the sender's timer fires and the
            # (suppressed) retransmission solicits a fresh ack.
            ack_fate = injector.wire_fate()
            total += channel.charge(
                self._reverse, config.ack_words, purpose="sr_ack", target_cycle=target_cycle
            )
            total += ack_fate.jitter
            stats.jitter_time += ack_fate.jitter
            if ack_fate.lost or ack_fate.corrupted:
                stats.ack_losses += 1
                total += rto
                stats.rto_wait_time += rto
                stats.rto_events += 1
                rto = min(rto * config.rto_backoff, config.max_rto)
                continue
            return total


# ---------------------------------------------------------------------------
# Byte-level protocol: selective repeat + SACK over a faulty endpoint.
# ---------------------------------------------------------------------------

@dataclass
class _Segment:
    """Sender-side state of one in-flight payload."""

    seq: int
    words: List[int]
    acked: bool = False
    sent: bool = False
    attempts: int = 0
    deadline: float = 0.0
    rto: float = 0.0


@dataclass
class StreamReport:
    """Observable outcome of one :meth:`ReliableStream.transfer`."""

    delivered: int = 0
    elapsed: float = 0.0
    checksum_failures: int = 0
    duplicates_suppressed: int = 0
    acks_received: int = 0
    sack_rescues: int = 0
    fault_stats: Optional[FaultStats] = None


class ReliableStream:
    """Selective-repeat + SACK transfer of payload frames over a faulty link.

    Data frames travel in ``direction``; SACK feedback travels the opposite
    way through the *same* fault injector, so acknowledgements drop, reorder
    and corrupt just like data.  A virtual clock serialises wire time and
    drives the per-segment retransmission timers.

    Frame layout (32-bit words)::

        data:  [seq, payload_len, *payload, checksum]
        sack:  [cum_ack, n_sack, *sack_seqs, checksum]

    The additive checksum detects every single-bit corruption the
    :class:`~repro.channel.faults.CorruptionModel` injects.
    """

    def __init__(
        self,
        link: FaultyChannelEndpoint,
        direction: ChannelDirection,
        config: ChannelFaultConfig,
    ) -> None:
        self.link = link
        self.direction = direction
        self.config = config

    # -- framing -----------------------------------------------------------
    @staticmethod
    def _frame(seq: int, payload: List[int]) -> List[int]:
        words = [seq, len(payload), *payload]
        words.append(frame_checksum(words))
        return words

    @staticmethod
    def _verify(words: List[int]) -> Optional[List[int]]:
        """Return the frame body when the checksum holds, ``None`` otherwise."""
        if len(words) < 2:
            return None
        body, checksum = words[:-1], words[-1]
        if frame_checksum(body) != checksum:
            return None
        return body

    # -- the transfer loop -------------------------------------------------
    def transfer(self, payloads: List[List[int]]) -> List[List[int]]:
        """Send every payload; returns them exactly once, in order.

        Raises :class:`~repro.channel.faults.ChannelDegradedError` when any
        one segment exhausts the give-up threshold.
        """
        report = self.report = StreamReport(fault_stats=self.link.fault_stats)
        config = self.config
        direction = self.direction
        reverse = direction.other
        link = self.link
        window = config.window
        segments = [
            _Segment(seq=seq, words=list(payload), rto=config.base_rto)
            for seq, payload in enumerate(payloads)
        ]
        total = len(segments)
        delivered: List[List[int]] = []
        rcv_base = 0
        rcv_buffer: Dict[int, List[int]] = {}
        base = 0
        clock = 0.0

        while base < total:
            progress = False
            # 1. Sender: transmit every due segment inside the window
            #    (first transmission, or its retransmission timer expired).
            for segment in segments[base : base + window]:
                if segment.acked:
                    continue
                if segment.sent and clock < segment.deadline:
                    continue
                if segment.attempts >= config.max_attempts:
                    raise ChannelDegradedError(
                        direction=direction,
                        purpose="sr_data",
                        target_cycle=segment.seq,
                        attempts=segment.attempts,
                        limit=config.max_attempts,
                        elapsed=clock,
                    )
                if segment.sent:
                    link.fault_stats.retransmissions += 1
                    link.fault_stats.rto_events += 1
                segment.attempts += 1
                clock += link.write(
                    direction,
                    self._frame(segment.seq, segment.words),
                    purpose="sr_data",
                    target_cycle=segment.seq,
                )
                segment.sent = True
                segment.deadline = clock + segment.rto
                segment.rto = min(segment.rto * config.rto_backoff, config.max_rto)
                progress = True

            # 2. Receiver: drain data frames, buffer in-window news, suppress
            #    duplicates, release the in-order prefix, emit SACK feedback.
            while link.readable(direction):
                message = link.read(direction, purpose="sr_data")
                body = self._verify(message.words)
                if body is None:
                    report.checksum_failures += 1
                    continue
                seq, length = body[0], body[1]
                payload = body[2 : 2 + length]
                if seq < rcv_base or seq in rcv_buffer:
                    report.duplicates_suppressed += 1
                    self.link.fault_stats.duplicates_suppressed += 1
                elif seq < rcv_base + window:
                    rcv_buffer[seq] = payload
                # (seq >= rcv_base + window cannot happen: the sender's
                # window never runs that far ahead of the cumulative ack.)
                while rcv_base in rcv_buffer:
                    delivered.append(rcv_buffer.pop(rcv_base))
                    rcv_base += 1
                sack = sorted(rcv_buffer)
                ack_body = [rcv_base, len(sack), *sack]
                ack_body.append(frame_checksum(ack_body))
                clock += link.write(
                    reverse, ack_body, purpose="sr_ack", target_cycle=rcv_base
                )
                progress = True

            # 3. Sender: process SACK feedback -- slide the window over the
            #    cumulative ack, mark SACKed segments so they are never
            #    retransmitted again.
            while link.readable(reverse):
                message = link.read(reverse, purpose="sr_ack")
                body = self._verify(message.words)
                if body is None:
                    report.checksum_failures += 1
                    continue
                report.acks_received += 1
                cum_ack, n_sack = body[0], body[1]
                for seq in range(base, min(cum_ack, total)):
                    segments[seq].acked = True
                for seq in body[2 : 2 + n_sack]:
                    if base <= seq < total and not segments[seq].acked:
                        segments[seq].acked = True
                        report.sack_rescues += 1
                while base < total and segments[base].acked:
                    base += 1
                progress = True

            # 4. Nothing moved: jump the virtual clock to the earliest
            #    pending retransmission timer so the next pass resends.
            if not progress and base < total:
                deadlines = [
                    segment.deadline
                    for segment in segments[base : base + window]
                    if not segment.acked and segment.sent
                ]
                if deadlines:
                    clock = max(clock, min(deadlines))
                else:  # pragma: no cover - defensive; step 1 always sends
                    clock += config.base_rto

        report.delivered = len(delivered)
        report.elapsed = clock
        return delivered
