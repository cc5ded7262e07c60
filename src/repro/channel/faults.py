"""Pluggable channel fault models.

The layered channel of :mod:`repro.channel.driver` is *ideal*: every access
succeeds, in order, at exactly the modelled cost.  Real simulator-accelerator
links are not -- they drop, duplicate, reorder, corrupt and jitter.  This
module makes those imperfections a first-class, seeded, reproducible axis:

* :class:`ChannelFaultConfig` -- one serialisable blob describing every fault
  knob plus the reliability-protocol parameters (window, RTO, give-up
  threshold).  It travels on a :class:`~repro.orchestration.request.
  RunRequest`, so a degraded-link run is exactly as reproducible as an ideal
  one.
* :class:`FaultModel` implementations -- :class:`LossModel` (i.i.d. and
  Gilbert-Elliott burst loss), :class:`ReorderModel`, :class:`DuplicateModel`,
  :class:`CorruptionModel` (checksum-detectable bit flips),
  :class:`JitterModel` and :class:`BoundedBufferModel` -- composed by a
  :class:`ChannelFaultInjector` that draws every decision from one seeded
  ``random.Random`` stream, so the same seed always produces the same fault
  schedule.
* :class:`FaultyChannelEndpoint` -- a byte-level wrapper around the existing
  :class:`~repro.channel.driver.ChannelEndpoint` message transport that
  applies the drawn fate to real queued messages.  The ideal path is
  byte-untouched: nothing in the ideal channel imports or consults this
  module.

The engines do not ship bytes through the endpoint (boundary values travel
in-process; only modelled cost matters), so their integration point is the
modelled :class:`~repro.channel.reliability.SelectiveRepeatLink`, which
consumes the same injector.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Protocol

from .driver import ChannelEndpoint, ChannelError, ChannelMessage
from .phy import ChannelDirection
from .stats import FaultStats


class ChannelFaultConfigError(ValueError):
    """Raised on an invalid or unknown fault configuration."""


class ChannelDegradedError(ChannelError):
    """The reliability layer gave up on a message (link too degraded).

    Raised instead of hanging when one message exhausts the configured
    retransmission budget.  Structured so orchestrators and services can
    report *where* the link failed, not just that it did.
    """

    def __init__(
        self,
        *,
        direction: ChannelDirection,
        purpose: str,
        target_cycle: int,
        attempts: int,
        limit: int,
        elapsed: float,
    ) -> None:
        self.direction = direction
        self.purpose = purpose
        self.target_cycle = target_cycle
        self.attempts = attempts
        self.limit = limit
        self.elapsed = elapsed
        super().__init__(
            f"channel degraded: gave up on {purpose or 'message'!r} in direction "
            f"{direction.value} at target cycle {target_cycle} after {attempts} "
            f"attempt(s) (give-up threshold {limit}, {elapsed:.2e}s modelled time spent)"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "direction": self.direction.value,
            "purpose": self.purpose,
            "target_cycle": self.target_cycle,
            "attempts": self.attempts,
            "limit": self.limit,
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class ChannelFaultConfig:
    """Every knob of an imperfect channel, as one serialisable value.

    Fault shapes (all probabilities per transmitted frame):

    Attributes:
        loss_rate: i.i.d. probability that a frame vanishes on the wire (the
            Gilbert-Elliott *good*-state loss probability when burst loss is
            enabled).
        burst_loss_rate: loss probability while the Gilbert-Elliott chain is
            in its *bad* state; ``None`` disables the chain (pure i.i.d.).
        burst_enter: P(good -> bad) per frame.
        burst_exit: P(bad -> good) per frame.
        reorder_rate: probability a delivered frame arrives late, behind up
            to ``reorder_depth`` younger frames.
        reorder_depth: maximum number of frames an affected frame falls behind.
        duplicate_rate: probability the wire delivers an extra copy.
        corruption_rate: probability of a checksum-detectable bit flip.
        jitter_mean / jitter_spread: extra per-frame latency in seconds;
            each frame pays ``jitter_mean + U[0, jitter_spread)``.
        buffer_capacity: finite receive-buffer depth (out-of-order plus
            duplicate frames beyond it overflow and are dropped, applying
            backpressure as retransmissions); ``None`` models an unbounded
            buffer.

    Reliability-protocol parameters (the selective-repeat layer):

    Attributes:
        window: selective-repeat window size in frames.
        max_attempts: give-up threshold -- transmission attempts per frame
            before :class:`ChannelDegradedError` is raised.
        base_rto: initial retransmission timeout in seconds.
        rto_backoff: multiplicative RTO back-off per timeout.
        max_rto: RTO ceiling in seconds.
        frame_overhead_words: sequencing/checksum words added per data frame.
        ack_words: size of a SACK feedback frame in words.
        seed: fault-schedule seed, folded with the run seed so every
            :class:`~repro.orchestration.request.RunRequest` reproduces its
            exact fault schedule.
    """

    loss_rate: float = 0.0
    burst_loss_rate: Optional[float] = None
    burst_enter: float = 0.02
    burst_exit: float = 0.25
    reorder_rate: float = 0.0
    reorder_depth: int = 3
    duplicate_rate: float = 0.0
    corruption_rate: float = 0.0
    jitter_mean: float = 0.0
    jitter_spread: float = 0.0
    buffer_capacity: Optional[int] = None
    window: int = 32
    max_attempts: int = 8
    base_rto: float = 100e-6
    rto_backoff: float = 2.0
    max_rto: float = 10e-3
    frame_overhead_words: int = 2
    ack_words: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (
            "loss_rate",
            "burst_enter",
            "burst_exit",
            "reorder_rate",
            "duplicate_rate",
            "corruption_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChannelFaultConfigError(f"{name} must be within [0, 1], got {value}")
        if self.burst_loss_rate is not None and not 0.0 <= self.burst_loss_rate <= 1.0:
            raise ChannelFaultConfigError(
                f"burst_loss_rate must be within [0, 1], got {self.burst_loss_rate}"
            )
        if self.jitter_mean < 0 or self.jitter_spread < 0:
            raise ChannelFaultConfigError("jitter parameters cannot be negative")
        if self.reorder_depth < 1:
            raise ChannelFaultConfigError("reorder_depth must be at least 1")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ChannelFaultConfigError("buffer_capacity must be at least 1")
        if self.window < 1:
            raise ChannelFaultConfigError("window must be at least 1")
        if self.max_attempts < 1:
            raise ChannelFaultConfigError("max_attempts must be at least 1")
        if self.base_rto <= 0 or self.max_rto <= 0:
            raise ChannelFaultConfigError("RTO values must be positive")
        if self.rto_backoff < 1.0:
            raise ChannelFaultConfigError("rto_backoff must be at least 1.0")
        if self.frame_overhead_words < 0 or self.ack_words < 1:
            raise ChannelFaultConfigError("frame/ack word counts out of range")

    @property
    def is_ideal(self) -> bool:
        """True when no fault model would ever fire (the wrapper is a no-op)."""
        return (
            self.loss_rate == 0.0
            and self.burst_loss_rate is None
            and self.reorder_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.corruption_rate == 0.0
            and self.jitter_mean == 0.0
            and self.jitter_spread == 0.0
            and self.buffer_capacity is None
        )

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON encoding (canonical field order, no Nones dropped)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChannelFaultConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ChannelFaultConfigError(
                f"unknown channel-fault field(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(payload))

    def derive_rng(self, *coordinates: Any) -> random.Random:
        """A ``random.Random`` seeded from this config plus link coordinates.

        Hash-derived (like request seeds) so the schedule of one link never
        depends on how many other links exist or in what order they were
        built.
        """
        text = repr((self.seed, *[str(c) for c in coordinates]))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return random.Random(int(digest[:16], 16))


@dataclass
class WireFate:
    """What the wire does to one transmitted frame."""

    lost: bool = False
    corrupted: bool = False
    duplicates: int = 0
    reorder_depth: int = 0
    jitter: float = 0.0
    #: ``lost`` because the finite receive buffer overflowed (backpressure),
    #: not because the wire dropped the frame.
    overflowed: bool = False


class FaultModel(Protocol):
    """One composable fault shape.

    Implementations draw from the injector's shared ``random.Random`` in a
    fixed order, which is what makes the whole schedule a pure function of
    the seed.
    """

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        """Mutate ``fate`` with this model's contribution for one frame."""
        ...


class LossModel:
    """Frame loss: i.i.d., or bursty via a two-state Gilbert-Elliott chain."""

    def __init__(
        self,
        rate: float,
        burst_rate: Optional[float] = None,
        burst_enter: float = 0.02,
        burst_exit: float = 0.25,
    ) -> None:
        self.rate = rate
        self.burst_rate = burst_rate
        self.burst_enter = burst_enter
        self.burst_exit = burst_exit
        self._bad_state = False

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        if self.burst_rate is not None:
            # Advance the chain once per frame, then draw with the state's
            # loss probability.
            if self._bad_state:
                if rng.random() < self.burst_exit:
                    self._bad_state = False
            elif rng.random() < self.burst_enter:
                self._bad_state = True
            rate = self.burst_rate if self._bad_state else self.rate
        else:
            rate = self.rate
        if rate > 0.0 and rng.random() < rate:
            fate.lost = True


class ReorderModel:
    """Late delivery: an affected frame falls behind 1..depth younger frames."""

    def __init__(self, rate: float, depth: int = 3) -> None:
        self.rate = rate
        self.depth = depth

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        if self.rate > 0.0 and rng.random() < self.rate:
            fate.reorder_depth = rng.randint(1, self.depth)


class DuplicateModel:
    """The wire delivers an extra copy of the frame."""

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        if self.rate > 0.0 and rng.random() < self.rate:
            fate.duplicates += 1


class CorruptionModel:
    """Checksum-detectable payload corruption (a bit flip in one word)."""

    def __init__(self, rate: float) -> None:
        self.rate = rate

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        if self.rate > 0.0 and rng.random() < self.rate:
            fate.corrupted = True


class JitterModel:
    """Extra per-frame latency: ``mean + U[0, spread)`` seconds."""

    def __init__(self, mean: float, spread: float) -> None:
        self.mean = mean
        self.spread = spread

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        jitter = self.mean
        if self.spread > 0.0:
            jitter += rng.random() * self.spread
        fate.jitter += jitter


class BoundedBufferModel:
    """Finite receive buffer: frames beyond capacity overflow and drop.

    The buffer holds out-of-order frames awaiting their predecessors plus any
    duplicate copies still queued; when one frame's fate would push the
    occupancy past capacity the frame is dropped (counted as an overflow, and
    recovered by retransmission -- the backpressure shape).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity

    def apply(self, rng: random.Random, fate: WireFate) -> None:
        occupancy = fate.reorder_depth + fate.duplicates
        if occupancy > self.capacity:
            fate.lost = True
            fate.overflowed = True


class ChannelFaultInjector:
    """Composes the configured fault models over one seeded random stream."""

    def __init__(
        self,
        config: ChannelFaultConfig,
        rng: random.Random,
        stats: Optional[FaultStats] = None,
    ) -> None:
        self.config = config
        self.rng = rng
        self.stats = stats if stats is not None else FaultStats()
        models: List[FaultModel] = []
        if config.loss_rate > 0.0 or config.burst_loss_rate is not None:
            models.append(
                LossModel(
                    config.loss_rate,
                    burst_rate=config.burst_loss_rate,
                    burst_enter=config.burst_enter,
                    burst_exit=config.burst_exit,
                )
            )
        if config.corruption_rate > 0.0:
            models.append(CorruptionModel(config.corruption_rate))
        if config.duplicate_rate > 0.0:
            models.append(DuplicateModel(config.duplicate_rate))
        if config.reorder_rate > 0.0:
            models.append(ReorderModel(config.reorder_rate, config.reorder_depth))
        if config.jitter_mean > 0.0 or config.jitter_spread > 0.0:
            models.append(JitterModel(config.jitter_mean, config.jitter_spread))
        if config.buffer_capacity is not None:
            # Applied last: it consumes the fate the other models produced.
            models.append(BoundedBufferModel(config.buffer_capacity))
        self.models = models

    def wire_fate(self) -> WireFate:
        """Draw one frame's fate (advances the shared seeded stream)."""
        fate = WireFate()
        rng = self.rng
        for model in self.models:
            model.apply(rng, fate)
        return fate


# ---------------------------------------------------------------------------
# Byte-level faulty transport.
# ---------------------------------------------------------------------------

def frame_checksum(words: List[int]) -> int:
    """Additive 32-bit checksum over a word list (catches any single flip)."""
    return sum(w & 0xFFFFFFFF for w in words) & 0xFFFFFFFF


class FaultyChannelEndpoint:
    """A :class:`ChannelEndpoint` whose queued messages suffer wire faults.

    Wraps an existing endpoint; the wrapped ideal endpoint is byte-untouched
    when no wrapper is interposed.  ``write`` charges the ideal access cost
    plus the drawn jitter and then mutates the queue according to the fate:
    lost frames are consumed (the time was still spent), duplicates enqueue
    extra copies, reordered frames are pushed behind younger ones, corrupted
    frames get one bit flipped (detectable by :func:`frame_checksum`).
    """

    def __init__(
        self,
        endpoint: ChannelEndpoint,
        injector: ChannelFaultInjector,
    ) -> None:
        if not endpoint.stats.keep_log:
            raise ChannelError(
                "FaultyChannelEndpoint needs a message-queueing endpoint "
                "(construct it with keep_log=True)"
            )
        self.endpoint = endpoint
        self.injector = injector
        # Reordered frames are held back until ``depth`` younger frames have
        # been written in the same direction (or the queue drains, so nothing
        # is ever stuck forever): [message, remaining_holdback] pairs.
        self._held: Dict[ChannelDirection, List[List[Any]]] = {
            direction: [] for direction in ChannelDirection
        }

    @property
    def stats(self):
        return self.endpoint.stats

    @property
    def fault_stats(self) -> FaultStats:
        return self.injector.stats

    def write(
        self,
        direction: ChannelDirection,
        words: List[int],
        purpose: str = "",
        target_cycle: int = -1,
    ) -> float:
        fate = self.injector.wire_fate()
        stats = self.injector.stats
        stats.attempts += 1
        time = self.endpoint.write(direction, words, purpose=purpose, target_cycle=target_cycle)
        time += fate.jitter
        stats.jitter_time += fate.jitter
        queue = self.endpoint._queues[direction]  # same-package queue surgery
        message = queue.pop()  # the frame just enqueued
        if fate.lost:
            if fate.overflowed:
                stats.buffer_overflows += 1
            else:
                stats.drops += 1
            self._age_held(direction)
            return time
        if fate.corrupted:
            # Flip one random bit of one random word; the checksum word (if
            # the sender appended one) no longer matches.
            stats.corruptions += 1
            index = self.injector.rng.randrange(len(message.words))
            bit = self.injector.rng.randrange(32)
            corrupted = list(message.words)
            corrupted[index] ^= 1 << bit
            message = ChannelMessage(
                direction=message.direction,
                words=corrupted,
                purpose=message.purpose,
                target_cycle=message.target_cycle,
            )
        if fate.reorder_depth > 0:
            # Late delivery: hold the frame back until reorder_depth younger
            # frames have overtaken it.
            stats.reorder_events += 1
            stats.max_reorder_depth = max(stats.max_reorder_depth, fate.reorder_depth)
            held_entry: Optional[List[Any]] = [message, fate.reorder_depth]
        else:
            queue.append(message)
            held_entry = None
        for _ in range(fate.duplicates):
            stats.duplicates += 1
            # Duplicates pay wire time too (the receiver will suppress the
            # copy; the wire does not know that).
            time += self.endpoint.charge(
                direction, len(message.words), purpose=purpose, target_cycle=target_cycle
            )
            queue.append(message)
        # Previously-held frames see this write as one younger frame passing;
        # the frame held *by* this write must not age on its own passage.
        self._age_held(direction)
        if held_entry is not None:
            self._held[direction].append(held_entry)
        return time

    def _age_held(self, direction: ChannelDirection) -> None:
        """One younger frame passed: release held-back frames that are due."""
        held = self._held[direction]
        if not held:
            return
        queue = self.endpoint._queues[direction]
        still_held: List[List[Any]] = []
        for entry in held:
            entry[1] -= 1
            if entry[1] <= 0:
                queue.append(entry[0])
            else:
                still_held.append(entry)
        self._held[direction][:] = still_held

    def _release_held(self, direction: ChannelDirection) -> None:
        """Flush every held frame (the link idled; nothing overtakes them now)."""
        held = self._held[direction]
        if held and not self.endpoint._queues[direction]:
            queue = self.endpoint._queues[direction]
            for entry in held:
                queue.append(entry[0])
            held.clear()

    # -- read side: pass-throughs (held frames flush once the queue idles) --
    def readable(self, direction: ChannelDirection) -> bool:
        self._release_held(direction)
        return self.endpoint.readable(direction)

    def pending(self, direction: ChannelDirection) -> int:
        self._release_held(direction)
        return self.endpoint.pending(direction)

    def read(self, direction: ChannelDirection, purpose: str = "") -> ChannelMessage:
        self._release_held(direction)
        return self.endpoint.read(direction, purpose=purpose)

    def drain(self, direction: ChannelDirection) -> List[ChannelMessage]:
        self._release_held(direction)
        return self.endpoint.drain(direction)
