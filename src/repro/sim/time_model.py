"""Modelled wall-clock accounting.

The reproduction does not (and cannot) run a real PCI-attached accelerator,
so all "time spent" figures are *modelled*: every operation charges time to a
:class:`WallClockLedger` under a category.  The categories match the columns
of the paper's Table 2:

* ``simulator``  -- Tsim.,   time the software simulator spends executing cycles
* ``accelerator`` -- Tacc.,  time the accelerator spends executing cycles
* ``state_store`` -- Tstore, time spent storing leader state
* ``state_restore`` -- Trest., time spent restoring leader state
* ``channel`` -- Tch.,       time spent on simulator-accelerator channel accesses

Dividing each bucket by the number of *committed* target cycles yields the
per-cycle averages the paper tabulates, and the reciprocal of their sum is
the simulation performance in cycles/second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from .batchmath import repeat_add

#: Canonical cost categories (order matters for reporting).
CATEGORIES = (
    "simulator",
    "accelerator",
    "state_store",
    "state_restore",
    "channel",
    "other",
)


class LedgerError(ValueError):
    """Raised when an unknown category is charged."""


@dataclass(frozen=True)
class DomainSpeed:
    """Execution speed of one verification domain.

    Attributes:
        cycles_per_second: how many target clock cycles the domain can model
            per wall-clock second.  The paper uses 100 k or 1,000 k for the
            simulator and 10 M for the accelerator.
    """

    cycles_per_second: float

    def __post_init__(self) -> None:
        if self.cycles_per_second <= 0:
            raise ValueError("cycles_per_second must be positive")

    @property
    def seconds_per_cycle(self) -> float:
        return 1.0 / self.cycles_per_second


#: Paper defaults (Section 6).
DEFAULT_SIMULATOR_SPEED = DomainSpeed(1_000_000.0)
SLOW_SIMULATOR_SPEED = DomainSpeed(100_000.0)
DEFAULT_ACCELERATOR_SPEED = DomainSpeed(10_000_000.0)


@dataclass
class WallClockLedger:
    """Accumulates modelled wall-clock time by category."""

    buckets: Dict[str, float] = field(
        default_factory=lambda: {category: 0.0 for category in CATEGORIES}
    )
    committed_cycles: int = 0

    def ensure_category(self, category: str) -> None:
        """Register an extra category (e.g. a non-canonical domain id).

        The canonical categories exist from construction; multi-domain
        topologies add one execution bucket per domain id before charging.
        """
        self.buckets.setdefault(category, 0.0)

    def charge(self, category: str, seconds: float) -> None:
        """Add ``seconds`` of modelled time to ``category``."""
        if category not in self.buckets:
            raise LedgerError(
                f"unknown ledger category {category!r}; expected one of "
                f"{tuple(self.buckets)} (use ensure_category for per-domain buckets)"
            )
        if seconds < 0:
            raise LedgerError(f"cannot charge negative time ({seconds})")
        self.buckets[category] += seconds

    def commit_cycles(self, count: int) -> None:
        """Record that ``count`` target cycles were committed (made progress)."""
        if count < 0:
            raise LedgerError("cannot commit a negative number of cycles")
        self.committed_cycles += count

    # -- reporting ---------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(self.buckets.values())

    def per_cycle(self, category: str) -> float:
        """Average seconds spent in ``category`` per committed target cycle."""
        if self.committed_cycles == 0:
            return 0.0
        return self.buckets[category] / self.committed_cycles

    def per_cycle_breakdown(self) -> Dict[str, float]:
        return {category: self.per_cycle(category) for category in self.buckets}

    @property
    def performance_cycles_per_second(self) -> float:
        """Modelled co-emulation performance in target cycles per second."""
        if self.total_seconds == 0.0:
            return float("inf")
        return self.committed_cycles / self.total_seconds

    def merge(self, other: "WallClockLedger") -> None:
        """Fold another ledger's charges into this one (cycles are *not* merged)."""
        for category, seconds in other.buckets.items():
            self.buckets.setdefault(category, 0.0)
            self.buckets[category] += seconds

    def reset(self) -> None:
        for category in self.buckets:
            self.buckets[category] = 0.0
        self.committed_cycles = 0

    def as_dict(self) -> dict:
        result = dict(self.buckets)
        result["committed_cycles"] = self.committed_cycles
        result["total_seconds"] = self.total_seconds
        result["performance"] = self.performance_cycles_per_second
        return result


@dataclass
class ExecutionCostModel:
    """Charges domain execution time to a ledger.

    One instance exists per verification domain; the co-emulation
    orchestrator calls :meth:`charge_cycles` every time the domain executes
    target cycles (whether or not those cycles are eventually committed --
    rolled-back work still costs time, which is exactly the degradation the
    paper quantifies).
    """

    ledger: WallClockLedger
    category: str
    speed: DomainSpeed
    cycles_charged: int = 0
    #: Cached ``speed.seconds_per_cycle`` (the property recomputes the
    #: division on every read).
    _seconds_per_cycle: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        self._seconds_per_cycle = self.speed.seconds_per_cycle
        # The bucket must exist for the direct update in charge_cycles.
        self.ledger.ensure_category(self.category)

    def charge_cycles(self, count: int) -> float:
        """Charge the time to execute ``count`` cycles; returns their nominal
        cost ``count * seconds_per_cycle``.

        The bucket receives one ``+= seconds_per_cycle`` per cycle, folded
        bit-exactly by :func:`~repro.sim.batchmath.repeat_add`, so charging
        ``k`` cycles at once books the same float as ``k`` single charges.
        """
        if count < 0:
            raise LedgerError("cannot charge a negative cycle count")
        # Direct bucket update: the category was validated at construction
        # via ensure_category.
        buckets = self.ledger.buckets
        if count == 1:  # the per-cycle hot path
            buckets[self.category] += self._seconds_per_cycle
        else:
            buckets[self.category] = repeat_add(
                buckets[self.category], self._seconds_per_cycle, count
            )
        self.cycles_charged += count
        return count * self._seconds_per_cycle


def summarize_ledgers(ledgers: Iterable[WallClockLedger]) -> WallClockLedger:
    """Combine several ledgers into a fresh one (used by sweep reports)."""
    combined = WallClockLedger()
    for ledger in ledgers:
        combined.merge(ledger)
        combined.committed_cycles += ledger.committed_cycles
    return combined
