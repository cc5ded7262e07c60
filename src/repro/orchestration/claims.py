"""Atomic lease-file claims for coordinator-free distributed sweeps.

Any number of worker processes -- on one host or on many hosts sharing a
cache directory over a network filesystem -- must agree on who executes
which grid point without a coordinator, a database or a network protocol.
The entire coordination state is a directory of *lease files*, one per
claimed ``request_id``:

* **Claim** -- atomic create-with-content: the lease payload is written to a
  private temp file which is then hard-linked to the lease path
  (:func:`os.link` fails with ``EEXIST`` exactly when someone else holds the
  claim, and works on NFS, the classic shared-directory case).  Filesystems
  without hard links fall back to ``O_CREAT | O_EXCL``.
* **Heartbeat** -- the owner periodically rewrites its lease (temp file +
  :func:`os.replace`) with an incremented counter, proving it is alive.
* **Expiry** -- observation-based, never wall-clock-based: a lease is
  stealable only after *this observer* has watched its heartbeat counter
  stand still for a full TTL of **local monotonic time**.  Hosts therefore
  never compare clocks (skew and mtime granularity are irrelevant); the
  price is that a fresh observer waits one TTL before its first steal.
  A lease whose owner someone *saw* die (a fleet driver reaping its
  worker) is marked abandoned and is stealable at once.
* **Steal** -- atomic :func:`os.replace` of a new lease over the expired
  one, then a read-back: whoever's lease survives the last replace owns the
  claim; losers see a foreign owner and walk away.

The races that remain are *benign by construction*: runs are deterministic
and results are content-addressed, so the worst a lost race can cost is one
redundant execution whose record is byte-identical to the winner's (the
result cache keeps whichever record landed first).  What the protocol
guarantees is liveness (a dead worker's claims are stolen after one TTL) and
no concurrent double-execution while owners heartbeat faster than the TTL.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple, Union

#: Default lease time-to-live in seconds: a claim whose heartbeat has not
#: advanced for this long (as observed by one prospective stealer's monotonic
#: clock) is considered abandoned.  Tune it to the deployment: it must exceed
#: the heartbeat interval by a comfortable factor (the pump defaults to
#: ``ttl / 4``), and it bounds how long a crashed worker's in-flight points
#: stay unexecutable.  Lower it for fast local fleets, raise it for loaded
#: hosts or high-latency shared filesystems.
DEFAULT_LEASE_TTL = 30.0

#: Sentinel owner recorded for lease files that cannot be parsed (a torn
#: write by a crashed claimer).  Corrupt leases block like any other foreign
#: lease and become stealable after one TTL of observed stillness.
CORRUPT_OWNER = "<corrupt>"

#: Heartbeat counter of a lease whose owner is known dead
#: (:meth:`ClaimBoard.abandon`); such a lease is stealable at once.
ABANDONED = -2


def default_owner() -> str:
    """A worker identity unique across the hosts sharing a cache directory."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One parsed lease file: who claims the point and their progress proof."""

    request_id: str
    owner: str
    heartbeat: int
    stamp: float  # wall-clock at last write; informational only, never compared

    def payload(self) -> str:
        return (
            json.dumps(
                {
                    "request_id": self.request_id,
                    "owner": self.owner,
                    "heartbeat": self.heartbeat,
                    "stamp": self.stamp,
                },
                sort_keys=True,
            )
            + "\n"
        )

    @property
    def fingerprint(self) -> Tuple[str, int]:
        """What an observer tracks: any change restarts the expiry window."""
        return (self.owner, self.heartbeat)


@dataclass
class ClaimStats:
    """Counters accumulated by one :class:`ClaimBoard` instance."""

    claimed: int = 0  # fresh O_EXCL-style claims
    stolen: int = 0  # expired leases taken over
    released: int = 0  # own leases removed after completion
    lost: int = 0  # leases observed to have been stolen from us

    def as_dict(self) -> Dict[str, int]:
        return {
            "claimed": self.claimed,
            "stolen": self.stolen,
            "released": self.released,
            "lost": self.lost,
        }


class ClaimBoard:
    """Claim, heartbeat, release and steal leases in a shared directory.

    ``clock`` must be a monotonic float supplier; it is injectable so tests
    (and the hypothesis interleaving suite) can drive expiry deterministically.
    """

    def __init__(
        self,
        root: Union[str, Path],
        owner: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
        steal_jitter: float = 0.0,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.root = Path(root)
        self.owner = owner if owner is not None else default_owner()
        self.ttl = ttl
        self.clock = clock
        # Steal threshold with a deterministic per-owner stretch in
        # [ttl, ttl * (1 + steal_jitter)].  When many workers watch the same
        # dying lease, the jitter staggers their steal attempts so the
        # replace + read-back race almost never admits two winners (a double
        # win stays *benign* -- identical records, first store wins -- this
        # just stops paying for the redundant execution).
        digest = hashlib.sha256(self.owner.encode("utf-8")).hexdigest()
        self.steal_after = ttl * (
            1.0 + max(0.0, steal_jitter) * (int(digest[:8], 16) % 1000) / 1000.0
        )
        self.stats = ClaimStats()
        #: request_ids this board believes it currently holds.  The heartbeat
        #: pump iterates this set from a background thread.
        self.owned: Set[str] = set()
        # request_id -> (lease fingerprint, local monotonic time it was first
        # seen with that fingerprint).  Purely local observation state.
        self._observed: Dict[str, Tuple[Tuple[str, int], float]] = {}

    # -- lease file I/O -----------------------------------------------------

    def path(self, request_id: str) -> Path:
        return self.root / f"{request_id}.lease"

    def read(self, request_id: str) -> Optional[Lease]:
        """The current lease for a request, ``None`` if unclaimed.

        Unparseable files (torn by a crash mid-create on a filesystem where
        the hard-link path was unavailable) are reported as held by
        :data:`CORRUPT_OWNER` so they age out like any abandoned lease.
        """
        try:
            text = self.path(request_id).read_text()
        except FileNotFoundError:
            return None
        except OSError:
            return Lease(request_id, CORRUPT_OWNER, -1, 0.0)
        try:
            payload = json.loads(text)
            return Lease(
                request_id=str(payload["request_id"]),
                owner=str(payload["owner"]),
                heartbeat=int(payload["heartbeat"]),
                stamp=float(payload["stamp"]),
            )
        except (ValueError, KeyError, TypeError):
            return Lease(request_id, CORRUPT_OWNER, -1, 0.0)

    def _write_temp(self, lease: Lease) -> str:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=lease.request_id + ".", suffix=".tmp"
        )
        with os.fdopen(fd, "w") as handle:
            handle.write(lease.payload())
            handle.flush()
            os.fsync(handle.fileno())
        return tmp_name

    def _create_exclusive(self, lease: Lease) -> bool:
        """Atomically create the lease file with its content; False if held."""
        path = self.path(lease.request_id)
        tmp_name = self._write_temp(lease)
        try:
            try:
                os.link(tmp_name, path)
                return True
            except FileExistsError:
                return False
            except OSError:
                # No hard links on this filesystem: O_EXCL create.  Content
                # lands after the create, so a crash right here can leave a
                # torn lease -- readers map that to CORRUPT_OWNER and it ages
                # out via the normal TTL path.
                try:
                    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    return False
                with os.fdopen(fd, "w") as handle:
                    handle.write(lease.payload())
                return True
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def _replace(self, lease: Lease) -> None:
        tmp_name = self._write_temp(lease)
        try:
            os.replace(tmp_name, self.path(lease.request_id))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- the claim protocol -------------------------------------------------

    def try_claim(self, request_id: str) -> bool:
        """Claim an unclaimed request; False if any lease file exists."""
        lease = Lease(request_id, self.owner, 0, time.time())
        if not self._create_exclusive(lease):
            return False
        self.owned.add(request_id)
        self.stats.claimed += 1
        return True

    def heartbeat(self, request_id: str) -> bool:
        """Renew an owned lease; False (and ``lost``) if it was stolen."""
        lease = self.read(request_id)
        if lease is None or lease.owner != self.owner:
            self._mark_lost(request_id)
            return False
        self._replace(
            Lease(request_id, self.owner, lease.heartbeat + 1, time.time())
        )
        return True

    def release(self, request_id: str) -> bool:
        """Drop an owned lease after completing (or abandoning) its point."""
        self.owned.discard(request_id)
        lease = self.read(request_id)
        if lease is None or lease.owner != self.owner:
            self._mark_lost(request_id, already_discarded=True)
            return False
        try:
            os.unlink(self.path(request_id))
        except FileNotFoundError:
            pass
        self.stats.released += 1
        return True

    def _mark_lost(self, request_id: str, already_discarded: bool = False) -> None:
        if not already_discarded:
            self.owned.discard(request_id)
        self.stats.lost += 1

    def try_acquire(self, request_id: str) -> Optional[str]:
        """Claim a request, stealing its lease if expired.

        Returns ``"claimed"`` for a fresh claim, ``"stolen"`` for a takeover
        of an expired lease, or ``None`` when someone else holds a live (or
        not-yet-observed-expired) claim.
        """
        if request_id in self.owned:
            return "claimed"
        if self.try_claim(request_id):
            return "claimed"
        lease = self.read(request_id)
        if lease is None:
            # Released between our failed claim and the read: one retry.
            return "claimed" if self.try_claim(request_id) else None
        if lease.owner == self.owner:
            # Our own lease from an earlier life of this process id (e.g. a
            # worker loop resumed after an exception): adopt it silently.
            self.owned.add(request_id)
            return "claimed"
        if lease.heartbeat == ABANDONED:
            return "stolen" if self._try_steal(request_id) else None
        now = self.clock()
        seen = self._observed.get(request_id)
        if seen is None or seen[0] != lease.fingerprint:
            self._observed[request_id] = (lease.fingerprint, now)
            return None
        if now - seen[1] < self.steal_after:
            return None
        return "stolen" if self._try_steal(request_id) else None

    def _try_steal(self, request_id: str) -> bool:
        """Replace an expired lease with our own and verify we won the race."""
        self._replace(Lease(request_id, self.owner, 0, time.time()))
        survivor = self.read(request_id)
        if (
            survivor is not None
            and survivor.owner == self.owner
            and survivor.heartbeat == 0
        ):
            self._observed.pop(request_id, None)
            self.owned.add(request_id)
            self.stats.stolen += 1
            return True
        return False

    # -- housekeeping -------------------------------------------------------

    def abandon(self, request_id: str, owner: str) -> bool:
        """Mark ``owner``'s lease abandoned; the caller knows ``owner`` is dead.

        An abandoned lease is stealable at once instead of after one TTL: a
        fleet driver that reaped a worker's process hands its in-flight
        point to the next claimer immediately.
        """
        lease = self.read(request_id)
        if lease is None or lease.owner != owner:
            return False
        self._replace(Lease(request_id, owner, ABANDONED, time.time()))
        return True

    def outstanding(self) -> Dict[str, Lease]:
        """Every lease currently on the board, by request_id."""
        leases: Dict[str, Lease] = {}
        if not self.root.is_dir():
            return leases
        for path in sorted(self.root.glob("*.lease")):
            lease = self.read(path.name[: -len(".lease")])
            if lease is not None:
                leases[lease.request_id] = lease
        return leases

    def sweep_completed(self, is_done: Callable[[str], bool]) -> int:
        """Remove dangling leases for points that are already completed.

        A worker SIGKILLed *after* publishing its result but *before*
        releasing its claim leaves a lease no one will ever steal (everyone
        sees the cached result and skips the point).  Reconciliation calls
        this with ``is_done = lambda rid: rid in cache`` to reap them.
        """
        reaped = 0
        for request_id in self.outstanding():
            if is_done(request_id):
                try:
                    os.unlink(self.path(request_id))
                    reaped += 1
                except FileNotFoundError:
                    pass
        return reaped
