"""Distributed, work-stealing sweep execution over a shared cache directory.

The content-addressed :class:`~repro.orchestration.cache.ResultCache` already
makes results location-independent: a record stored under its ``request_id``
by *any* process is byte-identical to the record any other process would
produce.  This module adds the two missing pieces for running one sweep
across many workers -- on one host or on many hosts sharing the cache
directory -- without a coordinator process:

* a **grid manifest** (``<cache>/fleet/grid.json``): the sweep's request
  list in canonical encoding, published once so workers started on any host
  (``repro worker --cache DIR``) know what to execute;
* a **claim protocol** (:mod:`.claims`): workers claim points by
  ``request_id`` via atomic lease files, heartbeat while executing, and
  steal leases whose heartbeats have stopped (a SIGKILLed worker's in-flight
  points are re-executed by survivors after one TTL);
* an **attempt ledger** (``<cache>/fleet/attempts/<sweep_id>/<request_id>/``):
  one marker per execution attempt with its outcome, from which
  :func:`~repro.orchestration.supervisor.ledger_verdict` decides between a
  retry and a quarantine.  Together with the per-attempt deadline enforced
  by each worker's heartbeat pump, this makes the fleet the supervised
  executor.

Workers are stateless and interchangeable: each loops over the grid, skips
points already in the cache, claims and executes misses, and exits when the
grid is fully cached or quarantined.  :func:`run_fleet` is the driver behind
``repro sweep --fleet N`` and behind supervised sweeps and runs
(``--deadline`` / ``--max-retries`` / ``--chaos-*``): it publishes the
manifest, spawns N local worker processes, restarts dead ones, and finishes
with a **reconciliation pass** built on the same
:func:`~repro.orchestration.cache.plan_resume` that ``sweep --resume`` uses
-- so a sweep interrupted at any point (mid-shard write, mid-claim,
mid-store rewrite) converges to an output store byte-identical to a
``--jobs 1`` run of the same grid.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..channel.faults import ChannelDegradedError
from ..core.snapshot import AbortRun
from .cache import ResultCache, plan_resume
from .chaos import ChaosConfig, ChaosMonkey
from .claims import DEFAULT_LEASE_TTL, ClaimBoard, default_owner
from .durable import CheckpointPolicy, DurableRunEvents, execute_request_durable
from .request import RunRecord, RunRequest, canonical_json, _sha256
from .runner import BatchRunner
from .store import RunStore, atomic_write_text
from .supervisor import RunFailure, ledger_verdict

#: Seconds an idle worker sleeps before re-scanning the grid for newly
#: expired leases or newly cached results.
DEFAULT_POLL_INTERVAL = 0.2

#: Subdirectory of the cache root holding all fleet coordination state
#: (grid manifest, claim leases, per-worker stats).  Result shards stay at
#: the cache root, untouched, so a fleet cache is also a plain cache.
FLEET_DIRNAME = "fleet"


def fleet_dir(cache_root: Union[str, Path]) -> Path:
    return Path(cache_root) / FLEET_DIRNAME


def claims_dir(cache_root: Union[str, Path]) -> Path:
    return fleet_dir(cache_root) / "claims"


def manifest_path(cache_root: Union[str, Path]) -> Path:
    return fleet_dir(cache_root) / "grid.json"


def stats_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    return fleet_dir(cache_root) / "stats" / sweep_id


def snapshots_dir(cache_root: Union[str, Path]) -> Path:
    """Shared durable-snapshot directory, keyed by ``request_id``.

    Shared (not per-worker) on purpose: a worker stealing an expired lease
    finds the victim's last snapshot at the same path its own checkpoints
    would use, so the stolen point **resumes mid-run** instead of restarting
    at cycle 0.
    """
    return fleet_dir(cache_root) / "snapshots"


def chaos_state_dir(cache_root: Union[str, Path]) -> Path:
    """Shared fired-marker directory for the chaos harness (survives kills)."""
    return fleet_dir(cache_root) / "chaos"


def attempts_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    """Cross-worker attempt ledger: one marker file per execution attempt."""
    return fleet_dir(cache_root) / "attempts" / sweep_id


def quarantine_dir(cache_root: Union[str, Path], sweep_id: str) -> Path:
    return fleet_dir(cache_root) / "quarantine" / sweep_id


def quarantine_path(
    cache_root: Union[str, Path], sweep_id: str, request_id: str
) -> Path:
    return quarantine_dir(cache_root, sweep_id) / f"{request_id}.json"


def write_quarantine(
    cache_root: Union[str, Path], sweep_id: str, failure: RunFailure
) -> None:
    """Quarantine one poison point: its failure record, atomically published.

    The file's existence is the signal -- every worker (and the fleet driver)
    treats a quarantined point as done, which is what stops a poisonous
    request from eating the whole fleet's restart budget.
    """
    atomic_write_text(
        quarantine_path(cache_root, sweep_id, failure.request_id),
        canonical_json(failure.as_dict()) + "\n",
    )


def load_quarantine(
    cache_root: Union[str, Path], sweep_id: str
) -> List[RunFailure]:
    """Every quarantined point of one sweep, sorted by request id."""
    directory = quarantine_dir(cache_root, sweep_id)
    failures = []
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            try:
                failures.append(RunFailure.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError):
                continue  # torn quarantine file from a crash mid-write
    return failures


def load_attempts(
    cache_root: Union[str, Path], sweep_id: str, request_id: str
) -> List[Dict[str, object]]:
    """One request's attempt ledger: its open and failed attempts, in order."""
    directory = attempts_dir(cache_root, sweep_id) / request_id
    if not directory.is_dir():
        return []
    markers = sorted(directory.glob("*.json"), key=lambda path: int(path.stem))
    return [_read_marker(marker) for marker in markers]


def _read_marker(marker: Path) -> Dict[str, object]:
    try:
        return json.loads(marker.read_text())
    except (OSError, ValueError):
        return {}  # torn by a kill mid-create: an attempt with no outcome


def _write_marker(marker: Path, entry: Dict[str, object]) -> None:
    atomic_write_text(marker, json.dumps(entry, sort_keys=True) + "\n")


def _open_attempt(
    cache_root: Union[str, Path], sweep_id: str, request_id: str, owner: str
) -> Path:
    """Durably mark "an execution of this point is starting".

    Written *before* executing, so an attempt that SIGKILLs its worker still
    counts -- that persistence is what lets the surviving workers recognise
    a poison point and quarantine it instead of dying one by one forever.
    Each attempt takes the lowest free index with an exclusive create; its
    outcome fields stay null until the attempt ends (:func:`_end_attempt`,
    :func:`settle_attempts`).  The marker is removed again when the attempt
    publishes a record or drains, so the ledger only ever holds open and
    failed attempts.
    """
    directory = attempts_dir(cache_root, sweep_id) / request_id
    directory.mkdir(parents=True, exist_ok=True)
    index = 0
    while True:
        marker = directory / f"{index}.json"
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            index += 1
            continue
        entry = {
            "owner": owner,
            "status": None,
            "exit_code": None,
            "last_committed": None,
            "error": None,
        }
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        return marker


def _end_attempt(
    marker: Path,
    status: str,
    last_committed: Optional[int],
    error: Optional[str] = None,
) -> None:
    """Record how an attempt the worker itself ended went."""
    entry = _read_marker(marker)
    entry.update(status=status, last_committed=last_committed, error=error)
    _write_marker(marker, entry)


def settle_attempts(
    cache_root: Union[str, Path], sweep_id: str, owner: str, exit_code: int
) -> List[str]:
    """Stamp a dead worker's exit code on the attempts its process ended with.

    Those are ``owner``'s attempts without an exit code that either have no
    status yet (the process died mid-run, e.g. SIGKILLed) or timed out (the
    heartbeat pump killed its own process).  Returns their request ids.
    """
    settled = []
    for marker in sorted(attempts_dir(cache_root, sweep_id).glob("*/*.json")):
        entry = _read_marker(marker)
        if (
            entry.get("owner") != owner
            or entry.get("exit_code") is not None
            or entry.get("status") not in (None, "timeout")
        ):
            continue
        entry["status"] = entry.get("status") or "crash"
        entry["exit_code"] = exit_code
        _write_marker(marker, entry)
        settled.append(marker.parent.name)
    return settled


def _check_supervision(deadline: Optional[float], max_retries: int) -> None:
    if deadline is not None and deadline <= 0:
        raise ValueError("deadline must be positive")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")


def sweep_id_for(requests: Sequence[RunRequest]) -> str:
    """Stable identity of one grid: the hash of its ordered request ids."""
    return _sha256(canonical_json([request.request_id for request in requests]))[:12]


def publish_grid(cache_root: Union[str, Path], requests: Sequence[RunRequest]) -> str:
    """Write the grid manifest workers resolve their work-list from.

    Publishing is atomic and idempotent; re-publishing a *different* grid
    simply replaces the manifest (workers snapshot it at startup, and points
    of an older grid are addressed by ``request_id``, so stale workers can
    only ever contribute valid cache entries).
    """
    sweep_id = sweep_id_for(requests)
    payload = {
        "schema": 1,
        "sweep_id": sweep_id,
        "requests": [request.as_dict() for request in requests],
    }
    atomic_write_text(manifest_path(cache_root), canonical_json(payload) + "\n")
    return sweep_id


def load_grid(cache_root: Union[str, Path]) -> Tuple[str, List[RunRequest]]:
    """Read the published manifest back into (sweep_id, requests)."""
    path = manifest_path(cache_root)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no fleet manifest at {path}; publish one with "
            "`repro sweep ... --fleet N --cache DIR` before joining workers"
        ) from None
    requests = [RunRequest.from_dict(entry) for entry in payload["requests"]]
    return str(payload["sweep_id"]), requests


# ---------------------------------------------------------------------------
# Worker side.
# ---------------------------------------------------------------------------


@dataclass
class FleetWorkerStats:
    """What one worker did during a sweep (wall-clock included: these are
    operational diagnostics, never part of the deterministic result store)."""

    owner: str
    claimed: int = 0
    stolen: int = 0
    executed: int = 0
    deduped: int = 0
    released: int = 0
    lost: int = 0
    resumed: int = 0  # executions resumed from a durable snapshot
    retried: int = 0  # executions of points with a prior failed attempt
    quarantined: int = 0  # poison/degraded points this worker quarantined
    drained: int = 0  # leases released on a drain signal (SIGTERM/SIGINT)
    elapsed_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Executed grid points per second of worker wall-clock."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "owner": self.owner,
            "claimed": self.claimed,
            "stolen": self.stolen,
            "executed": self.executed,
            "deduped": self.deduped,
            "released": self.released,
            "lost": self.lost,
            "resumed": self.resumed,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "drained": self.drained,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetWorkerStats":
        return cls(
            owner=str(payload["owner"]),
            claimed=int(payload["claimed"]),
            stolen=int(payload["stolen"]),
            executed=int(payload["executed"]),
            deduped=int(payload["deduped"]),
            released=int(payload["released"]),
            lost=int(payload["lost"]),
            # Durability counters arrived after the first stats schema; reports
            # written by older workers simply lack them.
            resumed=int(payload.get("resumed", 0)),
            retried=int(payload.get("retried", 0)),
            quarantined=int(payload.get("quarantined", 0)),
            drained=int(payload.get("drained", 0)),
            elapsed_seconds=float(payload["elapsed_seconds"]),
        )


class _Attempt:
    """The worker's in-flight attempt, shared with its heartbeat pump.

    ``progress`` is a monotonic stamp bumped by the worker loop between
    points and by the engine at every safe point (``committed`` is the last
    safe-point cycle).  The lock orders ending an attempt between the worker
    loop and the pump's deadline check, so an attempt gets one outcome.
    """

    def __init__(self) -> None:
        self.progress = time.monotonic()
        self.committed: Optional[int] = None
        self.marker: Optional[Path] = None
        self.started = 0.0
        self._lock = threading.Lock()

    def touch(self, committed: Optional[int] = None) -> None:
        self.progress = time.monotonic()
        if committed is not None:
            self.committed = committed

    def begin(self, marker: Path) -> None:
        with self._lock:
            self.marker = marker
            self.committed = None
            self.started = time.monotonic()
        self.touch()

    def end(self, status: str, error: Optional[str] = None) -> None:
        """Record a failed outcome; the marker stays on the ledger."""
        with self._lock:
            if self.marker is not None:
                _end_attempt(self.marker, status, self.committed, error)
                self.marker = None

    def discard(self) -> None:
        """Drop the marker: the attempt published a record or drained."""
        with self._lock:
            if self.marker is not None:
                try:
                    self.marker.unlink()
                except OSError:
                    pass
                self.marker = None

    def expire(self, deadline: float) -> bool:
        """Record a ``timeout`` if the attempt has outlived ``deadline``."""
        with self._lock:
            if self.marker is None or time.monotonic() - self.started <= deadline:
                return False
            _end_attempt(self.marker, "timeout", self.committed)
            self.marker = None
            return True


class _HeartbeatPump:
    """Daemon thread renewing every lease the board currently owns.

    Runs independently of the worker's main loop so a long engine run cannot
    starve its own lease into stealability; a SIGKILL stops the pump with
    the process, which is exactly what lets survivors steal.

    The pump is *progress-aware*: when the attempt's progress stamp has not
    advanced for ``stall_after`` seconds, the pump stops renewing -- a
    worker that is alive but **stuck** (hung engine, chaos hang, deadlocked
    I/O) then looks exactly like a dead one, and survivors steal its lease.
    Legitimate long runs keep beating because the engine loop stamps
    progress at every safe point.  A steal provoked by a merely-slow cycle
    stays benign: runs are deterministic, both executions publish
    byte-identical records.

    With a ``deadline`` the pump also enforces it: an attempt running longer
    gets a ``timeout`` outcome on its marker, then the pump SIGKILLs its own
    process -- a hung engine cannot be un-hung from inside.
    """

    def __init__(
        self,
        board: ClaimBoard,
        interval: float,
        attempt: _Attempt,
        stall_after: float,
        deadline: Optional[float] = None,
    ) -> None:
        self._board = board
        self._interval = interval
        self._attempt = attempt
        self._stall_after = stall_after
        self._deadline = deadline
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if self._deadline is not None and self._attempt.expire(self._deadline):
                _sigkill_self()
            if time.monotonic() - self._attempt.progress > self._stall_after:
                continue  # stuck: let the lease age into stealability
            for request_id in list(self._board.owned):
                if request_id not in self._board.owned:
                    continue  # released while we iterated
                try:
                    self._board.heartbeat(request_id)
                except OSError:
                    pass  # transient shared-fs hiccup; retry next beat

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _rotation(owner: str, count: int) -> int:
    """Deterministic per-owner scan offset so workers start on different
    points instead of stampeding the same lease."""
    if count == 0:
        return 0
    return int(_sha256(owner)[:8], 16) % count


def _install_drain_handlers(drain: threading.Event) -> Optional[Dict[int, object]]:
    """Route SIGTERM/SIGINT into the drain event; ``None`` off the main thread.

    Signal handlers are a main-thread-only facility in CPython; a worker
    embedded in a test thread simply runs without them (its ``drain`` event
    can still be set programmatically).
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    previous: Dict[int, object] = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda _signum, _frame: drain.set()
        )
    return previous


def _restore_handlers(previous: Optional[Dict[int, object]]) -> None:
    if previous is None:
        return
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (TypeError, ValueError):  # pragma: no cover - exotic handler
            pass


def run_worker(
    cache_dir: Union[str, Path],
    owner: Optional[str] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat_interval: Optional[float] = None,
    kill_after: Optional[int] = None,
    requests: Optional[Sequence[RunRequest]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    max_retries: int = 2,
    drain_on_signal: bool = False,
    drain: Optional[threading.Event] = None,
    deadline: Optional[float] = None,
) -> FleetWorkerStats:
    """Join the sweep published in ``cache_dir`` and work until it is done.

    The loop is: skip points already cached (counted as *deduped*), claim or
    steal a miss, re-check the cache (the claim may have raced a completion),
    execute, store through the atomic cache shards, release.  The worker
    exits when every grid point is cached or quarantined -- its own work
    plus everyone else's.

    Execution is durable (:func:`~repro.orchestration.durable.
    execute_request_durable`): with a ``checkpoint`` policy the worker
    snapshots under its lease into the sweep's shared snapshot directory, so
    a worker stealing this point after a crash **resumes from the victim's
    last snapshot** instead of cycle 0.  Every attempt is recorded durably
    in the sweep's attempt ledger (shared by all workers), and before each
    new attempt :func:`~repro.orchestration.supervisor.ledger_verdict`
    decides whether the point runs again or is quarantined: as ``poison``
    once ``1 + max_retries`` attempts failed, as ``degraded`` at once.
    ``deadline`` bounds each attempt's wall-clock time: the heartbeat pump
    records a ``timeout`` and SIGKILLs this worker's own process.

    ``drain_on_signal`` turns SIGTERM/SIGINT into a *graceful drain*: the
    engine loop stops at the next safe point (persisting a final snapshot
    when checkpointing is on), every owned lease is released, the heartbeat
    pump is joined and the stats report is written -- nothing is left for
    survivors to steal or re-execute beyond the snapshot handoff.  ``drain``
    exposes the same event programmatically.

    ``kill_after`` is the crash-tolerance test hook used by CI: after that
    many successful executions the worker SIGKILLs itself *while holding its
    next claim*, leaving exactly the dangling lease the steal path must
    recover.  ``None`` (the default) disables it.

    ``requests`` overrides the manifest (used by in-process tests); normal
    workers load the published grid.
    """
    _check_supervision(deadline, max_retries)
    start = time.perf_counter()
    if requests is None:
        sweep_id, request_list = load_grid(cache_dir)
    else:
        request_list = list(requests)
        sweep_id = sweep_id_for(request_list)
    cache = ResultCache(cache_dir)
    board = ClaimBoard(
        claims_dir(cache_dir), owner=owner, ttl=ttl, steal_jitter=0.25
    )
    if heartbeat_interval is None:
        heartbeat_interval = max(ttl / 4.0, 0.02)
        if deadline is not None:
            heartbeat_interval = min(heartbeat_interval, max(deadline / 10.0, 0.02))
    if drain is None:
        drain = threading.Event()
    previous_handlers = _install_drain_handlers(drain) if drain_on_signal else None
    snapshot_root = snapshots_dir(cache_dir)
    snapshot_root.mkdir(parents=True, exist_ok=True)
    monkey = (
        None
        if chaos is None
        else ChaosMonkey(chaos, state_dir=chaos_state_dir(cache_dir))
    )
    # If the attempt's progress stamp stops moving the pump stops renewing
    # and this worker's leases become stealable -- a hung run must not be
    # kept alive by its own heartbeat.
    attempt = _Attempt()
    pump = _HeartbeatPump(
        board,
        heartbeat_interval,
        attempt,
        stall_after=max(ttl, 4.0 * heartbeat_interval),
        deadline=deadline,
    )
    pump.start()
    pending: Dict[str, RunRequest] = {
        request.request_id: request for request in request_list
    }
    executed_ids: set = set()
    stats = FleetWorkerStats(owner=board.owner)
    try:
        while pending and not drain.is_set():
            progress = False
            order = list(pending)
            offset = _rotation(board.owner, len(order))
            for request_id in order[offset:] + order[:offset]:
                if drain.is_set():
                    break
                if request_id not in pending:
                    continue  # completed earlier in this same pass
                attempt.touch()
                if quarantine_path(cache_dir, sweep_id, request_id).exists():
                    pending.pop(request_id)
                    progress = True
                    continue
                cache.refresh(request_id)
                if request_id in cache:
                    pending.pop(request_id)
                    stats.deduped += 1
                    progress = True
                    continue
                if board.try_acquire(request_id) is None:
                    continue
                if kill_after is not None and len(executed_ids) >= kill_after:
                    _sigkill_self()
                # The lease may have raced a completion (claimer finished
                # and published between our cache probe and our steal).
                cache.refresh(request_id)
                if request_id in cache:
                    board.release(request_id)
                    pending.pop(request_id)
                    stats.deduped += 1
                    progress = True
                    continue
                request = pending[request_id]
                prior = load_attempts(cache_dir, sweep_id, request_id)
                failure = ledger_verdict(request, prior, max_retries)
                if failure is not None:
                    write_quarantine(cache_dir, sweep_id, failure)
                    stats.quarantined += 1
                    board.release(request_id)
                    pending.pop(request_id)
                    progress = True
                    continue
                if prior:
                    stats.retried += 1
                attempt.begin(
                    _open_attempt(cache_dir, sweep_id, request_id, board.owner)
                )
                events = DurableRunEvents()
                try:
                    record = execute_request_durable(
                        request,
                        snapshot_root,
                        policy=checkpoint or CheckpointPolicy(),
                        heartbeat=attempt.touch,
                        chaos=monkey,
                        drain=drain.is_set,
                        events=events,
                    )
                except AbortRun:
                    # Drain fired mid-run; the final snapshot (if
                    # checkpointing) is already on disk for a successor.
                    attempt.discard()
                    break
                except ChannelDegradedError as exc:
                    attempt.end("degraded", str(exc))
                except Exception as exc:  # the worker outlives a crashing point
                    attempt.end("crash", f"{type(exc).__name__}: {exc}")
                else:
                    if events.resumed_from_cycle is not None:
                        stats.resumed += 1
                    cache.put(record)
                    attempt.discard()
                    executed_ids.add(request_id)
                    pending.pop(request_id)
                # A failed attempt stays on the ledger; the next claim of
                # this point (ours, usually) reads the verdict.
                board.release(request_id)
                progress = True
            if pending and not progress and not drain.is_set():
                time.sleep(poll_interval)
    finally:
        # Graceful shutdown for drain, KeyboardInterrupt and plain
        # completion alike: nothing may stay claimed, and the pump thread
        # must be joined before the process exits.
        for request_id in list(board.owned):
            board.release(request_id)
            if drain.is_set():
                stats.drained += 1
        pump.stop()
        _restore_handlers(previous_handlers)
    stats.claimed = board.stats.claimed
    stats.stolen = board.stats.stolen
    stats.executed = len(executed_ids)
    stats.released = board.stats.released
    stats.lost = board.stats.lost
    stats.elapsed_seconds = time.perf_counter() - start
    _write_worker_stats(cache_dir, sweep_id, stats)
    return stats


def _sigkill_self() -> None:  # pragma: no cover - the point is not to return
    os.kill(os.getpid(), signal.SIGKILL)


def _write_worker_stats(
    cache_dir: Union[str, Path], sweep_id: str, stats: FleetWorkerStats
) -> None:
    atomic_write_text(
        stats_dir(cache_dir, sweep_id) / f"{stats.owner}.json",
        json.dumps(stats.as_dict(), sort_keys=True) + "\n",
    )


def load_worker_stats(
    cache_dir: Union[str, Path], sweep_id: str
) -> List[FleetWorkerStats]:
    """Every surviving worker's stats report for one sweep, by owner name.

    A SIGKILLed worker never writes its report; its contribution is visible
    only through the survivors' ``stolen`` counts, which is precisely the
    signal the crash-tolerance smoke asserts on.
    """
    directory = stats_dir(cache_dir, sweep_id)
    reports = []
    if directory.is_dir():
        for path in sorted(directory.glob("*.json")):
            try:
                reports.append(FleetWorkerStats.from_dict(json.loads(path.read_text())))
            except (ValueError, KeyError, TypeError):
                continue  # torn stats file from a crash mid-report
    return reports


def _worker_entry(
    cache_dir: str,
    owner: Optional[str],
    ttl: float,
    poll_interval: float,
    kill_after: Optional[int],
    checkpoint: Optional[Tuple[Optional[int], Optional[float]]] = None,
    chaos_payload: Optional[Dict[str, object]] = None,
    max_retries: int = 2,
    drain_on_signal: bool = True,
    deadline: Optional[float] = None,
) -> None:
    """Module-level process target (must stay picklable for spawn contexts)."""
    policy = None
    if checkpoint is not None:
        policy = CheckpointPolicy(
            every_cycles=checkpoint[0], every_seconds=checkpoint[1]
        )
    chaos = None if chaos_payload is None else ChaosConfig.from_dict(chaos_payload)
    run_worker(
        cache_dir,
        owner=owner,
        ttl=ttl,
        poll_interval=poll_interval,
        kill_after=kill_after,
        checkpoint=policy,
        chaos=chaos,
        max_retries=max_retries,
        drain_on_signal=drain_on_signal,
        deadline=deadline,
    )


# ---------------------------------------------------------------------------
# Fleet driver: local spawn, supervision, reconciliation.
# ---------------------------------------------------------------------------


@dataclass
class FleetStats:
    """Summary of one fleet sweep: per-worker reports plus driver-side
    supervision and reconciliation counters."""

    sweep_id: str
    grid_points: int
    workers: List[FleetWorkerStats] = field(default_factory=list)
    restarts: int = 0
    reconcile_passes: int = 0
    reused_records: int = 0  # intact records recovered from a prior store
    executed_locally: int = 0  # reconciliation fallback executions
    torn_records: int = 0  # damaged store lines seen while reconciling
    reaped_leases: int = 0  # dangling leases of already-completed points
    quarantined: int = 0  # points in the sweep's quarantine report
    unfinished: int = 0  # points with attempts but neither record nor verdict

    def total(self, field_name: str) -> int:
        return sum(getattr(worker, field_name) for worker in self.workers)

    def summary(self) -> str:
        text = (
            f"fleet {self.sweep_id}: {self.grid_points} point(s), "
            f"{len(self.workers)} worker report(s), "
            f"{self.total('executed')} executed, "
            f"{self.total('deduped')} deduped, "
            f"{self.total('claimed')} claimed, "
            f"{self.total('stolen')} stolen, "
            f"{self.restarts} restart(s), "
            f"{self.reconcile_passes} reconciliation pass(es)"
        )
        if self.reused_records:
            text += f", {self.reused_records} reused from store"
        if self.executed_locally:
            text += f", {self.executed_locally} executed locally"
        if self.torn_records:
            text += f", {self.torn_records} torn record(s) dropped"
        if self.reaped_leases:
            text += f", {self.reaped_leases} dangling lease(s) reaped"
        if self.quarantined:
            text += f", {self.quarantined} point(s) quarantined"
        if self.unfinished:
            text += f", {self.unfinished} point(s) unfinished"
        return text


def reconcile(
    requests: Sequence[RunRequest],
    cache: ResultCache,
    store: Optional[RunStore] = None,
    stats: Optional[FleetStats] = None,
    max_passes: int = 3,
) -> List[RunRecord]:
    """Converge store + cache to exactly this grid, in grid order.

    Reuses :func:`plan_resume` against the (possibly absent, partial or
    torn) store, serves the missing points from the cache -- executing any
    point no worker ever attempted in-process (:func:`run_fleet` never
    hands it a point with an attempt on the ledger) -- and rewrites the
    store atomically.  The result is
    byte-identical to an uninterrupted ``--jobs 1`` sweep of the same grid,
    whatever the interleaving of worker crashes that preceded it.
    """
    runner = BatchRunner(jobs=1)
    if store is None:
        before = cache.stats.snapshot()
        cache.refresh()
        records = runner.run(list(requests), cache=cache)
        if stats is not None:
            stats.reconcile_passes += 1
            stats.executed_locally += cache.stats.since(before).misses
        return records

    records: List[RunRecord] = []
    for _ in range(max_passes):
        if stats is not None:
            stats.reconcile_passes += 1
        plan = plan_resume(requests, store)
        if stats is not None:
            stats.torn_records += plan.skipped
            stats.reused_records = len(plan.reusable)
        before = cache.stats.snapshot()
        cache.refresh()
        executed = runner.run(plan.missing, cache=cache)
        if stats is not None:
            stats.executed_locally += cache.stats.since(before).misses
        by_id = dict(plan.reusable)
        for record in executed:
            by_id[record.request_id] = record
        records = [by_id[request.request_id] for request in requests]
        store.write(records)
        verify = plan_resume(requests, store)
        if not verify.missing and not verify.skipped and not verify.extra:
            break
    return records


def run_fleet(
    requests: Sequence[RunRequest],
    cache_dir: Union[str, Path],
    workers: int = 2,
    store: Optional[RunStore] = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    kill_after: Optional[int] = None,
    mp_context: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    checkpoint: Optional[CheckpointPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    max_retries: int = 2,
    deadline: Optional[float] = None,
) -> Tuple[List[RunRecord], FleetStats]:
    """Publish the grid, drive ``workers`` local workers, reconcile.

    ``workers=0`` spawns nothing: it publishes (or re-publishes) the
    manifest and reconciles whatever external workers have cached so far,
    executing in-process only points no worker has attempted -- the
    "finalize now" mode for multi-host sweeps whose workers joined via
    ``repro worker``.  Points with attempts but neither a record nor a
    verdict are left out and counted in ``stats.unfinished``.

    While any point is neither cached nor quarantined, the driver restarts
    every worker that died.  Before restarting one that died with a
    non-zero exit code it settles the dead worker's in-flight attempts
    (:func:`settle_attempts` stamps the exit code) and abandons their
    leases, so the next claimer steals them at once.  Other leases of the
    dead worker are stolen by survivors after ``ttl``.  ``kill_after`` arms the crash hook on the
    *first* worker only -- see :func:`run_worker`.

    ``checkpoint`` enables durable snapshots under the leases, making every
    steal and restart a mid-run resume; ``chaos`` arms the deterministic
    failure-injection harness in every worker; ``deadline`` and
    ``max_retries`` are the per-attempt supervision policy (see
    :func:`run_worker`).  Points quarantined by the workers (poison,
    timeout, crash or deterministically degraded) are excluded from the
    returned records and from the store; read their failure records with
    :func:`load_quarantine` (``stats.quarantined`` carries the count).
    Workers are spawned with ``drain_on_signal`` enabled, so the driver's
    terminate-on-teardown is a graceful drain, not a kill.
    """
    _check_supervision(deadline, max_retries)
    request_list = list(requests)
    sweep_id = publish_grid(cache_dir, request_list)
    stats = FleetStats(sweep_id=sweep_id, grid_points=len(request_list))
    cache = ResultCache(cache_dir)
    board = ClaimBoard(claims_dir(cache_dir), owner="reconciler", ttl=ttl)
    wanted = [request.request_id for request in request_list]
    checkpoint_spec = (
        None
        if checkpoint is None
        else (checkpoint.every_cycles, checkpoint.every_seconds)
    )
    chaos_payload = None if chaos is None else chaos.as_dict()

    def quarantined_ids() -> set:
        directory = quarantine_dir(cache_dir, sweep_id)
        if not directory.is_dir():
            return set()
        return {path.stem for path in directory.glob("*.json")}

    context = multiprocessing.get_context(mp_context)
    # Owner names are unique across hosts (driver host and pid) and known
    # to the driver, which settles a dead worker's attempts by owner.
    owner_prefix = default_owner()

    def spawn(index: int, hook: Optional[int]) -> multiprocessing.process.BaseProcess:
        process = context.Process(
            target=_worker_entry,
            args=(
                str(cache_dir),
                f"{owner_prefix}-w{index}",
                ttl,
                poll_interval,
                hook,
                checkpoint_spec,
                chaos_payload,
                max_retries,
                True,
                deadline,
            ),
            name=f"{owner_prefix}-w{index}",
            daemon=True,
        )
        process.start()
        return process

    processes = [spawn(index, kill_after if index == 0 else None)
                 for index in range(workers)]
    try:
        while processes:
            # Liveness before completion: a worker that exits after the
            # completion check is only seen dead on the next round.
            dead = [index for index, process in enumerate(processes)
                    if not process.is_alive()]
            cache.refresh()
            done = quarantined_ids()
            if all(
                request_id in cache or request_id in done
                for request_id in wanted
            ):
                break
            for index in dead:
                process = processes[index]
                if process.exitcode:
                    for request_id in settle_attempts(
                        cache_dir, sweep_id, process.name, process.exitcode
                    ):
                        board.abandon(request_id, process.name)
                stats.restarts += 1
                if log is not None:
                    log(
                        f"worker {process.name} exited with "
                        f"{process.exitcode}; restart {stats.restarts}"
                    )
                processes[index] = spawn(workers + stats.restarts - 1, None)
            time.sleep(poll_interval)
        for process in processes:
            process.join(timeout=max(10.0, 4 * ttl))
    finally:
        for process in processes:
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()  # workers drain: release leases, snapshot
                process.join(timeout=max(10.0, 4 * ttl))
            if process.is_alive():  # pragma: no cover - drain itself wedged
                process.kill()
                process.join(timeout=5.0)

    cache.refresh()
    quarantined = quarantined_ids()
    stats.quarantined = len(quarantined)
    # A point with an attempt on the ledger is never run in-process: the
    # attempt may have crashed its worker, and would crash the driver too.
    runnable = [
        request for request in request_list
        if request.request_id not in quarantined
        and (
            request.request_id in cache
            or not load_attempts(cache_dir, sweep_id, request.request_id)
        )
    ]
    stats.unfinished = len(request_list) - len(quarantined) - len(runnable)
    records = reconcile(runnable, cache, store=store, stats=stats)
    cache.refresh()
    stats.reaped_leases = board.sweep_completed(
        lambda rid: rid in cache or rid in quarantined
    )
    stats.workers = load_worker_stats(cache_dir, sweep_id)
    return records, stats
