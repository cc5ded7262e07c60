"""Supervised execution: deadlines, retries, quarantine, exit codes.

The batch runner assumes every request runs to completion; one hung engine
stalls a sweep forever and one crash aborts it.  This module wraps the
durable executor (:mod:`repro.orchestration.durable`) in a parent-side
supervisor:

* each attempt runs in a **child process** with a wall-clock ``deadline``;
  a watchdog in the parent SIGKILLs the child when the deadline passes
  (the child's engine loop writes heartbeats, so the failure record can say
  how far it got);
* failed attempts are **retried with exponential backoff** -- and because
  the child checkpoints through the durable executor, a retry resumes from
  the latest snapshot instead of cycle 0;
* a request that exhausts its retries is **quarantined** as a *poison
  point*: the sweep keeps going and the failure lands in a structured
  :class:`RunFailure` written to a ``.failures`` sidecar next to the run
  store -- never into the store itself, whose bytes stay identical to a
  fully healthy serial sweep;
* failure kinds map to **distinct process exit codes** so shell scripts and
  CI can branch on what went wrong without parsing output.

Failure taxonomy (and exit codes):

======== ==== =======================================================
kind     exit  meaning
======== ==== =======================================================
timeout   10  the watchdog killed an attempt past its deadline
crash     11  the child died (signal or non-zero exit) on its own
poison    12  retries exhausted; the request is quarantined
degraded  13  the channel degraded deterministically (never retried:
              the same request always degrades the same way)
======== ==== =======================================================
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..channel.faults import ChannelDegradedError
from .chaos import ChaosConfig, ChaosMonkey
from .durable import CheckpointPolicy, DurableRunEvents, execute_request_durable
from .request import RunRecord, RunRequest, canonical_json
from .store import atomic_write_text, canonical_line, parse_record_line

#: Exit code of a run killed by the watchdog for blowing its deadline.
EXIT_TIMEOUT = 10
#: Exit code of a run whose process died on its own (signal / exception).
EXIT_CRASH = 11
#: Exit code of a request quarantined after exhausting its retries.
EXIT_POISON = 12
#: Exit code of a deterministic channel degradation (retrying cannot help).
EXIT_DEGRADED = 13

#: Failure kind -> process exit code.
EXIT_CODES: Dict[str, int] = {
    "timeout": EXIT_TIMEOUT,
    "crash": EXIT_CRASH,
    "poison": EXIT_POISON,
    "degraded": EXIT_DEGRADED,
}

#: Quarantine severity, most severe first: a poison point means the sweep is
#: incomplete even after retries, a degradation is an *expected* outcome of
#: the modelled channel.
_SEVERITY = ("poison", "crash", "timeout", "degraded")


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to try before declaring a request a poison point.

    Attributes:
        deadline: per-*attempt* wall-clock budget in seconds (``None`` waits
            forever -- only sensible when chaos cannot hang a run).
        max_retries: extra attempts after the first.  ``0`` disables retry;
            the failure then keeps its underlying kind instead of ``poison``.
        backoff_base / backoff_factor / backoff_max: exponential backoff
            between attempts, ``min(base * factor**n, max)`` seconds.
        checkpoint: snapshot cadence handed to the durable executor; with
            checkpoints enabled a retry resumes mid-run instead of replaying
            from cycle 0.
        poll_interval: watchdog polling period in seconds.
        mp_context: :mod:`multiprocessing` start method for attempt children
            (``None`` = platform default).
    """

    deadline: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    poll_interval: float = 0.02
    mp_context: Optional[str] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def backoff(self, failed_attempts: int) -> float:
        """Sleep before the next attempt, after ``failed_attempts`` failures."""
        return min(
            self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
            self.backoff_max,
        )


@dataclass
class RunFailure:
    """One quarantined request: what was asked, what happened, how often.

    Deliberately wall-clock free (like :class:`RunRecord`): the same sweep
    under the same chaos schedule produces byte-identical failure sidecars.
    """

    request_id: str
    label: str
    scenario: str
    mode: str
    kind: str
    attempts: int
    message: str
    detail: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in EXIT_CODES:
            raise ValueError(f"unknown failure kind {self.kind!r}")

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.kind]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "label": self.label,
            "scenario": self.scenario,
            "mode": self.mode,
            "kind": self.kind,
            "attempts": self.attempts,
            "message": self.message,
            "detail": list(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunFailure":
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ValueError(
                f"payload does not fit the failure schema: {exc}"
            ) from None


# --------------------------------------------------------------------------
# Child side: one attempt in its own process.
# --------------------------------------------------------------------------

def _heartbeat_writer(path: Path, min_interval: float = 0.02):
    """A rate-limited heartbeat: the child's committed cycle count on disk.

    Plain overwrite, not atomic -- a torn read in the parent merely delays
    one watchdog poll, and atomic renames at every safe point would dominate
    small runs.
    """
    last_beat = [0.0]

    def beat(committed: int) -> None:
        now = time.monotonic()
        if now - last_beat[0] < min_interval:
            return
        last_beat[0] = now
        try:
            path.write_text(f"{committed}\n", encoding="utf-8")
        except OSError:
            pass

    return beat


def _supervised_child(
    request_payload: Dict[str, Any],
    snapshot_dir: str,
    result_path: str,
    heartbeat_path: str,
    error_path: str,
    checkpoint: Tuple[Optional[int], Optional[float]],
    chaos_payload: Optional[Dict[str, Any]],
    chaos_state_dir: Optional[str],
) -> None:
    """Attempt entry point (module-level so ``spawn`` can import it).

    Protocol with the parent: exit ``0`` with the record at ``result_path``,
    exit :data:`EXIT_DEGRADED` with the message at ``error_path`` for a
    deterministic channel degradation, exit :data:`EXIT_CRASH` with a
    traceback at ``error_path`` for anything else.  A SIGKILL (chaos, or the
    parent's watchdog) leaves neither file -- the parent tells those two
    apart because it knows whether *it* fired.
    """
    # When the parent runs attempts from a thread pool and the start method
    # is fork, this child inherits the pool's thread registry -- and the
    # forking worker thread *is* this child's main thread.  Python 3.11's
    # concurrent.futures atexit hook would then try to join the current
    # thread and turn a clean exit into code 1 (3.12+ clears the registry
    # after fork itself).
    from concurrent.futures import thread as _cf_thread

    _cf_thread._threads_queues.clear()

    request = RunRequest.from_dict(request_payload)
    policy = CheckpointPolicy(every_cycles=checkpoint[0], every_seconds=checkpoint[1])
    chaos = None
    if chaos_payload is not None:
        chaos = ChaosMonkey(
            ChaosConfig.from_dict(chaos_payload),
            state_dir=chaos_state_dir,
        )
    try:
        record = execute_request_durable(
            request,
            snapshot_dir,
            policy=policy,
            heartbeat=_heartbeat_writer(Path(heartbeat_path)),
            chaos=chaos,
        )
    except ChannelDegradedError as exc:
        atomic_write_text(Path(error_path), f"{exc}\n")
        sys.exit(EXIT_DEGRADED)
    except BaseException:  # noqa: BLE001 - the whole point is to report it
        atomic_write_text(Path(error_path), traceback.format_exc())
        sys.exit(EXIT_CRASH)
    atomic_write_text(Path(result_path), canonical_line(record) + "\n")


# --------------------------------------------------------------------------
# Parent side: watchdog, retry loop, quarantine.
# --------------------------------------------------------------------------

def _read_heartbeat(path: Path) -> Optional[int]:
    try:
        return int(path.read_text(encoding="utf-8").strip())
    except (OSError, ValueError):
        return None


def _run_attempt(
    request: RunRequest,
    policy: SupervisorPolicy,
    snapshot_dir: Path,
    chaos_payload: Optional[Dict[str, Any]],
    chaos_state_dir: Optional[str],
    attempt: int,
) -> Tuple[str, Optional[RunRecord], Dict[str, Any]]:
    """One supervised attempt: ``(status, record, detail)``.

    ``status`` is ``"ok"`` or a failure kind from the taxonomy.  ``detail``
    is the per-attempt entry for the failure record (deterministic fields
    only).
    """
    scratch = snapshot_dir / f"{request.request_id}.attempt{attempt}"
    result_path = scratch.with_suffix(".result")
    heartbeat_path = scratch.with_suffix(".beat")
    error_path = scratch.with_suffix(".err")
    for path in (result_path, heartbeat_path, error_path):
        try:
            path.unlink()
        except OSError:
            pass

    context = multiprocessing.get_context(policy.mp_context)
    process = context.Process(
        target=_supervised_child,
        args=(
            request.as_dict(),
            str(snapshot_dir),
            str(result_path),
            str(heartbeat_path),
            str(error_path),
            (policy.checkpoint.every_cycles, policy.checkpoint.every_seconds),
            chaos_payload,
            chaos_state_dir,
        ),
        daemon=False,
    )
    process.start()
    start = time.monotonic()
    timed_out = False
    while process.is_alive():
        if (
            policy.deadline is not None
            and time.monotonic() - start > policy.deadline
        ):
            timed_out = True
            process.kill()
        process.join(timeout=policy.poll_interval)
    exitcode = process.exitcode

    detail: Dict[str, Any] = {
        "attempt": attempt,
        "exit_code": exitcode,
        "last_committed": _read_heartbeat(heartbeat_path),
    }
    try:
        heartbeat_path.unlink()
    except OSError:
        pass

    if timed_out:
        detail["status"] = "timeout"
        return "timeout", None, detail
    if exitcode == 0:
        try:
            record = parse_record_line(
                result_path.read_text(encoding="utf-8").strip()
            )
        except (OSError, ValueError) as exc:
            # Exit 0 without a readable record is a protocol violation --
            # treat it as a crash so it retries rather than vanishing.
            detail["status"] = "crash"
            detail["error"] = f"unreadable attempt result: {exc}"
            return "crash", None, detail
        finally:
            try:
                result_path.unlink()
            except OSError:
                pass
        detail["status"] = "ok"
        return "ok", record, detail
    status = "degraded" if exitcode == EXIT_DEGRADED else "crash"
    detail["status"] = status
    try:
        detail["error"] = error_path.read_text(encoding="utf-8").strip()
        error_path.unlink()
    except OSError:
        pass
    return status, None, detail


def run_supervised(
    request: RunRequest,
    snapshot_dir: Union[str, Path],
    policy: Optional[SupervisorPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    chaos_state_dir: Optional[Union[str, Path]] = None,
) -> Union[RunRecord, RunFailure]:
    """Execute one request under supervision.

    Returns the :class:`RunRecord` on (possibly retried) success, or a
    :class:`RunFailure` describing why the request is quarantined.  Never
    raises for run failures -- the caller decides whether a failure is fatal.
    """
    if policy is None:
        policy = SupervisorPolicy()
    snapshot_root = Path(snapshot_dir)
    snapshot_root.mkdir(parents=True, exist_ok=True)
    chaos_payload = None if chaos is None else chaos.as_dict()
    state_dir = None if chaos_state_dir is None else str(chaos_state_dir)

    details: List[Dict[str, Any]] = []
    kind = "crash"
    for attempt in range(policy.max_retries + 1):
        status, record, detail = _run_attempt(
            request, policy, snapshot_root, chaos_payload, state_dir, attempt
        )
        details.append(detail)
        if status == "ok":
            assert record is not None
            return record
        kind = status
        if status == "degraded":
            # Deterministic outcome of the modelled channel: every retry
            # replays the same degradation, so don't bother.
            break
        if attempt < policy.max_retries:
            time.sleep(policy.backoff(attempt + 1))

    if kind != "degraded" and policy.max_retries > 0:
        # Retries were available and all burned: the request is poison.
        kind = "poison"
    message = next(
        (d["error"] for d in reversed(details) if d.get("error")),
        f"{details[-1]['status']} after {len(details)} attempt(s)",
    )
    return RunFailure(
        request_id=request.request_id,
        label=request.display_label(),
        scenario=request.scenario,
        mode=request.mode,
        kind=kind,
        attempts=len(details),
        message=message,
        detail=details,
    )


def run_supervised_batch(
    requests: Sequence[RunRequest],
    snapshot_dir: Union[str, Path],
    policy: Optional[SupervisorPolicy] = None,
    jobs: int = 1,
    cache: Optional["Any"] = None,
    chaos: Optional[ChaosConfig] = None,
    chaos_state_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Any] = None,
) -> Tuple[List[RunRecord], List[RunFailure]]:
    """Supervised counterpart of :meth:`BatchRunner.run`.

    Returns ``(records, failures)``, each in grid order; a request appears
    in exactly one of the two lists.  Cache hits bypass supervision entirely
    (a cached record needs no watchdog); fresh successes are written back.
    Parallelism uses threads -- each supervised run already occupies its own
    child process, the parent threads only wait on watchdogs.
    """
    request_list = list(requests)
    total = len(request_list)
    outcomes: List[Optional[Union[RunRecord, RunFailure]]] = [None] * total
    pending: List[Tuple[int, RunRequest]] = []
    for index, request in enumerate(request_list):
        hit = None if cache is None else cache.get(request)
        if hit is not None:
            outcomes[index] = hit
        else:
            pending.append((index, request))
    done = total - len(pending)
    if progress is not None:
        for index in range(total):
            record = outcomes[index]
            if record is not None:
                progress(index + 1, total, record)

    def supervise(item: Tuple[int, RunRequest]) -> Tuple[int, Union[RunRecord, RunFailure]]:
        index, request = item
        return index, run_supervised(
            request,
            snapshot_dir,
            policy=policy,
            chaos=chaos,
            chaos_state_dir=chaos_state_dir,
        )

    if pending:
        if jobs <= 1 or len(pending) == 1:
            completed = map(supervise, pending)
        else:
            pool = ThreadPoolExecutor(max_workers=min(jobs, len(pending)))
            completed = pool.map(supervise, pending)
        for index, outcome in completed:
            outcomes[index] = outcome
            done += 1
            if progress is not None:
                progress(done, total, outcome)
        if jobs > 1 and len(pending) > 1:
            pool.shutdown()

    records = [o for o in outcomes if isinstance(o, RunRecord)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    if cache is not None:
        fresh_ids = {request.request_id for _, request in pending}
        cache.put_many([r for r in records if r.request_id in fresh_ids])
    return records, failures


# --------------------------------------------------------------------------
# Quarantine sidecar: machine-readable failure reports next to the store.
# --------------------------------------------------------------------------

def failures_path(store_path: Union[str, Path]) -> Path:
    """The ``.failures`` sidecar for a run store.

    A *sidecar* rather than store content: the store's bytes must stay
    identical to a sweep where every point succeeded first try.
    """
    return Path(f"{store_path}.failures")


def write_failures(path: Union[str, Path], failures: Sequence[RunFailure]) -> None:
    """Persist failures as canonical JSONL (atomic; empty list removes it)."""
    target = Path(path)
    if not failures:
        try:
            target.unlink()
        except OSError:
            pass
        return
    lines = "".join(canonical_json(f.as_dict()) + "\n" for f in failures)
    atomic_write_text(target, lines)


def load_failures(path: Union[str, Path]) -> List[RunFailure]:
    """Read a ``.failures`` sidecar (missing file = no failures)."""
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    failures = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            failures.append(RunFailure.from_dict(json.loads(line)))
    return failures


def quarantine_report(failures: Sequence[RunFailure]) -> Dict[str, Any]:
    """Machine-readable summary of a sweep's quarantine."""
    by_kind: Dict[str, int] = {}
    for failure in failures:
        by_kind[failure.kind] = by_kind.get(failure.kind, 0) + 1
    return {
        "total": len(failures),
        "by_kind": dict(sorted(by_kind.items())),
        "failures": [f.as_dict() for f in failures],
    }


def sweep_exit_code(failures: Sequence[RunFailure]) -> int:
    """The exit code a sweep should report: 0, or the most severe kind's."""
    kinds = {f.kind for f in failures}
    for kind in _SEVERITY:
        if kind in kinds:
            return EXIT_CODES[kind]
    return 0
