"""Failure taxonomy, retry verdicts and the quarantine sidecar.

Supervised execution runs on the fleet's lease-claiming workers
(:mod:`repro.orchestration.fleet`): a worker enforces the per-attempt
``deadline`` from its heartbeat pump, records every attempt in the fleet's
attempt ledger, and asks :func:`ledger_verdict` before each new attempt
whether the request should run again or be **quarantined**.  This module
holds what those pieces share:

* the failure kinds and their **distinct process exit codes**, so shell
  scripts and CI can branch on what went wrong without parsing output;
* :class:`RunFailure`, the structured, wall-clock-free failure record;
* :func:`ledger_verdict`, the one retry policy: a ledger of attempt
  outcomes in, a verdict out;
* the ``.failures`` sidecar next to a run store -- failures never go into
  the store itself, whose bytes stay identical to a fully healthy serial
  sweep.

Failure taxonomy (and exit codes):

======== ==== =======================================================
kind     exit  meaning
======== ==== =======================================================
timeout   10  the attempt blew its deadline and its worker killed itself
crash     11  the attempt died (signal or exception) on its own
poison    12  retries exhausted; the request is quarantined
degraded  13  the channel degraded deterministically (never retried:
              the same request always degrades the same way)
======== ==== =======================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .request import RunRequest, canonical_json
from .store import atomic_write_text

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


def ledger_verdict(
    request: RunRequest,
    attempts: Sequence[Mapping[str, Any]],
    max_retries: int,
) -> Optional[RunFailure]:
    """The quarantine verdict for one request's attempt ledger.

    ``attempts`` are the request's failed attempts in order, each with the
    outcome fields ``status``, ``exit_code``, ``last_committed`` and
    ``error``; an attempt that never got a status (its process vanished
    with nobody to say why) counts as a crash.  Returns ``None`` while the
    request may run again, else its :class:`RunFailure`:

    * ``degraded`` is final at once -- the modelled channel degrades the
      same way on every attempt, so retrying cannot help;
    * after ``1 + max_retries`` attempts the kind is ``poison``, or the last
      attempt's own ``timeout`` / ``crash`` when retries were disabled.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    detail = [
        {
            "attempt": index,
            "status": entry.get("status") or "crash",
            "exit_code": entry.get("exit_code"),
            "last_committed": entry.get("last_committed"),
            "error": entry.get("error"),
        }
        for index, entry in enumerate(attempts)
    ]
    if any(d["status"] == "degraded" for d in detail):
        kind = "degraded"
    elif len(detail) > max_retries:
        kind = "poison" if max_retries else detail[-1]["status"]
    else:
        return None
    message = next(
        (d["error"] for d in reversed(detail) if d["error"]),
        f"{detail[-1]['status']} after {len(detail)} attempt(s)",
    )
    return RunFailure(
        request_id=request.request_id,
        label=request.display_label(),
        scenario=request.scenario,
        mode=request.mode,
        kind=kind,
        attempts=len(detail),
        message=message,
        detail=detail,
    )


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
