"""Batch-run orchestration: declarative requests, parallel fan-out, storage.

The experiment surface of the reproduction is a grid -- scenario x operating
mode x prediction accuracy x LOB depth -- and the paper's evaluation walks
such grids.  This package runs them at scale:

* :class:`RunRequest` -- a declarative, picklable description of one run
  (scenario name, engine mode, config overrides, seed).
* :func:`execute_request` / :class:`RunRecord` -- execute one request through
  the engine registry and package a deterministic, JSON-serialisable record
  (no wall-clock fields, so re-runs are byte-identical).
* :func:`grid_requests` -- expand a parameter grid into requests with
  deterministic per-request seeds.
* :class:`BatchRunner` -- fan requests across worker processes; results are
  identical to a serial run, independent of ``jobs``.
* :class:`RunStore` -- JSON-lines persistence for records (atomic writes,
  torn-line accounting via :meth:`RunStore.scan`).
* :class:`ResultCache` -- content-addressed memoization of records keyed by
  ``request_id``; attached to a runner, hits skip execution entirely.
* :func:`plan_resume` -- reconcile a partial store against a request grid so
  an interrupted sweep re-runs only its missing points.
* :class:`ClaimBoard` / :func:`run_fleet` / :func:`run_worker` -- the
  distributed layer and the supervised executor: atomic lease-file claims
  over a shared cache directory, work-stealing workers on any number of
  hosts, per-attempt deadlines, retries from the latest snapshot, and
  crash-tolerant reconciliation byte-identical to a serial run.
* :func:`execute_request_durable` / :class:`CheckpointPolicy` -- periodic
  whole-engine snapshots so an interrupted run resumes mid-flight,
  bit-identical to an uninterrupted one.
* :class:`RunFailure` / :func:`ledger_verdict` -- the failure taxonomy
  mapped to distinct process exit codes, and the one retry policy that
  turns a point's attempt ledger into a poison-point quarantine.
* :class:`ChaosConfig` / :class:`ChaosMonkey` -- deterministic fault
  injection (kill / hang / disk-full) keyed on the request id, for CI and
  property tests of all of the above.
"""

from .cache import CacheStats, ResultCache, ResumePlan, plan_resume
from .chaos import ChaosConfig, ChaosMonkey, ChaosPlan, plan_for
from .claims import DEFAULT_LEASE_TTL, ClaimBoard, ClaimStats, Lease
from .durable import (
    CheckpointPolicy,
    DurableRunEvents,
    execute_request_durable,
    snapshot_path,
)
from .fleet import (
    DEFAULT_POLL_INTERVAL,
    FleetStats,
    FleetWorkerStats,
    load_grid,
    load_quarantine,
    publish_grid,
    reconcile,
    run_fleet,
    run_worker,
    sweep_id_for,
)
from .request import (
    RunRecord,
    RunRequest,
    derive_seed,
    execute_request,
    grid_requests,
)
from .runner import BatchRunner
from .store import RunStore, StoreScan, TornLine
from .supervisor import (
    EXIT_CODES,
    RunFailure,
    failures_path,
    ledger_verdict,
    load_failures,
    quarantine_report,
    sweep_exit_code,
    write_failures,
)

__all__ = [
    "BatchRunner",
    "CacheStats",
    "ChaosConfig",
    "ChaosMonkey",
    "ChaosPlan",
    "CheckpointPolicy",
    "ClaimBoard",
    "ClaimStats",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POLL_INTERVAL",
    "DurableRunEvents",
    "EXIT_CODES",
    "FleetStats",
    "FleetWorkerStats",
    "Lease",
    "ResultCache",
    "ResumePlan",
    "RunFailure",
    "RunRecord",
    "RunRequest",
    "RunStore",
    "StoreScan",
    "TornLine",
    "derive_seed",
    "execute_request",
    "execute_request_durable",
    "failures_path",
    "grid_requests",
    "ledger_verdict",
    "load_failures",
    "load_grid",
    "load_quarantine",
    "plan_for",
    "plan_resume",
    "publish_grid",
    "quarantine_report",
    "reconcile",
    "run_fleet",
    "run_worker",
    "snapshot_path",
    "sweep_exit_code",
    "sweep_id_for",
    "write_failures",
]
