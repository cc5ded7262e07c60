"""Fleet durability under chaos: steal-resume, drain, poison quarantine.

The acceptance bar stays byte-identity: whatever chaos does to the workers
-- SIGKILL mid-run, hangs past the lease TTL, graceful SIGTERM drains --
the reconciled records must carry exactly the bytes a serial
``BatchRunner(jobs=1)`` sweep produces, with failures quarantined into
sidecar files rather than leaking into the store.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.orchestration import (
    BatchRunner,
    ChaosConfig,
    CheckpointPolicy,
    RunStore,
    grid_requests,
    load_quarantine,
    plan_for,
    publish_grid,
    run_fleet,
    sweep_id_for,
)
from repro.orchestration.fleet import (
    FleetWorkerStats,
    _worker_entry,
    claims_dir,
    load_worker_stats,
    snapshots_dir,
)
from repro.orchestration.request import canonical_json


def _bytes(records):
    return "".join(canonical_json(r.as_dict()) + "\n" for r in records)


# ---------------------------------------------------------------------------
# Chaos kill + hang: the fleet steals, resumes and stays byte-identical.
# ---------------------------------------------------------------------------

def test_fleet_survives_chaos_kills_and_hangs_byte_identical(tmp_path):
    grid = grid_requests(
        scenarios=["als_streaming", "mixed", "single_master"],
        modes=["conservative", "als"],
        cycles=180,
    )
    serial = BatchRunner(jobs=1).run(grid)
    # Seed 7 is pinned because its schedule is interesting: it kills and
    # hangs a mix of points (the plan is a pure function of the seed and the
    # request ids, so this stays stable unless the grid changes).
    chaos = ChaosConfig(
        seed=7, kill_probability=0.25, hang_probability=0.25, hang_seconds=6.0
    )
    planned = {
        r.request_id: plan_for(chaos, r.request_id, r.cycles).action for r in grid
    }
    assert "kill" in planned.values() and "hang" in planned.values()

    store = RunStore(tmp_path / "runs.jsonl")
    records, stats = run_fleet(
        grid,
        cache_dir=tmp_path / "cache",
        workers=2,
        store=store,
        ttl=1.0,
        poll_interval=0.1,
        checkpoint=CheckpointPolicy(every_cycles=30),
        chaos=chaos,
    )
    assert _bytes(records) == _bytes(serial)
    assert store.path.read_text().count("\n") == len(grid)
    assert not load_quarantine(tmp_path / "cache", stats.sweep_id)
    assert stats.restarts >= 1  # SIGKILLed workers were replaced
    resumed = sum(w.resumed for w in stats.workers)
    assert resumed >= 1  # a killed point was picked up from its snapshot
    stolen = sum(w.stolen for w in stats.workers)
    assert stolen >= 1  # a hung worker's lease was stolen


# ---------------------------------------------------------------------------
# Poison quarantine: a point that dies on every attempt stops eating the fleet.
# ---------------------------------------------------------------------------

def test_fleet_quarantines_poison_points_and_finishes_the_rest(tmp_path):
    grid = grid_requests(
        scenarios=["als_streaming", "single_master"],
        modes=["conservative"],
        cycles=150,
    )
    serial = BatchRunner(jobs=1).run(grid)
    # once=False: the kill re-fires on every retry -> retries exhaust.
    chaos = ChaosConfig(seed=11, kill_probability=0.45, once=False)
    doomed = [
        r.request_id
        for r in grid
        if plan_for(chaos, r.request_id, r.cycles).action == "kill"
    ]
    assert doomed and len(doomed) < len(grid)

    records, stats = run_fleet(
        grid,
        cache_dir=tmp_path / "cache",
        workers=2,
        ttl=1.0,
        poll_interval=0.1,
        chaos=chaos,
        max_retries=2,
    )
    failures = load_quarantine(tmp_path / "cache", stats.sweep_id)
    assert sorted(f.request_id for f in failures) == sorted(doomed)
    assert all(f.kind == "poison" for f in failures)
    assert all(f.attempts == 3 for f in failures)  # 1 try + max_retries
    assert stats.quarantined == len(doomed)
    assert "quarantined" in stats.summary()
    healthy = [r for r in serial if r.request_id not in doomed]
    assert _bytes(records) == _bytes(healthy)


def test_fleet_single_worker_poisons_every_attempt_kills_without_local_runs(
    tmp_path,
):
    """One worker, a kill on every attempt: the driver keeps restarting the
    worker until the ledger's verdict quarantines both points -- it never
    gives up and runs a crashing point in its own process."""
    grid = grid_requests(
        scenarios=["single_master", "als_streaming"],
        modes=["conservative"],
        cycles=150,
    )
    chaos = ChaosConfig(seed=11, kill_probability=1.0, once=False)
    records, stats = run_fleet(
        grid,
        cache_dir=tmp_path / "cache",
        workers=1,
        poll_interval=0.05,
        checkpoint=CheckpointPolicy(every_cycles=30),
        chaos=chaos,
        max_retries=1,
    )
    failures = load_quarantine(tmp_path / "cache", stats.sweep_id)
    assert records == []
    assert stats.executed_locally == 0
    assert sorted(f.request_id for f in failures) == sorted(
        r.request_id for r in grid
    )
    for failure in failures:
        assert failure.kind == "poison"
        assert failure.attempts == 2
        assert [d["exit_code"] for d in failure.detail] == [-9, -9]


# ---------------------------------------------------------------------------
# Graceful drain: SIGTERM persists progress and releases every lease.
# ---------------------------------------------------------------------------

def test_worker_drains_on_sigterm_releasing_leases_and_snapshotting(tmp_path):
    grid = grid_requests(
        scenarios=["als_streaming", "mixed", "dma_burst_storm"],
        modes=["als"],
        cycles=3000,
    )
    publish_grid(tmp_path, grid)
    context = multiprocessing.get_context()
    worker = context.Process(
        target=_worker_entry,
        args=(str(tmp_path), "drainee", 5.0, 0.1, None, (50, None), None, 2, True),
    )
    worker.start()
    time.sleep(1.5)  # let it claim a point and get mid-run
    os.kill(worker.pid, signal.SIGTERM)
    worker.join(timeout=30)
    assert worker.exitcode == 0  # drained, not killed

    leases = list(claims_dir(tmp_path).glob("*.lease"))
    assert leases == []  # nothing left claimed for others to steal
    stats = load_worker_stats(tmp_path, sweep_id_for(grid))
    assert stats and stats[0].drained >= 1
    # The parting snapshot lets a successor resume mid-run.  (Tolerate the
    # rare schedule where the signal landed between points: then the worker
    # simply had nothing in flight to snapshot.)
    snapshots = list(snapshots_dir(tmp_path).glob("*.snap"))
    executed = stats[0].executed
    assert snapshots or executed == len(grid)

    # A successor finishes the grid bit-identically, resuming where the
    # drained worker stopped.
    from repro.orchestration import ResultCache, run_worker

    run_worker(tmp_path, owner="successor", ttl=5.0, poll_interval=0.1,
               checkpoint=CheckpointPolicy(every_cycles=50))
    cache = ResultCache(tmp_path)
    serial = BatchRunner(jobs=1).run(grid)
    cached = [cache.get(r) for r in grid]
    assert all(c is not None for c in cached)
    assert _bytes(cached) == _bytes(serial)


# ---------------------------------------------------------------------------
# Stats plumbing.
# ---------------------------------------------------------------------------

def test_worker_stats_roundtrip_durability_counters():
    stats = FleetWorkerStats(
        owner="w1", executed=3, resumed=2, retried=1, quarantined=1, drained=1
    )
    payload = stats.as_dict()
    for key in ("resumed", "retried", "quarantined", "drained"):
        assert payload[key] == getattr(stats, key)
    assert FleetWorkerStats.from_dict(payload) == stats
    # Stats written by a pre-durability worker still load (missing counters
    # default to zero) -- mixed-version fleets must not crash reconciliation.
    legacy = {k: v for k, v in payload.items()
              if k not in ("resumed", "retried", "quarantined", "drained")}
    loaded = FleetWorkerStats.from_dict(legacy)
    assert loaded.executed == 3 and loaded.resumed == 0
