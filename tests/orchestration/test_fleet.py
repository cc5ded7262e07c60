"""Integration tests for distributed fleet sweeps.

The acceptance bar for the fleet layer is byte-identity: whatever the
interleaving of workers, crashes, steals and restarts, the reconciled store
must carry exactly the bytes a ``BatchRunner(jobs=1)`` sweep of the same
grid produces.
"""

from __future__ import annotations

import json

import pytest

from repro.orchestration import (
    BatchRunner,
    ResultCache,
    RunStore,
    grid_requests,
    load_grid,
    publish_grid,
    run_fleet,
    run_worker,
    sweep_id_for,
)
from repro.orchestration.fleet import (
    _end_attempt,
    _open_attempt,
    claims_dir,
    load_worker_stats,
)
from repro.orchestration.store import canonical_line


@pytest.fixture(scope="module")
def grid():
    return grid_requests(
        scenarios=["single_master", "mixed"],
        modes=["conservative", "als"],
        lob_depths=[8, 64],
        cycles=80,
    )


@pytest.fixture(scope="module")
def serial_records(grid):
    return BatchRunner(jobs=1).run(grid)


# ---------------------------------------------------------------------------
# Grid manifest.
# ---------------------------------------------------------------------------

def test_publish_and_load_grid_roundtrip(tmp_path, grid):
    sweep_id = publish_grid(tmp_path, grid)
    loaded_id, loaded = load_grid(tmp_path)
    assert loaded_id == sweep_id == sweep_id_for(grid)
    assert [r.request_id for r in loaded] == [r.request_id for r in grid]
    assert loaded == list(grid)  # full dataclass equality, not just ids


def test_load_grid_without_manifest_raises_with_hint(tmp_path):
    with pytest.raises(FileNotFoundError, match="repro sweep .* --fleet"):
        load_grid(tmp_path / "empty")


def test_publish_grid_is_idempotent(tmp_path, grid):
    first = publish_grid(tmp_path, grid)
    before = (tmp_path / "fleet" / "grid.json").read_bytes()
    assert publish_grid(tmp_path, grid) == first
    assert (tmp_path / "fleet" / "grid.json").read_bytes() == before


# ---------------------------------------------------------------------------
# Single in-process worker.
# ---------------------------------------------------------------------------

def test_single_worker_completes_the_grid(tmp_path, grid, serial_records):
    publish_grid(tmp_path / "cache", grid)
    stats = run_worker(tmp_path / "cache", owner="solo", poll_interval=0.01)
    assert stats.executed == len(grid)
    assert stats.claimed == len(grid)
    assert stats.stolen == 0 and stats.lost == 0
    assert stats.released == len(grid)
    cache = ResultCache(tmp_path / "cache")
    cached = {record.request_id: record for record in cache}
    assert [cached[r.request_id].as_dict() for r in grid] == [
        r.as_dict() for r in serial_records
    ]
    # No leases left behind, and the stats report landed on disk.
    assert list(claims_dir(tmp_path / "cache").glob("*.lease")) == []
    reports = load_worker_stats(tmp_path / "cache", sweep_id_for(grid))
    assert [report.owner for report in reports] == ["solo"]
    assert reports[0].executed == len(grid)


def test_worker_on_a_warm_cache_executes_nothing(tmp_path, grid, serial_records):
    publish_grid(tmp_path / "cache", grid)
    ResultCache(tmp_path / "cache").put_many(serial_records)
    stats = run_worker(tmp_path / "cache", owner="late", poll_interval=0.01)
    assert stats.executed == 0
    assert stats.deduped == len(grid)


# ---------------------------------------------------------------------------
# Multi-process fleets.
# ---------------------------------------------------------------------------

def test_fleet_two_workers_byte_identical_to_serial(
    tmp_path, grid, serial_records
):
    reference = RunStore(tmp_path / "reference.jsonl")
    reference.write(serial_records)
    store = RunStore(tmp_path / "fleet.jsonl")
    records, stats = run_fleet(
        grid, tmp_path / "cache", workers=2, store=store, poll_interval=0.02
    )
    assert store.digest() == reference.digest()
    assert [r.as_dict() for r in records] == [r.as_dict() for r in serial_records]
    # Default TTL is far above the sweep duration: no live lease can expire,
    # so the grid is executed exactly once with zero steals.
    assert stats.total("executed") == len(grid)
    assert stats.total("stolen") == 0
    assert stats.restarts == 0
    assert stats.reconcile_passes >= 1
    assert stats.grid_points == len(grid)


def test_fleet_kill_and_restart_byte_identical_to_serial(
    tmp_path, grid, serial_records
):
    """The acceptance criterion: SIGKILL one of three workers mid-sweep
    (holding a fresh claim), restart it, and still produce a store
    byte-identical to ``--jobs 1`` -- with the theft visible in FleetStats."""
    reference = RunStore(tmp_path / "reference.jsonl")
    reference.write(serial_records)
    store = RunStore(tmp_path / "fleet.jsonl")
    records, stats = run_fleet(
        grid,
        tmp_path / "cache",
        workers=3,
        store=store,
        ttl=1.0,
        poll_interval=0.02,
        kill_after=0,  # first worker dies on its first acquire, lease in hand
    )
    assert store.digest() == reference.digest()
    assert len(records) == len(grid)
    assert stats.restarts >= 1
    assert stats.total("stolen") >= 1
    # At least one execution per point; a tight TTL on a loaded single-core
    # host can occasionally steal a live-but-stalled lease, and concurrent
    # stealers can rarely both win the replace race -- redundant executions
    # are benign (the digest equality above proves byte-identity regardless).
    assert stats.total("executed") >= len(grid)
    # Survivors + the restarted worker all reported in; the killed
    # incarnation never writes a report.
    assert len(stats.workers) >= 2
    assert list(claims_dir(tmp_path / "cache").glob("*.lease")) == []


def test_fleet_zero_workers_reconciles_what_external_workers_did(
    tmp_path, grid, serial_records
):
    """--fleet 0 is finalize-only: reuse the cache the (external) workers
    filled, execute any remainder in-process, rewrite the store exactly."""
    cache = ResultCache(tmp_path / "cache")
    cache.put_many(serial_records[:5])  # externals got halfway then stopped
    reference = RunStore(tmp_path / "reference.jsonl")
    reference.write(serial_records)
    store = RunStore(tmp_path / "fleet.jsonl")
    _, stats = run_fleet(
        grid, tmp_path / "cache", workers=0, store=store, poll_interval=0.01
    )
    assert store.digest() == reference.digest()
    assert stats.executed_locally == len(grid) - 5
    assert stats.workers == []  # nobody local ran


def test_fleet_zero_workers_never_runs_an_attempted_point_in_process(
    tmp_path, grid, serial_records
):
    """A point whose attempt crashed an external worker has no record and
    no verdict yet: finalize-only reconciliation leaves it out and counts
    it as unfinished instead of running it in the driver's process."""
    cache_dir = tmp_path / "cache"
    sweep_id = publish_grid(cache_dir, grid)
    crashed = grid[0].request_id
    marker = _open_attempt(cache_dir, sweep_id, crashed, "external")
    _end_attempt(marker, "crash", last_committed=None, error="boom")
    records, stats = run_fleet(grid, cache_dir, workers=0)
    assert [r.request_id for r in records] == [r.request_id for r in grid[1:]]
    assert stats.unfinished == 1
    assert stats.executed_locally == len(grid) - 1
    assert "1 point(s) unfinished" in stats.summary()
    assert ResultCache(cache_dir).get(grid[0]) is None


def test_fleet_reconciles_a_preexisting_torn_store(
    tmp_path, grid, serial_records
):
    """A store torn mid-write by a crashed driver is healed: torn lines are
    counted, intact records reused, and the rewrite is byte-identical."""
    reference = RunStore(tmp_path / "reference.jsonl")
    reference.write(serial_records)
    lines = [canonical_line(record) for record in serial_records]
    store_path = tmp_path / "fleet.jsonl"
    store_path.write_text(
        lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2]
    )
    store = RunStore(store_path)
    _, stats = run_fleet(
        grid, tmp_path / "cache", workers=1, store=store, poll_interval=0.02
    )
    assert store.digest() == reference.digest()
    assert stats.torn_records == 1
    assert stats.reused_records == 2


def test_fleet_stats_summary_mentions_the_interesting_counts(tmp_path, grid):
    store = RunStore(tmp_path / "fleet.jsonl")
    _, stats = run_fleet(
        grid, tmp_path / "cache", workers=1, store=store, poll_interval=0.02
    )
    text = stats.summary()
    assert f"{len(grid)} point(s)" in text
    assert "stolen" in text and "reconciliation pass(es)" in text


def test_worker_stats_files_are_json_with_wallclock(tmp_path, grid):
    publish_grid(tmp_path / "cache", grid)
    stats = run_worker(tmp_path / "cache", owner="probe", poll_interval=0.01)
    path = (
        tmp_path / "cache" / "fleet" / "stats" / sweep_id_for(grid) / "probe.json"
    )
    payload = json.loads(path.read_text())
    assert payload["executed"] == stats.executed == len(grid)
    assert payload["elapsed_seconds"] > 0
