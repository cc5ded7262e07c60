"""Tests for the content-addressed result cache and its runner integration."""

from __future__ import annotations

import json

import pytest

from repro.orchestration import (
    BatchRunner,
    ResultCache,
    RunRequest,
    RunStore,
    execute_request,
    grid_requests,
)
from repro.orchestration.cache import SHARD_CHARS
from repro.orchestration.store import canonical_line


@pytest.fixture(scope="module")
def record():
    return execute_request(
        RunRequest(scenario="single_master", mode="conservative", cycles=60)
    )


@pytest.fixture(scope="module")
def als_record():
    return execute_request(
        RunRequest(scenario="single_master", mode="als", cycles=60, accuracy=0.9)
    )


# ---------------------------------------------------------------------------
# Cache basics.
# ---------------------------------------------------------------------------

def test_get_on_empty_cache_misses(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(record.request_id) is None
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0


def test_put_then_get_round_trips(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    assert cache.put(record) == 1
    hit = cache.get(record.request_id)
    assert hit is not None
    assert hit.as_dict() == record.as_dict()
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_get_from_fresh_instance_reads_disk(tmp_path, record, als_record):
    ResultCache(tmp_path / "cache").put_many([record, als_record])
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(record.request_id).as_dict() == record.as_dict()
    assert cache.get(als_record.request_id).as_dict() == als_record.as_dict()
    assert len(cache) == 2
    assert {r.request_id for r in cache} == {record.request_id, als_record.request_id}


def test_records_land_in_their_shard(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    assert shard.name == f"{record.request_id[:SHARD_CHARS]}.jsonl"
    assert shard.read_text() == canonical_line(record) + "\n"


def test_put_is_idempotent_and_keeps_bytes_stable(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    before = cache.shard_path(record.request_id).read_bytes()
    assert cache.put(record) == 0
    assert ResultCache(tmp_path / "cache").put(record) == 0
    assert cache.shard_path(record.request_id).read_bytes() == before


def test_contains(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    assert request.request_id == record.request_id
    assert request not in cache
    cache.put(record)
    assert request in cache
    assert record.request_id in cache


def test_damaged_shard_lines_are_dropped_not_served(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    line = canonical_line(record)
    # a torn half-line and a non-JSON line around the intact one
    shard.write_text(line[: len(line) // 2] + "\n" + line + "\n" + "{not json\n")
    fresh = ResultCache(tmp_path / "cache")
    hit = fresh.get(record.request_id)
    assert hit is not None
    assert hit.as_dict() == record.as_dict()
    assert fresh.stats.invalid == 2


def test_digest_tampered_record_is_dropped(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    shard.write_text(
        canonical_line(record).replace('"monitors_ok":true', '"monitors_ok":false')
        + "\n"
    )
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.get(record.request_id) is None
    assert fresh.stats.invalid == 1


def test_a_digestless_line_is_quarantined_not_served(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    payload = json.loads(canonical_line(record))
    del payload["digest"]
    digestless = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    shard.write_text(digestless + "\n")
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.get(record.request_id) is None
    assert fresh.stats.invalid == 1
    assert fresh.stats.quarantined == 1
    assert shard.with_name(shard.name + ".corrupt").read_text() == digestless + "\n"
    assert shard.read_text() == ""


def test_a_non_canonical_line_is_quarantined_not_served(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    spaced = json.dumps(json.loads(canonical_line(record)), sort_keys=True)
    shard.write_text(spaced + "\n")
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.get(record.request_id) is None
    assert fresh.stats.invalid == 1
    assert fresh.stats.quarantined == 1
    assert shard.with_name(shard.name + ".corrupt").read_text() == spaced + "\n"
    # The next put re-stores the canonical line in place of the damage.
    assert fresh.put(record) == 1
    assert shard.read_text() == canonical_line(record) + "\n"


def test_wrong_shard_record_is_ignored(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    wrong = tmp_path / "cache" / "zz.jsonl"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(canonical_line(record) + "\n")
    assert cache.get("zz" + record.request_id[2:]) is None
    assert cache.stats.invalid == 1


# ---------------------------------------------------------------------------
# Damage quarantine: corrupt lines move to a .corrupt sidecar exactly once.
# ---------------------------------------------------------------------------

def test_damaged_lines_are_quarantined_to_sidecar(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    line = canonical_line(record)
    torn = line[: len(line) // 2]
    shard.write_text(torn + "\n" + line + "\n" + "{not json\n")

    fresh = ResultCache(tmp_path / "cache")
    assert fresh.get(record.request_id) is not None
    assert fresh.stats.invalid == 2
    assert fresh.stats.quarantined == 2
    # The raw damaged bytes are preserved verbatim for post-mortems...
    sidecar = shard.with_name(shard.name + ".corrupt")
    assert sidecar.read_text() == torn + "\n" + "{not json\n"
    # ...and the shard itself was rewritten clean, keeping only verified
    # records, so the damage is not re-counted on every future load.
    assert shard.read_text() == line + "\n"
    again = ResultCache(tmp_path / "cache")
    assert again.get(record.request_id) is not None
    assert again.stats.invalid == 0
    assert again.stats.quarantined == 0


def test_quarantine_sidecar_accumulates_across_incidents(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    line = canonical_line(record)
    sidecar = shard.with_name(shard.name + ".corrupt")
    for junk in ("first incident\n", "second incident\n"):
        shard.write_text(line + "\n" + junk)
        ResultCache(tmp_path / "cache").get(record.request_id)
    assert sidecar.read_text() == "first incident\nsecond incident\n"


def test_quarantine_counts_in_stats_summary(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    cache.put(record)
    shard = cache.shard_path(record.request_id)
    shard.write_text(canonical_line(record) + "\n" + "garbage\n")
    fresh = ResultCache(tmp_path / "cache")
    fresh.get(record.request_id)
    summary = fresh.stats.summary()
    assert "1 invalid line(s) dropped" in summary
    assert "1 damaged line(s) quarantined" in summary


def test_wrong_shard_record_is_quarantined_too(tmp_path, record):
    cache = ResultCache(tmp_path / "cache")
    wrong = tmp_path / "cache" / "zz.jsonl"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(canonical_line(record) + "\n")
    assert cache.get("zz" + record.request_id[2:]) is None
    assert cache.stats.quarantined == 1
    assert wrong.read_text() == ""  # rewritten clean: nothing verified
    sidecar = wrong.with_name(wrong.name + ".corrupt")
    assert sidecar.read_text() == canonical_line(record) + "\n"


# ---------------------------------------------------------------------------
# Runner integration: hits skip execution, results stay byte-identical.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid():
    return grid_requests(
        scenarios=["single_master", "mixed"],
        modes=["conservative", "als"],
        cycles=80,
    )


def test_runner_cold_cache_executes_and_stores(tmp_path, small_grid):
    cache = ResultCache(tmp_path / "cache")
    records = BatchRunner(jobs=1).run(small_grid, cache=cache)
    assert len(records) == len(small_grid)
    assert cache.stats.misses == len(small_grid)
    assert cache.stats.stores == len(small_grid)
    assert len(cache) == len(small_grid)


def test_runner_warm_cache_runs_zero_engines(tmp_path, small_grid, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    cold = BatchRunner(jobs=1).run(small_grid, cache=cache)

    def explode(request):
        raise AssertionError(f"engine executed on a warm cache: {request}")

    monkeypatch.setattr("repro.orchestration.runner.execute_request", explode)
    warm = BatchRunner(jobs=1).run(small_grid, cache=cache)
    assert [r.as_dict() for r in warm] == [r.as_dict() for r in cold]
    assert cache.stats.hits == len(small_grid)


def test_runner_partial_cache_executes_only_misses(tmp_path, small_grid):
    cache = ResultCache(tmp_path / "cache")
    # warm half the grid
    BatchRunner(jobs=1).run(small_grid[: len(small_grid) // 2], cache=cache)
    before = cache.stats.snapshot()
    records = BatchRunner(jobs=1).run(small_grid, cache=cache)
    delta = cache.stats.since(before)
    assert delta.hits == len(small_grid) // 2
    assert delta.stores == len(small_grid) - len(small_grid) // 2
    assert [r.request_id for r in records] == [r.request_id for r in small_grid]


def test_warm_cache_store_bytes_match_cold_and_uncached(tmp_path, small_grid):
    cache = ResultCache(tmp_path / "cache")
    plain = RunStore(tmp_path / "plain.jsonl")
    cold = RunStore(tmp_path / "cold.jsonl")
    warm = RunStore(tmp_path / "warm.jsonl")
    plain.write(BatchRunner(jobs=1).run(small_grid))
    cold.write(BatchRunner(jobs=1).run(small_grid, cache=cache))
    warm.write(BatchRunner(jobs=1).run(small_grid, cache=cache))
    assert plain.digest() == cold.digest() == warm.digest()


def test_runner_cache_progress_counts_every_request(tmp_path, small_grid):
    cache = ResultCache(tmp_path / "cache")
    BatchRunner(jobs=1).run(small_grid[:2], cache=cache)
    seen = []
    BatchRunner(jobs=2).run(
        small_grid,
        progress=lambda done, total, record: seen.append((done, total)),
        cache=cache,
    )
    assert seen == [(i + 1, len(small_grid)) for i in range(len(small_grid))]
