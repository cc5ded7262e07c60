"""Property tests for the result cache and cold/warm sweep determinism."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.orchestration import (
    BatchRunner,
    ResultCache,
    RunRecord,
    RunStore,
    grid_requests,
)
from repro.orchestration.store import canonical_line, parse_record_line

# ---------------------------------------------------------------------------
# Synthetic record strategy: exercises the cache's serialisation boundary
# without paying for engine runs.  Floats are finite (canonical JSON must
# round-trip them) and text stays printable one-line ASCII like real labels.
# ---------------------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
label_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
metric_dicts = st.dictionaries(
    st.sampled_from(["accesses", "rollbacks", "flushes", "accuracy", "depth"]),
    st.one_of(st.integers(-(2**40), 2**40), finite_floats),
    max_size=4,
)

#: Arbitrarily nested JSON payloads with the awkward values a canonical
#: encoder must reproduce exactly: signed zero, subnormal and tiny floats,
#: huge integers and non-ASCII keys (escaped by the encoder, sorted by code
#: point).
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    finite_floats,
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308]),
    st.text(max_size=8),
)
nested_dicts = st.recursive(
    st.dictionaries(st.text(max_size=6), json_leaves, max_size=4),
    lambda children: st.dictionaries(
        st.text(max_size=6),
        st.one_of(json_leaves, children, st.lists(json_leaves | children, max_size=3)),
        max_size=4,
    ),
    max_leaves=16,
)


@st.composite
def run_records(draw, payloads=metric_dicts):
    request_id = draw(
        st.text(alphabet="0123456789abcdef", min_size=12, max_size=12)
    )
    return RunRecord(
        request_id=request_id,
        label=draw(label_text),
        scenario=draw(st.sampled_from(["single_master", "mixed", "als_streaming"])),
        mode=draw(st.sampled_from(["conservative", "als", "sla", "auto"])),
        engine=draw(st.sampled_from(["conventional", "optimistic", "analytical"])),
        seed=draw(st.integers(0, 2**48)),
        cycles=draw(st.integers(1, 10**6)),
        lob_depth=draw(st.integers(1, 1024)),
        accuracy=draw(st.none() | st.floats(0.0, 1.0, allow_nan=False)),
        committed_cycles=draw(st.integers(0, 10**6)),
        performance=draw(finite_floats),
        per_cycle_times=draw(metric_dicts),
        channel=draw(payloads),
        transitions=draw(payloads),
        prediction=draw(metric_dicts),
        lob=draw(metric_dicts),
        monitors_ok=draw(st.booleans()),
        wasted_leader_cycles=draw(st.integers(0, 10**6)),
        beat_digest=draw(st.text(alphabet="0123456789abcdef", max_size=16)),
        trace_replay=draw(payloads),
    )


#: tmp_path is per-test, not per-example; every hypothesis example gets its
#: own cache directory so state never leaks between examples.
_example_dirs = itertools.count()


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=run_records())
def test_cache_round_trip_preserves_records_exactly(tmp_path, record):
    """put -> fresh instance -> get reproduces the record field-for-field,
    and the shard line equals the record's canonical encoding."""
    root = tmp_path / f"cache{next(_example_dirs)}"
    writer = ResultCache(root)
    writer.put(record)
    reader = ResultCache(root)
    loaded = reader.get(record.request_id)
    assert loaded is not None
    assert loaded.as_dict() == record.as_dict()
    assert loaded.digest == record.digest
    assert canonical_line(loaded) == canonical_line(record)
    assert canonical_line(record) + "\n" in writer.shard_path(
        record.request_id
    ).read_text()


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(run_records(), min_size=1, max_size=8))
def test_cache_put_many_round_trips_batches(tmp_path, records):
    """Batched inserts keep every distinct record retrievable; duplicates by
    id collapse onto the first occurrence (first write wins)."""
    root = tmp_path / f"cache{next(_example_dirs)}"
    ResultCache(root).put_many(records)
    first_by_id = {}
    for record in records:
        first_by_id.setdefault(record.request_id, record)
    reader = ResultCache(root)
    assert len(reader) == len(first_by_id)
    for request_id, record in first_by_id.items():
        assert reader.get(request_id).as_dict() == record.as_dict()


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(run_records(nested_dicts), min_size=1, max_size=4))
def test_nested_payloads_write_load_write_byte_stable(tmp_path, records):
    """Store write -> load -> write reproduces the bytes for records whose
    ``channel`` / ``transitions`` / ``trace_replay`` hold nested JSON, and
    content tampering is still caught by the digest."""
    directory = tmp_path / f"store{next(_example_dirs)}"
    first = RunStore(directory / "first.jsonl")
    second = RunStore(directory / "second.jsonl")
    first.write(records)
    loaded = first.load()
    second.write(loaded)
    assert first.path.read_bytes() == second.path.read_bytes()
    assert [r.as_dict() for r in loaded] == [r.as_dict() for r in records]
    assert [r.digest for r in loaded] == [r.digest for r in records]

    line = canonical_line(records[0])
    flag = "true" if records[0].monitors_ok else "false"
    flipped = "false" if records[0].monitors_ok else "true"
    tampered = line.replace(f'"monitors_ok":{flag}', f'"monitors_ok":{flipped}')
    assert tampered != line
    with pytest.raises(ValueError, match="digest check"):
        parse_record_line(tampered)
    first.path.write_text(tampered + "\n" + line + "\n")
    valid, skipped = first.load_valid()
    assert skipped == 1 and [canonical_line(r) for r in valid] == [line]


# ---------------------------------------------------------------------------
# Cold vs warm sweeps over the real engines: identical store bytes at
# --jobs 1 and --jobs 4.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
def test_cold_and_warm_cache_sweeps_write_identical_store_bytes(tmp_path, jobs):
    grid = grid_requests(
        scenarios=["single_master", "mixed"],
        modes=["conservative", "als"],
        cycles=60,
    )
    cache = ResultCache(tmp_path / "cache")
    baseline = RunStore(tmp_path / "baseline.jsonl")
    cold = RunStore(tmp_path / "cold.jsonl")
    warm = RunStore(tmp_path / "warm.jsonl")
    baseline.write(BatchRunner(jobs=jobs).run(grid))
    cold.write(BatchRunner(jobs=jobs).run(grid, cache=cache))
    assert cache.stats.hits == 0
    warm.write(BatchRunner(jobs=jobs).run(grid, cache=cache))
    assert cache.stats.hits == len(grid)
    assert baseline.digest() == cold.digest() == warm.digest()
    assert (tmp_path / "cold.jsonl").read_bytes() == (
        tmp_path / "warm.jsonl"
    ).read_bytes()
