"""Tests for atomic store writes, tolerant loading and sweep resume."""

from __future__ import annotations

import logging

import pytest

from repro.orchestration import (
    BatchRunner,
    RunRequest,
    RunStore,
    execute_request,
    grid_requests,
    plan_resume,
)
from repro.orchestration.store import (
    atomic_write_text,
    canonical_line,
    parse_record_line,
)


@pytest.fixture(scope="module")
def grid():
    return grid_requests(
        scenarios=["single_master", "mixed"],
        modes=["conservative", "als"],
        cycles=80,
    )


@pytest.fixture(scope="module")
def grid_records(grid):
    return BatchRunner(jobs=1).run(grid)


# ---------------------------------------------------------------------------
# Atomic writes.
# ---------------------------------------------------------------------------

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "nested" / "store.jsonl"
    atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in path.parent.iterdir()] == ["store.jsonl"]


def test_write_replaces_and_append_extends_without_tmp_leftovers(
    tmp_path, grid_records
):
    store = RunStore(tmp_path / "runs.jsonl")
    store.write(grid_records[:2])
    store.append(grid_records[2:])
    assert len(store) == len(grid_records)
    assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]
    assert [r.as_dict() for r in store] == [r.as_dict() for r in grid_records]


def test_append_seals_a_pre_existing_torn_tail(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    torn = canonical_line(grid_records[0])[:40]
    path.write_text(torn)  # no trailing newline: a torn non-atomic write
    store = RunStore(path)
    store.append([grid_records[1]])
    records, skipped = store.load_valid()
    assert skipped == 1
    assert [r.as_dict() for r in records] == [grid_records[1].as_dict()]


def test_load_valid_skips_torn_and_tampered_lines(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    good = canonical_line(grid_records[0])
    tampered = canonical_line(grid_records[1]).replace(
        '"monitors_ok":true', '"monitors_ok":false'
    )
    path.write_text(good + "\n" + tampered + "\n" + good[: len(good) // 3] + "\n")
    records, skipped = RunStore(path).load_valid()
    assert skipped == 2
    assert [r.as_dict() for r in records] == [grid_records[0].as_dict()]


def test_scan_reports_byte_offsets_of_damaged_lines(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    good = canonical_line(grid_records[0])
    tampered = canonical_line(grid_records[1]).replace(
        '"monitors_ok":true', '"monitors_ok":false'
    )
    torn_tail = good[: len(good) // 3]
    path.write_text(good + "\n" + tampered + "\n" + torn_tail + "\n")
    scan = RunStore(path).scan()
    assert [r.as_dict() for r in scan.records] == [grid_records[0].as_dict()]
    assert scan.torn_records == 2
    good_bytes = len((good + "\n").encode("utf-8"))
    tampered_bytes = len((tampered + "\n").encode("utf-8"))
    assert [line.offset for line in scan.torn] == [
        good_bytes,
        good_bytes + tampered_bytes,
    ]
    assert scan.torn[0].length == tampered_bytes
    assert all(line.reason for line in scan.torn)


def test_scan_logs_a_warning_per_damaged_line(tmp_path, grid_records, caplog):
    path = tmp_path / "runs.jsonl"
    good = canonical_line(grid_records[0])
    path.write_text(good + "\n" + good[:25] + "\n")
    with caplog.at_level(logging.WARNING, logger="repro.orchestration.store"):
        records, skipped = RunStore(path).load_valid()
    assert len(records) == 1 and skipped == 1
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "byte offset" in message
    assert str(len((good + "\n").encode("utf-8"))) in message


def test_scan_of_a_clean_or_missing_store_logs_nothing(
    tmp_path, grid_records, caplog
):
    clean = RunStore(tmp_path / "clean.jsonl")
    clean.write(grid_records[:2])
    with caplog.at_level(logging.WARNING, logger="repro.orchestration.store"):
        assert clean.scan().torn == []
        assert RunStore(tmp_path / "absent.jsonl").scan().records == []
    assert caplog.records == []


def test_strict_load_names_the_byte_offset_of_a_tampered_line(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    good = canonical_line(grid_records[0])
    tampered = canonical_line(grid_records[1]).replace(
        '"monitors_ok":true', '"monitors_ok":false'
    )
    path.write_text(good + "\n" + tampered + "\n")
    store = RunStore(path)
    offset = len((good + "\n").encode("utf-8"))
    with pytest.raises(ValueError, match=f"byte offset {offset}: .*digest check"):
        store.load()
    with pytest.raises(ValueError, match=f"byte offset {offset}"):
        list(store)


def test_strict_load_rejects_a_torn_line(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    path.write_text(canonical_line(grid_records[0])[:40] + "\n")
    with pytest.raises(ValueError, match="byte offset 0: unparseable"):
        RunStore(path).load()


def test_len_counts_non_blank_lines_without_decoding(tmp_path, grid_records):
    path = tmp_path / "runs.jsonl"
    good = canonical_line(grid_records[0])
    path.write_text(good + "\n\n  \n" + "not json\n" + good)
    assert len(RunStore(path)) == 3
    assert len(RunStore(tmp_path / "absent.jsonl")) == 0


def test_parse_record_line_rejects_garbage():
    with pytest.raises(ValueError):
        parse_record_line("{torn")
    with pytest.raises(ValueError):
        parse_record_line('"a string, not an object"')
    with pytest.raises(ValueError):
        parse_record_line('{"unexpected":"shape"}')


# ---------------------------------------------------------------------------
# plan_resume: reconcile a partial store against the grid.
# ---------------------------------------------------------------------------

def test_plan_resume_empty_store_runs_everything(tmp_path, grid):
    plan = plan_resume(grid, RunStore(tmp_path / "missing.jsonl"))
    assert plan.reusable == {}
    assert [r.request_id for r in plan.missing] == [r.request_id for r in grid]


def test_plan_resume_partial_store(tmp_path, grid, grid_records):
    store = RunStore(tmp_path / "runs.jsonl")
    store.write(grid_records[:2])
    plan = plan_resume(grid, store)
    assert set(plan.reusable) == {r.request_id for r in grid_records[:2]}
    assert [r.request_id for r in plan.missing] == [
        r.request_id for r in grid[2:]
    ]
    assert plan.extra == 0 and plan.skipped == 0


def test_plan_resume_ignores_unrelated_records(tmp_path, grid, grid_records):
    extra = execute_request(
        RunRequest(scenario="single_master", mode="conservative", cycles=33)
    )
    store = RunStore(tmp_path / "runs.jsonl")
    store.write([extra] + grid_records[:1])
    plan = plan_resume(grid, store)
    assert set(plan.reusable) == {grid_records[0].request_id}
    assert plan.extra == 1


def test_resumed_store_is_byte_identical_to_uninterrupted(
    tmp_path, grid, grid_records
):
    full = RunStore(tmp_path / "full.jsonl")
    full.write(grid_records)
    # interrupt after 2 records, with the 3rd torn mid-line
    partial_path = tmp_path / "partial.jsonl"
    lines = [canonical_line(r) for r in grid_records]
    partial_path.write_text(
        lines[0] + "\n" + lines[1] + "\n" + lines[2][: len(lines[2]) // 2]
    )
    partial = RunStore(partial_path)
    plan = plan_resume(grid, partial)
    assert len(plan.reusable) == 2
    assert len(plan.missing) == 2
    assert plan.skipped == 1
    # The plan carries where the damage sits, so drivers can point at it.
    assert plan.torn_offsets == [
        len((lines[0] + "\n" + lines[1] + "\n").encode("utf-8"))
    ]
    executed = BatchRunner(jobs=1).run(plan.missing)
    by_id = dict(plan.reusable)
    for record in executed:
        by_id[record.request_id] = record
    partial.write([by_id[request.request_id] for request in grid])
    assert partial.digest() == full.digest()
