"""Durable whole-engine snapshots: format, integrity checks, kill-resume.

The contract under test is the repository's strongest durability claim: an
engine snapshotted at a safe point and resumed in a fresh process finishes
with a record *bit-identical* (canonical JSON, digests included) to an
uninterrupted run.  The format tests pin the container down so a torn,
truncated or tampered file is always rejected, never silently resumed.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.coemulation import CoEmulationEngineBase
from repro.core.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    AbortRun,
    SnapshotError,
    SnapshotMeta,
    load_engine,
    read_snapshot,
    write_snapshot,
)
from repro.orchestration.request import (
    RunRequest,
    build_request_engine,
    canonical_json,
    record_from_result,
)


def _record(request, engine):
    return record_from_result(request, request.engine_name(), engine.run())


class _AbortAt:
    """A run hook that parks the engine at the first safe point >= cycle."""

    def __init__(self, cycle: int) -> None:
        self.cycle = cycle

    def __call__(self, engine) -> None:
        if engine.ledger.committed_cycles >= self.cycle:
            raise AbortRun(f"test abort at {engine.ledger.committed_cycles}")


def _interrupt(request: RunRequest, at_cycle: int):
    """Run ``request``'s engine until ``at_cycle`` and return it parked."""
    engine = build_request_engine(request)
    assert isinstance(engine, CoEmulationEngineBase)
    engine.run_hook = _AbortAt(at_cycle)
    with pytest.raises(AbortRun):
        engine.run()
    engine.run_hook = None
    return engine


# ---------------------------------------------------------------------------
# Container format and integrity checks.
# ---------------------------------------------------------------------------

def test_snapshot_file_layout_and_meta(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    path = tmp_path / "run.snap"
    meta = write_snapshot(path, engine, request_id=request.request_id)
    data = path.read_bytes()
    assert data.startswith(SNAPSHOT_MAGIC)
    assert meta.version == SNAPSHOT_VERSION
    assert meta.committed_cycles >= 20
    assert meta.total_cycles == 60
    assert meta.request_id == request.request_id
    assert meta.payload_length == len(data) - data.find(b"\n", len(SNAPSHOT_MAGIC)) - 1

    loaded_meta, loaded_engine = read_snapshot(path)
    assert loaded_meta == meta
    assert type(loaded_engine).__name__ == meta.engine


def test_snapshot_of_same_state_is_byte_identical(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    write_snapshot(tmp_path / "a.snap", engine, request_id=request.request_id)
    write_snapshot(tmp_path / "b.snap", engine, request_id=request.request_id)
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


def test_read_snapshot_missing_file(tmp_path):
    with pytest.raises(SnapshotError, match="no snapshot"):
        read_snapshot(tmp_path / "nope.snap")


def test_read_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"not a snapshot at all\n")
    with pytest.raises(SnapshotError, match="bad magic"):
        read_snapshot(path)


def test_read_snapshot_rejects_truncated_payload(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    path = tmp_path / "run.snap"
    write_snapshot(path, engine)
    data = path.read_bytes()
    path.write_bytes(data[:-40])  # a crashed writer's torn tail
    with pytest.raises(SnapshotError, match="truncated|byte"):
        read_snapshot(path)


def test_read_snapshot_rejects_flipped_payload_byte(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    path = tmp_path / "run.snap"
    write_snapshot(path, engine)
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF  # silent disk corruption in the pickle
    path.write_bytes(bytes(data))
    with pytest.raises(SnapshotError, match="digest"):
        read_snapshot(path)


def test_read_snapshot_rejects_future_version(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    path = tmp_path / "run.snap"
    meta = write_snapshot(path, engine)
    data = path.read_bytes()
    header_end = data.find(b"\n", len(SNAPSHOT_MAGIC))
    bumped = dict(meta.as_dict(), version=SNAPSHOT_VERSION + 1)
    import json

    new_header = json.dumps(bumped, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(SNAPSHOT_MAGIC + new_header + data[header_end:])
    with pytest.raises(SnapshotError, match="format v2"):
        read_snapshot(path)


def test_meta_from_dict_rejects_missing_fields():
    with pytest.raises(SnapshotError, match="schema"):
        SnapshotMeta.from_dict({"version": 1})


def test_write_refuses_mid_transition_state(tmp_path):
    """An outstanding rollback checkpoint means we are not at a safe point."""
    request = RunRequest(scenario="als_streaming", mode="als", cycles=120)
    engine = _interrupt(request, at_cycle=30)
    host = engine._host_list[0]
    host.checkpoints.store(999)  # simulate an in-flight speculation window
    with pytest.raises(SnapshotError, match="safe point"):
        write_snapshot(tmp_path / "unsafe.snap", engine)


def test_snapshot_strips_hook_and_restores_it(tmp_path):
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    sentinel = _AbortAt(10**9)
    engine.run_hook = sentinel
    write_snapshot(tmp_path / "run.snap", engine)
    assert engine.run_hook is sentinel  # writer put the caller's hook back
    assert load_engine(tmp_path / "run.snap").run_hook is None


# ---------------------------------------------------------------------------
# Kill-resume bit-identity.
# ---------------------------------------------------------------------------

RESUME_POINTS = [
    pytest.param(
        RunRequest(scenario="single_master", mode="conservative", cycles=90),
        30,
        id="conservative",
    ),
    pytest.param(
        RunRequest(scenario="als_streaming", mode="als", cycles=150, accuracy=0.9),
        60,
        id="als",
    ),
    pytest.param(
        RunRequest(scenario="dual_accelerator_pipeline", mode="als", cycles=150),
        50,
        id="multi-domain",
    ),
    pytest.param(
        RunRequest(scenario="lossy_streaming", mode="als", cycles=150),
        60,
        id="faulty-channel",
    ),
    pytest.param(
        RunRequest(scenario="mixed", mode="als", cycles=150, engine="als_batch"),
        50,
        id="batch-engine",
    ),
    pytest.param(
        RunRequest(
            scenario="sparse_telemetry",
            mode="conservative",
            cycles=200,
            engine="conventional_trace",
        ),
        80,
        id="trace-engine",
    ),
]


@pytest.mark.parametrize("request_, at_cycle", RESUME_POINTS)
def test_kill_resume_is_bit_identical(tmp_path, request_, at_cycle):
    baseline = _record(request_, build_request_engine(request_))

    interrupted = _interrupt(request_, at_cycle=at_cycle)
    path = tmp_path / "run.snap"
    meta = write_snapshot(path, interrupted, request_id=request_.request_id)
    assert 0 < meta.committed_cycles < request_.cycles
    del interrupted  # the "killed" process's memory is gone

    resumed = CoEmulationEngineBase.restore(path)
    record = _record(request_, resumed)
    assert canonical_json(record.as_dict()) == canonical_json(baseline.as_dict())
    assert record.digest == baseline.digest


def test_double_interrupt_resume_is_bit_identical(tmp_path):
    """Two successive kill-resume hops lose nothing either."""
    request = RunRequest(scenario="als_streaming", mode="als", cycles=180)
    baseline = _record(request, build_request_engine(request))

    engine = _interrupt(request, at_cycle=40)
    write_snapshot(tmp_path / "one.snap", engine)
    engine = load_engine(tmp_path / "one.snap")
    engine.run_hook = _AbortAt(110)
    with pytest.raises(AbortRun):
        engine.run()
    engine.run_hook = None
    write_snapshot(tmp_path / "two.snap", engine)

    record = _record(request, load_engine(tmp_path / "two.snap"))
    assert canonical_json(record.as_dict()) == canonical_json(baseline.as_dict())


def test_restore_rejects_non_engine_pickle(tmp_path):
    """restore() type-checks what the snapshot actually holds."""
    request = RunRequest(scenario="single_master", mode="conservative", cycles=60)
    engine = _interrupt(request, at_cycle=20)
    path = tmp_path / "run.snap"
    write_snapshot(path, engine)
    # Re-wrap the file around a payload that is not an engine at all.
    payload = pickle.dumps({"not": "an engine"})
    import hashlib
    import json

    meta = dict(
        SnapshotMeta(
            version=SNAPSHOT_VERSION,
            engine="dict",
            committed_cycles=0,
            total_cycles=0,
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload_length=len(payload),
        ).as_dict()
    )
    header = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(SNAPSHOT_MAGIC + header + b"\n" + payload)
    with pytest.raises(SnapshotError, match="holds a dict"):
        CoEmulationEngineBase.restore(path)
