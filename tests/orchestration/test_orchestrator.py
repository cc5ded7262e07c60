"""Tests for the batch-run orchestrator (requests, runner, store)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import OperatingMode
from repro.orchestration import (
    BatchRunner,
    RunRecord,
    RunRequest,
    RunStore,
    derive_seed,
    execute_request,
    grid_requests,
)
from repro.orchestration.store import canonical_line


# ---------------------------------------------------------------------------
# RunRequest
# ---------------------------------------------------------------------------

def test_request_builds_config():
    request = RunRequest(
        scenario="als_streaming",
        mode="sla",
        cycles=123,
        lob_depth=8,
        accuracy=0.9,
        seed=99,
        config_overrides={"predict_new_remote_bursts": False},
    )
    config = request.build_config()
    assert config.mode is OperatingMode.SLA
    assert config.total_cycles == 123
    assert config.lob_depth == 8
    assert config.forced_accuracy == 0.9
    assert config.forced_accuracy_seed == 99
    assert config.predict_new_remote_bursts is False


def test_request_id_is_stable_and_payload_sensitive():
    a = RunRequest(scenario="mixed", mode="als", cycles=100)
    b = RunRequest(scenario="mixed", mode="als", cycles=100)
    c = RunRequest(scenario="mixed", mode="als", cycles=101)
    assert a.request_id == b.request_id
    assert a.request_id != c.request_id


def test_engine_name_resolution():
    assert RunRequest(scenario="mixed", mode="conservative").engine_name() == "conventional"
    assert RunRequest(scenario="mixed", mode="auto").engine_name() == "optimistic"
    assert RunRequest(scenario="mixed", mode="als", engine="analytical").engine_name() == "analytical"


def test_derive_seed_deterministic_and_coordinate_sensitive():
    s1 = derive_seed(2005, "mixed", "als", 0.9, 64)
    s2 = derive_seed(2005, "mixed", "als", 0.9, 64)
    s3 = derive_seed(2005, "mixed", "als", 0.8, 64)
    s4 = derive_seed(7, "mixed", "als", 0.9, 64)
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


def test_grid_requests_order_and_seeds():
    requests = grid_requests(
        scenarios=["als_streaming", "mixed"],
        modes=["conservative", "als"],
        accuracies=[None, 0.9],
        cycles=100,
    )
    assert len(requests) == 8
    # nested product order: scenario-major
    assert [r.scenario for r in requests[:4]] == ["als_streaming"] * 4
    assert requests[0].mode == "conservative" and requests[2].mode == "als"
    # per-request seeds are deterministic functions of the coordinates
    again = grid_requests(
        scenarios=["als_streaming", "mixed"],
        modes=["conservative", "als"],
        accuracies=[None, 0.9],
        cycles=100,
    )
    assert [r.seed for r in requests] == [r.seed for r in again]
    # a filtered grid keeps the same seed for the same point
    only_mixed = grid_requests(
        scenarios=["mixed"], modes=["als"], accuracies=[0.9], cycles=100
    )
    matching = [
        r for r in requests
        if r.scenario == "mixed" and r.mode == "als" and r.accuracy == 0.9
    ]
    assert matching[0].seed == only_mixed[0].seed


# ---------------------------------------------------------------------------
# execute_request / RunRecord
# ---------------------------------------------------------------------------

def test_execute_request_produces_deterministic_record():
    request = RunRequest(
        scenario="mixed",
        mode="als",
        cycles=150,
        accuracy=0.9,
        scenario_params={"n_transactions": 12},
    )
    first = execute_request(request)
    second = execute_request(request)
    assert first.as_dict() == second.as_dict()
    assert first.digest == second.digest
    assert first.committed_cycles >= 150
    assert first.engine == "optimistic"
    assert first.monitors_ok


def test_execute_request_analytical_engine_needs_no_mechanism():
    record = execute_request(
        RunRequest(scenario="mixed", mode="als", cycles=100, engine="analytical")
    )
    assert record.engine == "analytical"
    assert record.channel == {}
    assert record.performance > 0


def test_record_digest_detects_tampering():
    record = execute_request(RunRequest(scenario="single_master", mode="conservative", cycles=60))
    assert record.digest == record.compute_digest()
    tampered = dataclasses.replace(
        record, performance=record.performance + 1.0, digest=record.digest
    )
    assert tampered.digest != tampered.compute_digest()


# ---------------------------------------------------------------------------
# BatchRunner: parallel == serial
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid():
    return grid_requests(
        scenarios=["single_master", "mixed"],
        modes=["conservative", "als"],
        accuracies=[None, 0.9],
        cycles=120,
    )


def test_parallel_matches_serial_row_for_row(small_grid):
    serial = BatchRunner(jobs=1).run(small_grid)
    parallel = BatchRunner(jobs=4).run(small_grid)
    assert len(serial) == len(parallel) == len(small_grid)
    for left, right in zip(serial, parallel):
        assert left.as_dict() == right.as_dict()
    assert [r.digest for r in serial] == [r.digest for r in parallel]


def test_parallel_store_bytes_identical(tmp_path, small_grid):
    serial_store = RunStore(tmp_path / "serial.jsonl")
    parallel_store = RunStore(tmp_path / "parallel.jsonl")
    serial_store.write(BatchRunner(jobs=1).run(small_grid))
    parallel_store.write(BatchRunner(jobs=4).run(small_grid))
    assert serial_store.digest() == parallel_store.digest()
    assert (tmp_path / "serial.jsonl").read_bytes() == (
        tmp_path / "parallel.jsonl"
    ).read_bytes()


def test_runner_progress_callback_sees_every_record(small_grid):
    seen = []
    BatchRunner(jobs=2).run(
        small_grid, progress=lambda done, total, record: seen.append((done, total))
    )
    assert len(seen) == len(small_grid)
    assert seen[-1] == (len(small_grid), len(small_grid))


# ---------------------------------------------------------------------------
# RunStore
# ---------------------------------------------------------------------------

def test_store_round_trip(tmp_path):
    records = BatchRunner().run(
        [RunRequest(scenario="single_master", mode="conservative", cycles=50)]
    )
    store = RunStore(tmp_path / "runs.jsonl")
    assert store.write(records) == 1
    loaded = store.load()
    assert len(loaded) == len(store) == 1
    assert isinstance(loaded[0], RunRecord)
    assert loaded[0].as_dict() == records[0].as_dict()


def test_store_append(tmp_path):
    store = RunStore(tmp_path / "runs.jsonl")
    record = execute_request(RunRequest(scenario="single_master", mode="conservative", cycles=50))
    store.write([record])
    store.append([record])
    assert len(store) == 2


def test_canonical_line_is_valid_sorted_json():
    record = execute_request(RunRequest(scenario="single_master", mode="conservative", cycles=50))
    line = canonical_line(record)
    payload = json.loads(line)
    assert list(payload) == sorted(payload)
    assert payload["digest"] == record.digest


# ---------------------------------------------------------------------------
# Channel-fault axis
# ---------------------------------------------------------------------------

def test_fault_free_request_omits_channel_faults_from_canonical_payload():
    """Ideal requests must keep their historical ids (the fault axis is new)."""
    request = RunRequest(scenario="mixed", mode="als", cycles=100)
    assert "channel_faults" not in request.as_dict()


def test_channel_faults_change_the_request_id():
    from repro.channel.faults import ChannelFaultConfig

    ideal = RunRequest(scenario="mixed", mode="als", cycles=100)
    faults = ChannelFaultConfig(loss_rate=0.05, seed=3).as_dict()
    faulty = RunRequest(scenario="mixed", mode="als", cycles=100, channel_faults=faults)
    assert ideal.request_id != faulty.request_id
    assert faulty.as_dict()["channel_faults"] == faults


def test_channel_faults_round_trip_through_build_config():
    from repro.channel.faults import ChannelFaultConfig

    faults = ChannelFaultConfig(loss_rate=0.1, duplicate_rate=0.05, seed=11)
    request = RunRequest(scenario="mixed", channel_faults=faults.as_dict())
    assert request.channel_faults_override() == faults
    assert request.build_config().channel_faults == faults


def test_invalid_channel_faults_payload_rejected():
    from repro.channel.faults import ChannelFaultConfigError

    request = RunRequest(scenario="mixed", channel_faults={"loss_rtae": 0.1})
    with pytest.raises(ChannelFaultConfigError):
        request.channel_faults_override()


def test_grid_requests_thread_channel_faults_into_every_request():
    from repro.channel.faults import ChannelFaultConfig

    faults = ChannelFaultConfig(loss_rate=0.02, seed=5).as_dict()
    requests = grid_requests(
        ["mixed"], ["conservative", "als"], cycles=50, channel_faults=faults
    )
    assert len(requests) == 2
    assert all(r.channel_faults == faults for r in requests)
