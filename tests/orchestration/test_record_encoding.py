"""Record/request encoding equals the ``dataclasses.asdict`` reference.

Records and requests are encoded with one shallow pass over their fields.
The reference encoder below is the historical deep-copying one; every byte
the store, the cache and the request ids depend on must match it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.channel.faults import ChannelFaultConfig
from repro.core.topology import Topology
from repro.orchestration import (
    BatchRunner,
    ResultCache,
    RunRecord,
    RunRequest,
    RunStore,
)
from repro.orchestration.store import canonical_line, parse_record_line
from repro.workloads.catalog import scenario_names

# ---------------------------------------------------------------------------
# The reference encoder: deep copy via dataclasses.asdict, then sorted JSON.
# ---------------------------------------------------------------------------


def _reference_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_line(record: RunRecord) -> str:
    return _reference_json(dataclasses.asdict(record))


def reference_digest(record: RunRecord) -> str:
    payload = dataclasses.asdict(record)
    del payload["digest"]
    return _sha256(_reference_json(payload))[:16]


def reference_request_id(request: RunRequest) -> str:
    payload = dataclasses.asdict(request)
    payload["scenario_params"] = dict(request.scenario_params)
    payload["config_overrides"] = dict(request.config_overrides)
    for key in ("topology", "channel_faults"):
        if getattr(request, key) is None:
            del payload[key]
        else:
            payload[key] = dict(getattr(request, key))
    return _sha256(_reference_json(payload))[:12]


# ---------------------------------------------------------------------------
# Fixtures: real records from every catalog scenario.
# ---------------------------------------------------------------------------

_FAULTS = ChannelFaultConfig(loss_rate=0.05, seed=3).as_dict()


@pytest.fixture(scope="module")
def records():
    requests = [
        RunRequest(scenario=name, mode=mode, cycles=60)
        for name in scenario_names()
        for mode in ("conservative", "als")
    ]
    requests.append(
        RunRequest(
            scenario="als_streaming",
            mode="conservative",
            cycles=120,
            engine="conventional_trace",
        )
    )
    requests.append(
        RunRequest(scenario="mixed", mode="als", cycles=80, channel_faults=_FAULTS)
    )
    return BatchRunner(jobs=1).run(requests)


def test_fixture_covers_trace_and_fault_counters(records):
    assert any(record.trace_replay for record in records)
    assert any("faults" in record.channel for record in records)


def test_canonical_line_and_digest_match_the_reference(records):
    for record in records:
        assert canonical_line(record) == reference_line(record), record.label
        assert record.compute_digest() == reference_digest(record), record.label
        assert record.digest == reference_digest(record), record.label


def test_as_dict_matches_the_reference(records):
    for record in records:
        assert record.as_dict() == dataclasses.asdict(record)
        assert list(record.as_dict()) == [f.name for f in dataclasses.fields(record)]


def test_request_id_matches_the_reference():
    requests = [
        RunRequest(scenario="mixed"),
        RunRequest(
            scenario="mixed",
            mode="conservative",
            accuracy=0.9,
            scenario_params={"n_transactions": 12},
            config_overrides={"simulator_cycles_per_second": 2.5e6},
        ),
        RunRequest(scenario="mixed", topology=Topology.canonical_pair().as_dict()),
        RunRequest(scenario="mixed", channel_faults=_FAULTS),
        RunRequest(
            scenario="single_master",
            engine="als_trace",
            scenario_params={"seed": 5},
            topology=Topology.canonical_pair().as_dict(),
            channel_faults=_FAULTS,
            label="everything",
        ),
    ]
    assert len({request.request_id for request in requests}) == len(requests)
    for request in requests:
        assert request.request_id == reference_request_id(request)
        assert RunRequest.from_dict(request.as_dict()).request_id == request.request_id


# ---------------------------------------------------------------------------
# Kept lines: a loaded record re-emits exactly the bytes it was read from.
# ---------------------------------------------------------------------------


def test_record_loaded_from_a_shard_re_emits_its_line(tmp_path, records):
    root = tmp_path / "cache"
    ResultCache(root).put_many(records)
    reader = ResultCache(root)
    lines = [
        line
        for shard in sorted(root.glob("*.jsonl"))
        for line in shard.read_text().splitlines()
    ]
    assert len(lines) == len(records)
    for line in lines:
        request_id = json.loads(line)["request_id"]
        assert canonical_line(reader.get(request_id)) == line
        assert canonical_line(parse_record_line(line)) == line


def test_store_write_load_write_is_byte_stable(tmp_path, records):
    first = RunStore(tmp_path / "first.jsonl")
    second = RunStore(tmp_path / "second.jsonl")
    first.write(records)
    second.write(first.load())
    assert first.digest() == second.digest()
    assert (tmp_path / "first.jsonl").read_text() == "".join(
        reference_line(record) + "\n" for record in records
    )


def test_records_are_frozen(records):
    record = records[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.performance = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.digest = "0" * 16
    assert canonical_line(record) == reference_line(record)
