"""Record/request encoding equals the ``dataclasses.asdict`` reference.

Records and requests are encoded with one shallow pass over their fields.
The reference encoder below is the historical deep-copying one; every byte
the store, the cache and the request ids depend on must match it exactly.
Stored lines are verified against their own bytes; the reference
re-encoding check below shows that this accepts nothing the old check
rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def reference_accepts(line: str) -> bool:
    """The historical read check: parse, re-encode, compare the digest."""
    payload = json.loads(line)
    digest = payload.pop("digest")
    return _sha256(_reference_json(payload))[:16] == digest


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


# ---------------------------------------------------------------------------
# Lines are verified against their own bytes: damage is rejected, never
# re-encoded into something that passes.
# ---------------------------------------------------------------------------


def _without_digest(line: str) -> str:
    payload = json.loads(line)
    del payload["digest"]
    return _reference_json(payload)


def _spaced(line: str) -> str:
    return json.dumps(json.loads(line), sort_keys=True)


def test_a_line_without_a_digest_is_rejected(tmp_path, records):
    line = _without_digest(canonical_line(records[0]))
    with pytest.raises(ValueError, match="record schema"):
        parse_record_line(line)
    good = canonical_line(records[1])
    store = RunStore(tmp_path / "runs.jsonl")
    store.path.write_text(good + "\n" + line + "\n")
    with pytest.raises(ValueError, match=f"byte offset {len(good) + 1}"):
        store.load()
    scan = store.scan()
    assert [canonical_line(r) for r in scan.records] == [good]
    assert [(t.offset, t.length) for t in scan.torn] == [(len(good) + 1, len(line) + 1)]


def test_a_non_canonical_line_is_rejected(tmp_path, records):
    line = canonical_line(records[0])
    spaced = _spaced(line)
    assert spaced != line and json.loads(spaced) == json.loads(line)
    assert reference_accepts(spaced)  # the old check re-encoded and passed it
    with pytest.raises(ValueError, match="digest member"):
        parse_record_line(spaced)
    store = RunStore(tmp_path / "runs.jsonl")
    store.path.write_text(spaced + "\n")
    with pytest.raises(ValueError, match="byte offset 0"):
        list(store)
    assert store.load_valid() == ([], 1)


def test_an_empty_or_non_string_digest_is_rejected(records):
    line = canonical_line(records[0])
    digest_member = f'"digest":"{records[0].digest}"'
    for replacement in ('"digest":""', '"digest":0', '"digest":null'):
        with pytest.raises(ValueError):
            parse_record_line(line.replace(digest_member, replacement))


def test_an_unmutated_line_round_trips(records):
    for record in records:
        line = canonical_line(record)
        loaded = parse_record_line(line)
        assert loaded.as_dict() == record.as_dict(), record.label
        assert loaded == record, record.label
        assert canonical_line(loaded) == line, record.label
        assert loaded.compute_digest() == record.digest, record.label


@st.composite
def mutated_lines(draw, lines):
    """One canonical line with one byte substituted, inserted or deleted."""
    data = draw(st.sampled_from(lines)).encode("utf-8")
    kind = draw(st.sampled_from(["substitute", "insert", "delete"]))
    byte = bytes([draw(st.integers(0, 255))])
    if kind == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + byte + data[at:]
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + (byte if kind == "substitute" else b"") + data[at + 1:]


@pytest.fixture(scope="module")
def lines(records):
    return [canonical_line(record) for record in records]


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_byte_verification_is_no_looser_than_re_encoding(lines, data):
    mutated = data.draw(mutated_lines(lines))
    try:
        line = mutated.decode("utf-8")
        record = parse_record_line(line)
    except ValueError:  # includes UnicodeDecodeError
        return
    assert canonical_line(record) == line
    assert reference_accepts(line)
