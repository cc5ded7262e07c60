"""Supervised execution: deadlines, retries, quarantine, exit-code taxonomy.

Supervision runs on the fleet's lease-claiming workers, so these tests
spawn real worker processes through :func:`run_fleet` (a hung engine cannot
be un-hung from inside; a chaos kill takes its worker with it).  Runs are
kept tiny and deadlines tight so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.orchestration import (
    EXIT_CODES,
    ChaosConfig,
    ResultCache,
    RunFailure,
    CheckpointPolicy,
    execute_request,
    failures_path,
    ledger_verdict,
    load_failures,
    load_quarantine,
    quarantine_report,
    run_fleet,
    run_worker,
    sweep_exit_code,
    write_failures,
)
from repro.orchestration.request import RunRequest, canonical_json

REQUEST = RunRequest(scenario="als_streaming", mode="als", cycles=120)

#: Conservative mode reaches a safe point at every committed cycle, so a
#: chaos trigger cycle always lands on one -- the right workload for tests
#: that must *guarantee* an injected kill or hang fires.
KILLABLE = RunRequest(scenario="single_master", mode="conservative", cycles=120)

#: The catalog's deterministic-degradation recipe: total loss with a small
#: give-up threshold degrades the channel on the first conservative drive,
#: identically on every attempt.
DEGRADING = RunRequest(
    scenario="mixed",
    mode="als",
    cycles=200,
    channel_faults={"loss_rate": 1.0, "max_attempts": 3},
)


def _canonical(record):
    return canonical_json(record.as_dict())


def supervise(requests, root, **options):
    """Run ``requests`` on a one-worker fleet: ``(records, failures, stats)``."""
    options.setdefault("workers", 1)
    records, stats = run_fleet(requests, root, poll_interval=0.05, **options)
    return records, load_quarantine(root, stats.sweep_id), stats


def supervise_one(request, root, **options):
    """One supervised request: its record, or its :class:`RunFailure`."""
    records, failures, _ = supervise([request], root, **options)
    return records[0] if records else failures[0]


# ---------------------------------------------------------------------------
# Policy, verdict and failure record plumbing (no worker processes).
# ---------------------------------------------------------------------------

def test_policy_validation(tmp_path):
    with pytest.raises(ValueError, match="deadline"):
        run_fleet([KILLABLE], tmp_path, workers=0, deadline=0)
    with pytest.raises(ValueError, match="max_retries"):
        run_fleet([KILLABLE], tmp_path, workers=0, max_retries=-1)
    with pytest.raises(ValueError, match="deadline"):
        run_worker(tmp_path, requests=[KILLABLE], deadline=-1.0)


def test_ledger_verdict_is_the_one_retry_policy():
    killed = {"status": None, "exit_code": -9, "last_committed": None, "error": None}
    # Retries left: run again.
    assert ledger_verdict(KILLABLE, [], max_retries=2) is None
    assert ledger_verdict(KILLABLE, [killed] * 2, max_retries=2) is None
    # 1 + max_retries attempts: poison; a status-less attempt counts as crash.
    poison = ledger_verdict(KILLABLE, [killed] * 3, max_retries=2)
    assert poison.kind == "poison" and poison.attempts == 3
    assert [d["attempt"] for d in poison.detail] == [0, 1, 2]
    assert {d["status"] for d in poison.detail} == {"crash"}
    assert poison.message == "crash after 3 attempt(s)"
    # Zero retries keeps the underlying kind.
    timeout = dict(killed, status="timeout", last_committed=40)
    assert ledger_verdict(KILLABLE, [timeout], max_retries=0).kind == "timeout"
    # Degraded is final at once; the attempt's error becomes the message.
    degraded = dict(killed, status="degraded", exit_code=None, error="gave up")
    verdict = ledger_verdict(DEGRADING, [degraded], max_retries=5)
    assert verdict.kind == "degraded" and verdict.message == "gave up"


def test_run_failure_roundtrip_and_exit_codes():
    failure = RunFailure(
        request_id="ab" * 6,
        label="p=0.9",
        scenario="mixed",
        mode="als",
        kind="timeout",
        attempts=3,
        message="deadline blown",
        detail=[{"attempt": 0, "status": "timeout"}],
    )
    assert failure.exit_code == EXIT_CODES["timeout"] == 10
    assert RunFailure.from_dict(failure.as_dict()) == failure
    with pytest.raises(ValueError, match="unknown failure kind"):
        RunFailure(
            request_id="x", label="", scenario="s", mode="als",
            kind="mystery", attempts=1, message="",
        )
    with pytest.raises(ValueError, match="schema"):
        RunFailure.from_dict({"kind": "timeout"})


def test_exit_codes_are_distinct_and_nonzero():
    codes = list(EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert all(code not in (0, 1, 2) for code in codes)  # clear of argparse/errors


def test_sweep_exit_code_picks_most_severe():
    def failure(kind):
        return RunFailure(
            request_id="x", label="", scenario="s", mode="als",
            kind=kind, attempts=1, message="",
        )

    assert sweep_exit_code([]) == 0
    assert sweep_exit_code([failure("degraded")]) == EXIT_CODES["degraded"]
    assert sweep_exit_code([failure("degraded"), failure("timeout")]) == EXIT_CODES["timeout"]
    assert (
        sweep_exit_code([failure("timeout"), failure("poison"), failure("crash")])
        == EXIT_CODES["poison"]
    )


def test_failures_sidecar_roundtrip(tmp_path):
    store_path = tmp_path / "runs.jsonl"
    sidecar = failures_path(store_path)
    assert sidecar.name == "runs.jsonl.failures"
    failures = [
        RunFailure(
            request_id="ab" * 6, label="a", scenario="s", mode="als",
            kind="poison", attempts=3, message="boom",
        ),
        RunFailure(
            request_id="cd" * 6, label="b", scenario="s", mode="als",
            kind="degraded", attempts=1, message="gave up",
        ),
    ]
    write_failures(sidecar, failures)
    assert load_failures(sidecar) == failures
    report = quarantine_report(failures)
    assert report["total"] == 2
    assert report["by_kind"] == {"degraded": 1, "poison": 1}
    # Empty list removes the sidecar (a healthy re-run cleans up after an
    # earlier failed one).
    write_failures(sidecar, [])
    assert not sidecar.exists()
    assert load_failures(sidecar) == []


# ---------------------------------------------------------------------------
# Supervised execution (fleet worker processes).
# ---------------------------------------------------------------------------

def test_supervised_success_matches_plain_execution(tmp_path):
    outcome = supervise_one(REQUEST, tmp_path)
    assert not isinstance(outcome, RunFailure)
    assert _canonical(outcome) == _canonical(execute_request(REQUEST))


def test_supervised_retry_resumes_after_chaos_kill(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0)  # SIGKILL mid-run, once
    records, failures, stats = supervise(
        [KILLABLE],
        tmp_path,
        checkpoint=CheckpointPolicy(every_cycles=25),
        chaos=chaos,
    )
    assert not failures
    assert [_canonical(r) for r in records] == [_canonical(execute_request(KILLABLE))]
    assert stats.restarts == 1
    assert sum(w.resumed for w in stats.workers) == 1  # from the snapshot


def test_supervised_poison_after_exhausted_retries(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)  # every attempt
    outcome = supervise_one(KILLABLE, tmp_path, chaos=chaos, max_retries=2)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"
    assert outcome.attempts == 3
    assert outcome.exit_code == EXIT_CODES["poison"]
    assert [d["attempt"] for d in outcome.detail] == [0, 1, 2]
    assert all(d["exit_code"] == -9 for d in outcome.detail)  # SIGKILLed


def test_supervised_zero_retries_keeps_underlying_kind(tmp_path):
    chaos = ChaosConfig(seed=0, kill_probability=1.0, once=False)
    outcome = supervise_one(KILLABLE, tmp_path, chaos=chaos, max_retries=0)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "crash"  # not escalated to poison: no retry burned
    assert outcome.attempts == 1


def test_supervised_timeout_kills_a_hung_run(tmp_path):
    chaos = ChaosConfig(
        seed=0, hang_probability=1.0, hang_seconds=60.0, once=False
    )
    outcome = supervise_one(
        KILLABLE, tmp_path, chaos=chaos, deadline=1.5, max_retries=1
    )
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "poison"  # retried, hung again, quarantined
    assert all(d["status"] == "timeout" for d in outcome.detail)
    assert all(d["exit_code"] == -9 for d in outcome.detail)  # self-SIGKILL
    # The worker recorded how far the hung run got.
    assert all(d["last_committed"] is not None for d in outcome.detail)


def test_supervised_degradation_is_never_retried(tmp_path):
    outcome = supervise_one(DEGRADING, tmp_path, max_retries=3)
    assert isinstance(outcome, RunFailure)
    assert outcome.kind == "degraded"
    assert outcome.attempts == 1  # deterministic: retrying cannot help
    assert "channel degraded" in outcome.message
    assert outcome.exit_code == EXIT_CODES["degraded"]


def test_supervised_failure_record_is_deterministic(tmp_path):
    chaos = ChaosConfig(seed=3, kill_probability=1.0, once=False)

    def quarantine(subdir):
        outcome = supervise_one(
            KILLABLE, tmp_path / subdir, chaos=chaos, max_retries=1
        )
        assert isinstance(outcome, RunFailure)
        return canonical_json(outcome.as_dict())

    assert quarantine("a") == quarantine("b")  # wall-clock free by design


# ---------------------------------------------------------------------------
# Grids.
# ---------------------------------------------------------------------------

def test_batch_partitions_grid_into_records_and_failures(tmp_path):
    healthy = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    requests = [healthy, DEGRADING, REQUEST]
    records, failures, _ = supervise(
        requests, tmp_path, workers=2, max_retries=1
    )
    assert [r.request_id for r in records] == [
        healthy.request_id, REQUEST.request_id
    ]  # grid order, failure excised
    assert [f.request_id for f in failures] == [DEGRADING.request_id]
    assert failures[0].kind == "degraded"
    serial = [execute_request(healthy), execute_request(REQUEST)]
    assert [_canonical(r) for r in records] == [_canonical(r) for r in serial]


def test_batch_cache_hits_bypass_supervision_and_fresh_runs_fill_it(tmp_path):
    cache = ResultCache(tmp_path)
    warm = execute_request(REQUEST)
    cache.put(warm)
    records, failures, stats = supervise([REQUEST], tmp_path)
    assert not failures
    assert stats.total("executed") == 0
    assert _canonical(records[0]) == _canonical(warm)

    other = RunRequest(scenario="single_master", mode="conservative", cycles=80)
    supervise([other], tmp_path)
    assert ResultCache(tmp_path).get(other) is not None  # fresh success cached
