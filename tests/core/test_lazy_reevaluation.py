"""Lazy re-evaluation of the discarded run-ahead tail (host-only re-use).

After a misprediction at LOB index *f*, the optimistic engine keeps the
leader's run-ahead cycles *f*+1.. and lets the next transition adopt them
instead of recomputing them.  The contract: every record byte, path trace
entry, modelled quantity and host's end state (bus registers, memories,
transaction streams, predictor) is identical to the plain rollback path
(``lazy_reevaluation = False``).  Each grid case that rolls back must also
really adopt a tail, so the equality cannot hold vacuously.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.ahb.master import TrafficMaster
from repro.ahb.slave import MemorySlave
from repro.core import CoEmulationConfig, OperatingMode
from repro.core.optimistic import OptimisticCoEmulation
from repro.core.snapshot import AbortRun, load_engine, write_snapshot
from repro.orchestration.request import RunRequest, build_request_engine, record_from_result
from repro.orchestration.store import canonical_line
from repro.sim.checkpoint import CheckpointManager, StateCostModel
from repro.workloads.soc import als_streaming_soc

SCENARIOS = (
    "als_streaming",
    "sla_streaming",
    "mixed",
    "single_master",
    "dual_accelerator_pipeline",  # three domains
)
MODES = ("als", "sla", "auto")
ACCURACIES = (0.5, 0.8, 0.95)
LOB_DEPTHS = (4, 16, 64)
PRESETS = (None, "als_batch")  # None = the mode default, ``optimistic``


def _end_state(engine) -> str:
    """Digest of every host's state beyond the record: registered bus
    state, memory words, cycle records, the transaction streams and the
    predictor (hashed, so a mismatch reports quickly)."""
    parts = []
    for host in engine.hosts.values():
        hbm = host.hbm
        parts.append(
            (
                hbm.snapshot_state(),
                list(hbm.records),
                hbm.recorder.transactions,
                [
                    master.completed_transactions
                    for master in hbm.local_masters.values()
                    if isinstance(master, TrafficMaster)
                ],
                host.predictor.snapshot_state(),
            )
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _run(request: RunRequest, lazy: bool):
    engine = build_request_engine(request)
    engine.lazy_reevaluation = lazy
    result = engine.run()
    line = canonical_line(record_from_result(request, request.engine_name(), result))
    return (line, _end_state(engine)), result, engine


@pytest.mark.parametrize(
    "scenario,mode,accuracy,lob_depth,preset",
    list(itertools.product(SCENARIOS, MODES, ACCURACIES, LOB_DEPTHS, PRESETS)),
)
def test_records_are_identical_with_the_tail_reuse_on_and_off(
    scenario, mode, accuracy, lob_depth, preset
):
    request = RunRequest(
        scenario=scenario,
        mode=mode,
        cycles=240,
        lob_depth=lob_depth,
        accuracy=accuracy,
        seed=7,
        engine=preset,
    )
    off, _, _ = _run(request, lazy=False)
    on, result, engine = _run(request, lazy=True)
    assert on == off
    if result.transitions["rollbacks"]:
        assert engine.lazy_stats.tails_adopted > 0
        assert engine.lazy_stats.cycles_adopted > 0


def test_rejected_tails_fall_back_to_recomputation():
    """Real mispredictions keep no tail, and a kept tail whose next
    transition does not recompute it exactly is dropped; both stay
    bit-identical."""
    request = RunRequest(
        scenario="interrupt_control", mode="als", cycles=400, lob_depth=16, accuracy=0.8, seed=3
    )
    off, _, _ = _run(request, lazy=False)
    on, result, engine = _run(request, lazy=True)
    assert on == off
    stats = engine.lazy_stats
    assert result.prediction["real_failures"] > 0
    assert result.transitions["rollbacks"] > stats.tails_kept
    assert stats.tails_kept > stats.tails_adopted > 0


def test_path_trace_is_identical_with_the_tail_reuse_on_and_off():
    traces = []
    for lazy in (False, True):
        partition = als_streaming_soc(n_bursts=20).build_partition()
        config = CoEmulationConfig(
            mode=OperatingMode.ALS, total_cycles=300, forced_accuracy=0.8, forced_accuracy_seed=5
        )
        engine = OptimisticCoEmulation(partition, config, trace_paths=True)
        engine.lazy_reevaluation = lazy
        engine.run()
        traces.append([(e.domain, e.cycle, e.path) for e in engine.trace.entries])
    assert engine.lazy_stats.tails_adopted > 0
    assert traces[0] == traces[1]


class _AbortWithPendingTail:
    """Run hook: park the engine at the first safe point with a kept tail."""

    def __call__(self, engine) -> None:
        if engine._tail is not None:
            raise AbortRun("tail pending")


@pytest.mark.parametrize("drop_tail", [False, True])
def test_snapshot_with_a_pending_tail_resumes_bit_identically(tmp_path, drop_tail):
    request = RunRequest(scenario="als_streaming", mode="als", cycles=300, accuracy=0.8, seed=11)
    reference, _, _ = _run(request, lazy=True)

    engine = build_request_engine(request)
    engine.run_hook = _AbortWithPendingTail()
    with pytest.raises(AbortRun):
        engine.run()
    engine.run_hook = None
    path = tmp_path / "pending.snap"
    write_snapshot(path, engine, request_id=request.request_id)

    resumed = load_engine(path)
    assert resumed._tail is not None  # the tail travelled in the pickle
    if drop_tail:
        resumed._tail = None
    adopted = []  # tails adopted so far, at each safe point
    resumed.run_hook = lambda engine: adopted.append(engine.lazy_stats.tails_adopted)
    result = resumed.run()
    line = canonical_line(record_from_result(request, request.engine_name(), result))
    assert (line, _end_state(resumed)) == reference
    # The first transition after the resume adopts the pending tail unless
    # it was dropped.
    assert adopted[1] - adopted[0] == (0 if drop_tail else 1)


def test_memory_redo_journals_into_the_open_window():
    """rewind(redo=True) then a re-executed prefix then redo reaches the
    discarded state, and rewinding the new window still returns to its
    start."""
    base = 0x1000
    memory = MemorySlave("mem", 0, base, 0x100)
    memory.load(base, [1, 2, 3, 4])
    manager = CheckpointManager([memory], cost_model=StateCostModel(0.0, 0.0))
    manager.store(cycle=0)
    for offset, value in enumerate((11, 12, 13)):
        memory.write_word(base + 4 * offset, value)
    redo = manager.restore(redo=True).redo["mem"]
    assert [memory.read_word(base + 4 * i) for i in range(4)] == [1, 2, 3, 4]

    memory.write_word(base, 11)  # the re-executed prefix
    manager.store(cycle=1)
    memory.redo_checkpoint_window(redo)
    assert [memory.read_word(base + 4 * i) for i in range(4)] == [11, 12, 13, 4]
    manager.restore()
    assert [memory.read_word(base + 4 * i) for i in range(4)] == [11, 2, 3, 4]
    assert manager.stats.restores == 2
