"""Property-based kill-resume: snapshot anywhere, resume, bytes identical.

Hypothesis drives random (scenario, mode, engine, LOB depth, accuracy,
cycle count, interruption point) tuples through the durable-snapshot path:
run to a random safe point, snapshot, throw the engine away, restore from
the file and finish.  The completed record -- canonical JSON, digest and
per-cycle float reprs included -- must equal an uninterrupted run's exactly.

This is the durability analogue of the functional-equivalence property
suite: whatever state the engines carry (LOB contents, rollback ledgers,
fault RNG streams, trace caches, multi-domain kernels), a snapshot at a safe
point captures all of it or the bytes would differ.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coemulation import CoEmulationEngineBase
from repro.core.snapshot import AbortRun, write_snapshot
from repro.orchestration.request import (
    RunRequest,
    build_request_engine,
    canonical_json,
    record_from_result,
)

#: Workload x engine corners, spanning single/multi-domain topologies, ideal
#: and faulty channels, and the scalar/batch/trace engine variants.
CORNERS = [
    ("single_master", "conservative", None),
    ("als_streaming", "als", None),
    ("mixed", "als", None),
    ("dual_accelerator_pipeline", "als", None),
    ("lossy_streaming", "als", None),
    ("degraded_pipeline", "conservative", None),
    ("mixed", "als", "als_batch"),
    ("single_master", "conservative", "conventional_batch"),
    ("sparse_telemetry", "als", "als_trace"),
]


class _AbortAt:
    def __init__(self, cycle: int) -> None:
        self.cycle = cycle

    def __call__(self, engine) -> None:
        if engine.ledger.committed_cycles >= self.cycle:
            raise AbortRun("property interrupt")


def _finish(request, engine):
    record = record_from_result(request, request.engine_name(), engine.run())
    return canonical_json(record.as_dict())


@settings(max_examples=25, deadline=None)
@given(
    corner=st.sampled_from(CORNERS),
    cycles=st.integers(min_value=40, max_value=220),
    cut=st.floats(min_value=0.05, max_value=0.95),
    lob_depth=st.sampled_from([8, 64]),
    accuracy=st.sampled_from([None, 1.0, 0.9, 0.6]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_snapshot_resume_bit_identical(
    tmp_path_factory, corner, cycles, cut, lob_depth, accuracy, seed
):
    scenario, mode, engine_name = corner
    request = RunRequest(
        scenario=scenario,
        mode=mode,
        cycles=cycles,
        lob_depth=lob_depth,
        accuracy=accuracy if mode == "als" else None,
        engine=engine_name,
        seed=seed,
    )
    baseline = _finish(request, build_request_engine(request))

    engine = build_request_engine(request)
    assert isinstance(engine, CoEmulationEngineBase)
    engine.run_hook = _AbortAt(max(1, int(cycles * cut)))
    try:
        engine.run()
    except AbortRun:
        pass
    else:
        # The interruption point fell beyond the run (sparse safe points or
        # a cut close to 1.0): an uninterrupted run is trivially identical,
        # nothing durable to exercise.
        return
    engine.run_hook = None

    path = tmp_path_factory.mktemp("snap") / "run.snap"
    write_snapshot(path, engine, request_id=request.request_id)
    del engine  # the killed process's memory is gone

    resumed = CoEmulationEngineBase.restore(path)
    assert _finish(request, resumed) == baseline
