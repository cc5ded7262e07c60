"""The benchmark's workloads: what each one runs, and why.

Engine workloads build one request through ``build_request_engine`` and time
``engine.run()``.  Sweep workloads time ``repro.cli.main(["sweep", ...])``.
Each workload names a *check* run: the untimed run whose output every timed
run must reproduce.  For a fast-path engine that is its scalar twin, so the
check proves the fast path bit-identical at whatever seed is used.

Run sizes are fixed here and are the same for every commit measured; each
timed engine run takes about 0.6 s, and a sweep 0.7-0.8 s, on a 2-core
x86-64 container: short enough for about ten repeats in a 10 s run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Every catalog scenario, spelled out so that a scenario added later does
#: not silently change the sweep grids.
SCENARIOS: Tuple[str, ...] = (
    "accelerator_farm_4x",
    "als_streaming",
    "bursty_link_mixed",
    "degraded_pipeline",
    "dma_burst_storm",
    "dual_accelerator_pipeline",
    "interrupt_control",
    "lossy_streaming",
    "mixed",
    "multi_master_contention",
    "rmw_fifo",
    "sim_only_baseline",
    "single_master",
    "sla_streaming",
    "sparse_telemetry",
)

#: ``--quick`` shrinks engine runs by this factor and sweeps to the first
#: ``QUICK_SCENARIOS`` scenarios, for smoke tests of the benchmark itself.
QUICK_SCALE = 0.05
QUICK_SCENARIOS = 3


@dataclass(frozen=True)
class EngineWorkload:
    """One engine run: a catalog scenario at a fixed size and mode."""

    name: str
    why: str
    scenario: str
    mode: str
    cycles: int
    #: Scenario-builder size parameter and value; scaled with the cycles.
    size_param: str
    size: int
    lob_depth: int = 64
    accuracy: Optional[float] = None
    #: Explicit engine registration (``None`` = the mode's default engine).
    engine: Optional[str] = None
    #: Scalar engine the check run uses instead of ``engine``.
    twin: Optional[str] = None
    extra_params: Tuple[Tuple[str, int], ...] = ()

    kind = "engine"

    def request(self, seed: int, quick: bool, check: bool = False):
        """The ``RunRequest`` of one run (the scalar twin's when ``check``)."""
        from repro.orchestration.request import RunRequest

        scale = QUICK_SCALE if quick else 1.0
        params = dict(self.extra_params)
        params[self.size_param] = max(1, round(self.size * scale))
        params["seed"] = seed
        return RunRequest(
            scenario=self.scenario,
            mode=self.mode,
            cycles=max(1, round(self.cycles * scale)),
            lob_depth=self.lob_depth,
            accuracy=self.accuracy,
            seed=seed,
            engine=self.twin if check and self.twin else self.engine,
            scenario_params=params,
        )

    def points(self, quick: bool) -> int:
        return 1


@dataclass(frozen=True)
class SweepWorkload:
    """One ``repro sweep`` grid over the catalog."""

    name: str
    why: str
    modes: Tuple[str, ...]
    accuracies: Tuple[float, ...]
    lob_depths: Tuple[int, ...]
    cycles: int
    #: Warm sweeps read a cache the check run filled; cold ones start empty.
    warm: bool

    kind = "sweep"

    def scenarios(self, quick: bool) -> Tuple[str, ...]:
        return SCENARIOS[:QUICK_SCENARIOS] if quick else SCENARIOS

    def points(self, quick: bool) -> int:
        return (
            len(self.scenarios(quick))
            * len(self.modes)
            * len(self.accuracies)
            * len(self.lob_depths)
        )

    def argv(self, seed: int, quick: bool, jobs: int, cache: str, output: str) -> List[str]:
        return [
            "sweep",
            "--scenarios", *self.scenarios(quick),
            "--modes", *self.modes,
            "--accuracies", *(repr(a) for a in self.accuracies),
            "--lob-depths", *(str(d) for d in self.lob_depths),
            "--cycles", str(self.cycles),
            "--seed", str(seed),
            "--jobs", str(jobs),
            "--cache", cache,
            "--output", output,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload(
            name="lockstep_dense",
            why="paper baseline: lock-step with 2 channel accesses per cycle; "
            "ahb and channel work, predictor/LOB/checkpoint/fast paths idle",
            scenario="als_streaming",
            mode="conservative",
            cycles=15_000,
            size_param="n_bursts",
            size=1_200,
        ),
        EngineWorkload(
            name="als_ideal",
            why="paper 100%-accuracy headline: run-ahead/follow-up through ahb "
            "and prediction; checkpoints stored and discarded, never restored",
            scenario="als_streaming",
            mode="als",
            accuracy=1.0,
            cycles=20_000,
            size_param="n_bursts",
            size=1_600,
        ),
        EngineWorkload(
            name="als_rollback",
            why="same code as als_ideal at 80% accuracy: nearly every "
            "transition rolls back, so restore and re-execution dominate",
            scenario="als_streaming",
            mode="als",
            accuracy=0.8,
            cycles=2_700,
            size_param="n_bursts",
            size=216,
        ),
        EngineWorkload(
            name="dense_fastpath",
            why="periodic trace replay on dense traffic, paired with "
            "lockstep_dense (same traffic, fast path off)",
            scenario="als_streaming",
            mode="conservative",
            engine="conventional_trace",
            twin="conventional",
            cycles=30_000,
            size_param="n_bursts",
            size=2_400,
        ),
        EngineWorkload(
            name="idle_fastpath",
            why="mostly idle bus: quiescence skipping dominates, replay never "
            "engages and ahb does little",
            scenario="sparse_telemetry",
            mode="als",
            lob_depth=256,
            engine="als_trace",
            twin="optimistic",
            cycles=96_000,
            size_param="n_samples",
            size=1_368,
            extra_params=(("period", 64),),
        ),
        EngineWorkload(
            name="mesh_faulty",
            why="3 domains with gated sync and faulty links: the reliability "
            "layer's deliver is a large share; fast paths refuse",
            scenario="degraded_pipeline",
            mode="conservative",
            cycles=22_000,
            size_param="n_bursts",
            size=440,
        ),
        SweepWorkload(
            name="sweep_cold",
            why="many short grid points on an empty cache: per-point "
            "orchestration, pool and cache/store writes are a large share",
            modes=("conservative", "als"),
            accuracies=(1.0, 0.95, 0.9, 0.8),
            lob_depths=(16, 64),
            cycles=50,
            warm=False,
        ),
        SweepWorkload(
            name="sweep_warm",
            why="every point served from a prefilled cache: engines never "
            "run, so this is pure orchestration and cache reads",
            modes=("conservative", "sla", "als"),
            accuracies=(1.0, 0.98, 0.95, 0.9, 0.85, 0.8),
            lob_depths=(4, 8, 16, 24, 32, 48, 64, 128),
            cycles=40,
            warm=True,
        ),
    )
}
