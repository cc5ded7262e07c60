"""Layered host-performance benchmark: one command for every metric.

Run from the repository root::

    python3 bench/run.py [--seed N] [--sets K] [--trace] [--quick]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload: per set, one untimed check round, then
timed rounds interleaved round-robin across workloads (so one burst of host
contention spreads over all of them), then, with ``--trace``, one traced
round.  It prints every metric with its median, quartiles and sample count,
and writes the results JSON under ``bench/out/``.

The second form measures one workload for ``S`` seconds and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0`` (see :data:`REPORTED_STAT`), the
medians of the per-layer metrics over its traced runs with ``--trace 1``.

Every repeat runs in a fresh interpreter (``bench/child.py``).  Every run's
output is checked against the workload's check run (the scalar twin of a
fast-path engine; a ``--jobs 1`` sweep) and, at seed 2005 at full size,
against ``bench/reference.json``.  Exit status: 0 when every output checked
out, 1 when one did not, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from bench.trace import PER_LAYER_UNITS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

BENCH = ROOT / "bench"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 2005

END_TO_END_UNITS: Dict[str, str] = {
    "host_cps": "1/s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: How a burst of consecutive repeats becomes one sample of each metric.
#: Contention from other tenants only ever slows a repeat down, often for
#: several seconds at a time, so a median flips whenever more than half of
#: the burst was contended.  A throughput takes the burst's best repeat, the
#: one least disturbed; set-up and memory take the median.
REPORTED_STAT: Dict[str, str] = {
    "host_cps": "max",
    "points_per_s": "max",
    "setup_s": "median",
    "peak_rss_mb": "median",
}

#: Timed rounds per set in the all-workloads form, and the repeats one
#: workload runs back to back in each round.  The one-workload form is a
#: single burst as long as its run.
ROUNDS = 10
BURST = 3
#: Floor on timed rounds when measuring for a fixed time.
MIN_TIMED_ROUNDS = 3
#: A single child may not take longer than this.
CHILD_TIMEOUT_S = 150
#: Iterations of the calibration loop (about 30 ms of pure Python).
CALIBRATION_LOOP = 300_000
#: Calibration readings further apart than this mark a set ``noisy``.
NOISY_CALIBRATION = 0.10


# -- statistics --------------------------------------------------------------
def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, n=4), maximum and count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0] if values else float("nan")
    top = max(values) if values else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "max": top, "n": len(values)}


def calibrate() -> float:
    """Median seconds of three runs of a fixed pure-Python loop."""
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        readings.append(time.perf_counter() - start)
    return statistics.median(readings)


def environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


# -- children ----------------------------------------------------------------
def spawn(job: dict) -> dict:
    """Run one repeat in a fresh interpreter and return its JSON result.

    A child that exits non-zero, times out or prints no result comes back as
    ``{"errors": [...]}``.
    """
    job = dict(job, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{job['role']} run timed out after {CHILD_TIMEOUT_S}s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"{job['role']} run exited {proc.returncode}: {' | '.join(tail)}"]}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"errors": [f"{job['role']} run printed no result"]}


def burst_sample(metric: str, values: List[float]) -> float:
    """One sample of ``metric`` from a burst of repeats (:data:`REPORTED_STAT`)."""
    return max(values) if REPORTED_STAT[metric] == "max" else statistics.median(values)


def end_to_end(result: dict) -> Dict[str, float]:
    run_s = result["run_s"]
    return {
        "host_cps": result["cycles"] / run_s,
        "points_per_s": result["points"] / run_s,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


@dataclass
class Budget:
    """How many rounds to run: at least ``min_rounds``, at most
    ``max_rounds``, stopping once ``seconds`` have passed (when given)."""

    min_rounds: int
    max_rounds: Optional[int] = None
    seconds: Optional[float] = None

    def more(self, rounds: int, started: float) -> bool:
        if self.max_rounds is not None and rounds >= self.max_rounds:
            return False
        if rounds < self.min_rounds:
            return True
        return self.seconds is not None and time.monotonic() - started < self.seconds


class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, name: str, seed: int, quick: bool, reference: Optional[str]) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.reference = reference
        self.check: Optional[str] = None
        self.check_run_s: Optional[float] = None
        #: One value per burst (see :data:`REPORTED_STAT`), and every repeat.
        self.samples: Dict[str, List[float]] = {metric: [] for metric in END_TO_END_UNITS}
        self.repeats: Dict[str, List[float]] = {metric: [] for metric in END_TO_END_UNITS}
        self.run_s: List[float] = []
        self.traced: List[dict] = []
        self.model: Dict[str, float] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.children = 0

    def job(self, role: str, workdir: Path) -> dict:
        self.children += 1
        name = self.workload.name
        return {
            "workload": name,
            "seed": self.seed,
            "quick": self.quick,
            "role": role,
            "index": self.children,
            "workdir": str(workdir),
            "trace_out": str(OUT / "traces" / f"{name}-seed{self.seed}-{self.children}.json"),
        }

    def _accept(self, result: dict, role: str) -> bool:
        """Count one child's operations; record why it failed, if it did."""
        points = self.workload.points(self.quick)
        self.attempted += points
        errors = list(result.get("errors", []))
        fingerprint = result.get("fingerprint")
        if not errors and role != "check" and fingerprint != self.check:
            errors.append(f"{role} output {fingerprint} differs from check run {self.check}")
        if errors:
            self.failed += points
            self.errors.extend(f"{self.workload.name}: {error}" for error in errors)
            return False
        return True

    def run_check(self, workdir: Path) -> None:
        result = spawn(self.job("check", workdir))
        if self._accept(result, "check"):
            if self.check not in (None, result["fingerprint"]):
                self.failed += self.workload.points(self.quick)
                self.errors.append(f"{self.workload.name}: check output changed between sets")
            self.check = result["fingerprint"]
            self.check_run_s = result["run_s"]
            self.model = result["model"]
            if self.reference is not None and self.check != self.reference:
                self.failed += self.workload.points(self.quick)
                self.errors.append(
                    f"{self.workload.name}: check output {self.check} differs from "
                    f"reference {self.reference}"
                )

    def run_burst(self, workdir: Path, burst: int) -> None:
        """``burst`` timed repeats back to back, recorded as one sample."""
        values: Dict[str, List[float]] = {metric: [] for metric in END_TO_END_UNITS}
        for _ in range(burst):
            result = spawn(self.job("timed", workdir))
            if self._accept(result, "timed"):
                for metric, value in end_to_end(result).items():
                    values[metric].append(value)
                    self.repeats[metric].append(value)
                self.run_s.append(result["run_s"])
        if values["setup_s"]:
            for metric, got in values.items():
                self.samples[metric].append(burst_sample(metric, got))

    def run_traced(self, workdir: Path) -> None:
        result = spawn(self.job("traced", workdir))
        if self._accept(result, "traced"):
            self.traced.append(result)

    def per_layer(self) -> Dict[str, float]:
        """Median of each per-layer metric over the traced runs."""
        if not self.traced:
            return {}
        metrics = {
            name: statistics.median(run["layers"][name] for run in self.traced)
            for name in self.traced[0]["layers"]
        }
        traced_s = statistics.median(run["run_s"] for run in self.traced)
        untraced = self.run_s
        if self.workload.kind == "sweep" and not self.workload.warm:
            # Traced sweeps run --jobs 1; of the cold runs only the check
            # run also executes every point in-process.
            untraced = [self.check_run_s]
        metrics["trace.overhead_frac"] = (
            traced_s / statistics.median(untraced) - 1.0 if untraced else 0.0
        )
        return metrics

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0 and self.check is not None,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "fingerprint": self.check,
            "samples": self.samples,
            "repeats": self.repeats,
            "metrics": {
                metric: dict(summarize(values), unit=END_TO_END_UNITS[metric])
                for metric, values in self.samples.items()
            },
            "model": self.model,
            "per_layer": self.per_layer(),
            "trace_coverage": [run["coverage"] for run in self.traced],
        }


def measure_set(runs: List[WorkloadRun], timed: Budget, burst: int, traced: Budget) -> dict:
    """One set: calibration, a check round, timed rounds of ``burst``
    repeats, traced rounds, calibration again.  Rounds visit the workloads
    round-robin."""
    OUT.mkdir(exist_ok=True)
    (OUT / "traces").mkdir(exist_ok=True)
    before = calibrate()
    workdir = Path(tempfile.mkdtemp(prefix="set-", dir=OUT))
    try:
        for run in runs:
            run.run_check(workdir)
        steps = (
            (timed, lambda run: run.run_burst(workdir, burst)),
            (traced, lambda run: run.run_traced(workdir)),
        )
        for budget, step in steps:
            started = time.monotonic()
            rounds = 0
            while budget.more(rounds, started):
                for run in runs:
                    step(run)
                rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    after = calibrate()
    return {
        "calibration_before_s": before,
        "calibration_after_s": after,
        "noisy": abs(after / before - 1.0) > NOISY_CALIBRATION,
    }


# -- output ------------------------------------------------------------------
def render(results: dict) -> str:
    lines = []
    for name, summary in results["workloads"].items():
        status = "ok" if summary["correct"] else "FAILED"
        lines.append(
            f"{name}: {status} ({summary['failed']}/{summary['attempted']} failed)"
        )
        for metric, e in summary["metrics"].items():
            lines.append(
                f"  {metric:<34} {e['median']:>14.6g}  [{e['q1']:.6g} .. {e['q3']:.6g}]"
                f"  max {e['max']:.6g}  n={e['n']}  {e['unit']}"
            )
        for metric, value in {**summary["model"], **summary["per_layer"]}.items():
            lines.append(f"  {metric:<34} {value:>14.6g}  {PER_LAYER_UNITS[metric]}")
        for error in summary["errors"]:
            lines.append(f"  error: {error}")
    for index, calibration in enumerate(results["sets"]):
        lines.append(
            f"set {index}: calibration {calibration['calibration_before_s']:.4f}s -> "
            f"{calibration['calibration_after_s']:.4f}s"
            f"{' (noisy)' if calibration['noisy'] else ''}"
        )
    return "\n".join(lines)


def result_line(summary: dict, trace: bool) -> Optional[str]:
    """The final JSON line of the one-workload form (``None`` when no run
    succeeded, so there is nothing to report)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not summary["samples"]["setup_s"] or (trace and not summary["per_layer"]):
        return None
    if trace:
        values = {**summary["model"], **summary["per_layer"]}
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": summary["metrics"][m["name"]][REPORTED_STAT[m["name"]]],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def write_reference(results: dict) -> None:
    reference = {}
    for name, summary in results["workloads"].items():
        if not summary["correct"]:
            raise SystemExit(f"not writing {REFERENCE}: {name} failed its output check")
        reference[name] = summary["fingerprint"]
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")


# -- command line ------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="measure only this workload, for --seconds")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED,
                        help=f"workload seed (default {REFERENCE_SEED})")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: how long to measure (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add the traced round (per-layer metrics)")
    parser.add_argument("--sets", type=int, default=1,
                        help="sets of rounds in the all-workloads form (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="small runs and one timed round: a smoke test")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="results JSON path (default under bench/out/)")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the check outputs as {REFERENCE.name} "
                        f"(seed {REFERENCE_SEED}, full size)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.quick or args.seed != REFERENCE_SEED):
        parser.error(f"--write-reference needs full-size runs at seed {REFERENCE_SEED}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    use_reference = args.seed == REFERENCE_SEED and not args.quick and not args.write_reference
    reference = json.loads(REFERENCE.read_text()) if use_reference else {}
    runs = [WorkloadRun(name, args.seed, args.quick, reference.get(name)) for name in names]
    trace = bool(args.trace)
    if args.workload:
        # Half the time goes to untraced runs, which the tracing overhead
        # is measured against, when the per-layer metrics are asked for.
        share = args.seconds / 2 if trace else args.seconds
        timed = Budget(MIN_TIMED_ROUNDS - 1 if trace else MIN_TIMED_ROUNDS, seconds=share)
        traced = Budget(1, seconds=share) if trace else Budget(0, max_rounds=0)
        burst, sets = 1, 1
    else:
        rounds = 1 if args.quick else ROUNDS
        timed = Budget(rounds, max_rounds=rounds)
        traced = Budget(1, max_rounds=1) if trace else Budget(0, max_rounds=0)
        burst, sets = (1 if args.quick else BURST), args.sets
    calibrations = [measure_set(runs, timed, burst, traced) for _ in range(sets)]
    results = {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "environment": environment(),
        "sets": calibrations,
        "workloads": {run.workload.name: run.summary() for run in runs},
    }
    out = Path(args.out) if args.out else OUT / (
        f"results-{args.workload or 'all'}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}"
        f"-{os.getpid()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(render(results))
    print(f"results: {out}")
    if args.write_reference:
        write_reference(results)
        print(f"reference: {REFERENCE}")
    if args.workload:
        line = result_line(results["workloads"][args.workload], trace)
        if line is None:
            return 1
        print(line)
    return 0 if all(s["correct"] for s in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
