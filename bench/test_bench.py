"""Tests of the benchmark itself: ``python -m pytest bench/`` from the root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import run, trace  # noqa: E402
from bench.compare import verdict  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _child(workload: str, role: str, tmp_path: Path) -> dict:
    job = {
        "workload": workload,
        "seed": 11,
        "quick": True,
        "role": role,
        "index": 1,
        "workdir": str(tmp_path),
        "trace_out": str(tmp_path / f"{workload}-{role}.json"),
    }
    result = run.spawn(job)
    assert not result.get("errors"), result
    return result


def test_wrappers_are_removed_after_a_traced_run():
    from repro.orchestration.request import build_request_engine

    tracer = trace.Tracer()
    tracer.install()
    patched = list(tracer._installed)
    assert len(patched) > 20
    try:
        build_request_engine(WORKLOADS["als_rollback"].request(11, quick=True)).run()
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is original, f"{owner.__name__}.{name} still wrapped"
    assert tracer.aggregates["HalfBusModel.run_local_cycle"].calls > 0
    assert tracer.aggregates["CheckpointManager.restore"].calls > 0


@pytest.mark.parametrize("workload", ["als_rollback", "dense_fastpath", "sweep_cold"])
def test_traced_output_equals_untraced(workload, tmp_path):
    timed = _child(workload, "timed", tmp_path)
    traced = _child(workload, "traced", tmp_path)
    assert traced["fingerprint"] == timed["fingerprint"]
    assert traced["model"] == timed["model"]
    assert traced["coverage"] == pytest.approx(1.0, abs=1e-6)
    spans = json.loads((tmp_path / f"{workload}-traced.json").read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None and s["name"].startswith("bench.")]
    assert len(roots) == 1


def test_fast_path_check_runs_its_scalar_twin(tmp_path):
    check = _child("dense_fastpath", "check", tmp_path)
    timed = _child("dense_fastpath", "timed", tmp_path)
    assert check["fingerprint"] == timed["fingerprint"]
    assert WORKLOADS["dense_fastpath"].request(11, True, check=True).engine == "conventional"


def test_self_time_arithmetic_on_nested_spans():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    tracer = trace.Tracer(clock=lambda: now[0])
    leaf = tracer.wrap(lambda: tick(1.0), "leaf", "ahb", False)

    def middle_body():
        tick(2.0)
        leaf()
        leaf()
        tick(0.5)

    middle = tracer.wrap(middle_body, "middle", "checkpoint", True)

    def root_body():
        tick(3.0)
        middle()
        leaf()

    tracer.call(root_body, "root", "engine")
    aggregates = tracer.aggregates
    assert aggregates["root"].total == pytest.approx(8.5)
    assert aggregates["root"].self_time == pytest.approx(3.0)
    assert aggregates["middle"].total == pytest.approx(4.5)
    assert aggregates["middle"].self_time == pytest.approx(2.5)
    assert aggregates["leaf"].calls == 3
    assert aggregates["leaf"].self_time == pytest.approx(3.0)
    assert tracer.self_total() == pytest.approx(aggregates["root"].total)
    totals = tracer.layer_totals()
    assert totals["ahb"] == {"calls": 3, "self": pytest.approx(3.0)}
    spans = {span[2]: span for span in tracer.spans}
    assert spans["middle"][1] == spans["root"][0]  # parent id
    assert spans["root"][1] is None
    assert tracer.frames == [[pytest.approx(8.5), None]]


def test_self_time_survives_an_exception():
    now = [0.0]
    tracer = trace.Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.call(tracer.wrap(fail, "inner", "lob", False), "outer", "engine")
    assert len(tracer.frames) == 1
    assert tracer.aggregates["inner"].self_time == pytest.approx(1.0)
    assert tracer.aggregates["outer"].self_time == pytest.approx(0.0)


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.PER_LAYER_UNITS
    assert set(json.loads(run.REFERENCE.read_text())) == set(WORKLOADS)


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert verdict(base, list(base), 0.1, "higher") == "unchanged"
    assert verdict(base, [x * 1.2 for x in base], 0.1, "higher") == "better"
    assert verdict(base, [x * 0.8 for x in base], 0.1, "higher") == "worse"
    assert verdict(base, [x * 0.8 for x in base], 0.1, "lower") == "better"
    wide = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert verdict(wide, [100.0] * 5, 0.1, "higher") == "unresolved"


def test_quick_run_finishes_within_a_minute(tmp_path):
    out = tmp_path / "results.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - started < 60
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(WORKLOADS)
    assert all(w["correct"] and w["failed"] == 0 for w in results["workloads"].values())


def test_exits_non_zero_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "als_ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
