"""One benchmark repeat, run in a fresh interpreter by ``bench/run.py``.

Usage (internal): ``python3 bench/child.py '<job JSON>'``.  The job names the
workload, seed, role (``check``, ``timed`` or ``traced``), the parent's
``time.monotonic()`` just before spawning (so set-up time covers interpreter
start and imports) and a working directory for sweep caches and stores.

Prints one JSON object: the run's timings, output fingerprint and size, and
for a traced run its per-layer metrics.  Exits non-zero if the program raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Import the benchmark as the ``bench`` package and the program from the
    # checkout's sources (never a module shadowed by the script directory).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from bench.trace import Tracer, layer_metrics, model_metrics  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: The benchmark's own span around the timed call, per workload kind.
ROOT_SPANS = {"engine": "bench.run", "sweep": "bench.sweep"}

#: Record fields left out of an engine run's fingerprint: identifiers and
#: labels that name the engine, and the host-side fast-path counters, which a
#: legitimate speed-up may change.  Modelled values are all kept.
_UNFINGERPRINTED = ("digest", "engine", "label", "request_id", "trace_replay")


def record_fingerprint(record) -> str:
    """sha256 of the canonical record, minus :data:`_UNFINGERPRINTED`."""
    from repro.orchestration.request import canonical_json

    payload = record.as_dict()
    for key in _UNFINGERPRINTED:
        payload.pop(key, None)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _output_errors(records, expected_points: int, cycles: int) -> list:
    errors = []
    if len(records) != expected_points:
        errors.append(f"{len(records)} record(s), expected {expected_points}")
    for record in records:
        if not record.monitors_ok:
            errors.append(f"{record.label}: bus monitors reported violations")
        if cycles and record.committed_cycles != cycles:
            errors.append(
                f"{record.label}: committed {record.committed_cycles} of {cycles} cycles"
            )
    return errors


def _timed(fn, tracer, root: str, layer: str):
    """Run ``fn()``; return its value, its wall seconds and, when traced,
    the share of that wall time the layers' self times account for."""
    if tracer is None:
        start = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - start, None
    before = tracer.self_total()
    value = tracer.call(fn, root, layer)
    run_s = tracer.aggregates[root].total
    return value, run_s, (tracer.self_total() - before) / run_s


def run_engine(job, workload, tracer):
    from repro.orchestration.request import build_request_engine, record_from_result

    request = workload.request(job["seed"], job["quick"], check=job["role"] == "check")
    engine = build_request_engine(request)
    setup_s = time.monotonic() - job["spawned_at"]
    result, run_s, coverage = _timed(engine.run, tracer, ROOT_SPANS["engine"], "engine")
    record = record_from_result(request, request.engine_name(), result)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "coverage": coverage,
        "fingerprint": record_fingerprint(record),
        "cycles": record.committed_cycles,
        "errors": _output_errors([record], 1, request.cycles),
    }, [record]


def run_sweep(job, workload, tracer):
    from repro.cli import main
    from repro.orchestration.store import RunStore

    workdir = Path(job["workdir"])
    tag = f"{job['role']}-{job['index']}"
    output = workdir / f"{tag}.jsonl"
    if workload.warm:
        # The check run fills the shared cache the timed runs then read.
        cache = workdir / "warm-cache"
        jobs = 2
    else:
        cache = workdir / f"{tag}-cache"
        jobs = 1 if job["role"] == "check" else 2
    if tracer is not None:
        jobs = 1  # keep every span in this process
    argv = workload.argv(job["seed"], job["quick"], jobs, str(cache), str(output))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        setup_s = time.monotonic() - job["spawned_at"]
        code, run_s, coverage = _timed(
            lambda: main(argv), tracer, ROOT_SPANS["sweep"], "orchestration"
        )
    store = RunStore(output)
    records = store.load() if code == 0 else []
    errors = [] if code == 0 else [f"sweep exited {code}: {sink.getvalue()[-500:]}"]
    errors += _output_errors(records, workload.points(job["quick"]), 0)
    fingerprint = store.digest()
    output.unlink(missing_ok=True)
    if not workload.warm:
        shutil.rmtree(cache, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "coverage": coverage,
        "fingerprint": fingerprint,
        "cycles": sum(r.committed_cycles for r in records),
        "errors": errors,
    }, records


def main(argv) -> int:
    job = json.loads(argv[1])
    workload = WORKLOADS[job["workload"]]
    runner = run_engine if workload.kind == "engine" else run_sweep
    tracer = None
    if job["role"] == "traced":
        tracer = Tracer(run_id=f"{workload.name}-seed{job['seed']}-{job['index']}").install()
    try:
        result, records = runner(job, workload, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["points"] = workload.points(job["quick"])
    result["peak_rss_mb"] = _peak_rss_mb()
    result["model"] = model_metrics(records)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, records, ROOT_SPANS[workload.kind])
        tracer.write(job["trace_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
