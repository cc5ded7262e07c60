"""Per-layer host-time tracing for the benchmark's traced round.

The tracer wraps the program's public layer functions as class (or module)
attributes, installed before the engine is constructed and removed again
afterwards, so a traced run executes exactly the program's own code with a
timing frame around each seam.  It measures host time only; nothing it does
reaches a ``RunRecord``.

Every wrapped call pushes a frame.  When the call returns, its elapsed time
is added to its parent frame's child time, and its *self time* is the elapsed
time minus that child time.  Per-cycle seams are kept as in-memory aggregates
(calls, total, self).  Coarse seams (engine runs, checkpoints, orchestration,
scenario building) are also kept as spans with parent ids, written out at the
end of the traced run.  Self times telescope: over any span, its own self time
plus the self time of everything nested in it equals its duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer -> seams.  A seam is ``(module, class or None, attribute names,
#: is_span)``.  Module-level functions are patched in the module that *calls*
#: them (the name it looks up at call time), not the one defining them.
LAYER_SEAMS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...], bool]]] = {
    "ahb": [
        (
            "repro.ahb.half_bus",
            "HalfBusModel",
            (
                "run_local_cycle",
                "drive_phase",
                "merge_drive",
                "merge_drives",
                "response_phase",
                "commit_phase",
                "commit_lockstep",
            ),
            False,
        ),
    ],
    "prediction": [
        ("repro.core.prediction", "LaggerPredictor", ("can_predict", "predict", "observe"), False),
    ],
    "lob": [
        ("repro.core.lob", "LeaderOutputBuffer", ("adopt", "flush", "invalidate"), False),
    ],
    "checkpoint": [
        ("repro.sim.checkpoint", "CheckpointManager", ("store", "restore", "discard"), True),
    ],
    "channel": [
        ("repro.channel.stats", "ChannelStats", ("record_access",), False),
        ("repro.channel.reliability", "SelectiveRepeatLink", ("deliver",), False),
        ("repro.channel.driver", "SimulatorAcceleratorChannel", ("charge",), False),
        (
            "repro.channel.packet",
            "BoundaryPacketizer",
            ("cycle_word_count", "drive_word_count", "response_word_count"),
            False,
        ),
    ],
    # CycleKernel.fast_forward is not a seam: no engine calls it.  The
    # engines' quiescence skip commits its stretches through
    # HalfBusModel.adopt_idle_records, which is wrapped here.
    "fastforward": [
        ("repro.core.trace", "PeriodicTraceController", ("observe", "try_replay"), False),
        (
            "repro.ahb.half_bus",
            "HalfBusModel",
            ("idle_stationary", "next_local_activity", "adopt_idle_records"),
            False,
        ),
    ],
    "workloads": [
        ("repro.orchestration.request", None, ("build_scenario",), True),
        ("repro.workloads.soc", "SocSpec", ("prepare_run",), True),
    ],
    "orchestration": [
        ("repro.orchestration.runner", None, ("execute_request",), True),
        ("repro.orchestration.cache", "ResultCache", ("get", "put_many"), True),
        ("repro.orchestration.store", "RunStore", ("write",), True),
    ],
}


# Counters derived from a seam's arguments or result.
def _count_idle_records(counts, args, result):
    counts["idle_records"] += len(args[1])


def _count_replay_hits(counts, args, result):
    counts["replay_hits"] += bool(result)


def _count_cache_hits(counts, args, result):
    counts["cache_hits"] += result is not None


def _count_domain_cycles(counts, args, result):
    counts["domain_cycles"] += len(getattr(args[0], "hosts", ())) * result.committed_cycles


_OBSERVERS: Dict[str, Callable[[Dict[str, float], tuple, Any], None]] = {
    "HalfBusModel.adopt_idle_records": _count_idle_records,
    "PeriodicTraceController.try_replay": _count_replay_hits,
    "ResultCache.get": _count_cache_hits,
}


@dataclass
class Aggregate:
    """Calls, total and self seconds of one wrapped function."""

    layer: str
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Installs the layer wrappers and accumulates their timings.

    Install it before the engine is built, and uninstall it even when the
    traced code raises::

        tracer = Tracer(run_id="lockstep_dense-2005").install()
        try:
            engine = build_request_engine(request)
            result = tracer.call(engine.run, "bench.run", "engine")
        finally:
            tracer.uninstall()
    """

    def __init__(self, run_id: str = "", clock: Callable[[], float] = time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        #: Open frames: ``[child seconds, enclosing span id]``; index 0 is the
        #: sentinel for code outside every wrapped call.
        self.frames: List[list] = [[0.0, None]]
        self.aggregates: Dict[str, Aggregate] = {}
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, float] = {
            "idle_records": 0,
            "replay_hits": 0,
            "cache_hits": 0,
            "domain_cycles": 0,
        }
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        qualname: str,
        layer: str,
        is_span: bool,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a timing frame charged to ``layer``."""
        aggregate = self.aggregates.setdefault(qualname, Aggregate(layer))
        frames = self.frames
        spans = self.spans
        counts = self.counts
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = frames[-1]
            if is_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                parent[0] += elapsed
                aggregate.calls += 1
                aggregate.total += elapsed
                aggregate.self_time += elapsed - frame[0]
                if is_span:
                    spans[span_id] = (span_id, parent[1], qualname, layer, start, start + elapsed)
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def call(self, fn: Callable[[], Any], qualname: str, layer: str) -> Any:
        """Run ``fn()`` as a span: the benchmark's own call into a layer."""
        return self.wrap(fn, qualname, layer, True)()

    def _patch(self, owner: Any, name: str, qualname: str, layer: str, is_span: bool, observe=None):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(original.__func__, qualname, layer, is_span, observe))
        elif inspect.isfunction(original):
            wrapped = self.wrap(original, qualname, layer, is_span, observe)
        else:
            raise TypeError(f"{qualname} is not a plain function; cannot trace it")
        setattr(owner, name, wrapped)
        self._installed.append((owner, name, original))

    def install(self) -> "Tracer":
        """Wrap every seam of :data:`LAYER_SEAMS` plus each engine's ``run``."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        try:
            for layer, seams in LAYER_SEAMS.items():
                for module_name, class_name, names, is_span in seams:
                    module = importlib.import_module(module_name)
                    owner = module if class_name is None else getattr(module, class_name)
                    for name in names:
                        qualname = name if class_name is None else f"{class_name}.{name}"
                        self._patch(
                            owner, name, qualname, layer, is_span, _OBSERVERS.get(qualname)
                        )
            from repro.core.engine import available_engines

            engine_classes = {info.factory for info in available_engines().values()}
            for cls in sorted(engine_classes, key=lambda c: c.__qualname__):
                if "run" in cls.__dict__:
                    self._patch(
                        cls, "run", f"{cls.__name__}.run", "engine", True, _count_domain_cycles
                    )
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: summed ``calls`` and ``self`` seconds.

        Only self times add up across a layer; totals of nested calls of one
        layer would count the same interval twice.
        """
        totals: Dict[str, Dict[str, float]] = {}
        for aggregate in self.aggregates.values():
            entry = totals.setdefault(aggregate.layer, {"calls": 0, "self": 0.0})
            entry["calls"] += aggregate.calls
            entry["self"] += aggregate.self_time
        return totals

    def self_total(self) -> float:
        """Self seconds of every wrapped call so far, all layers together."""
        return sum(aggregate.self_time for aggregate in self.aggregates.values())

    def write(self, path) -> None:
        """Write the spans, aggregates and counts as one JSON document."""
        payload = {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "layer": s[3], "start": s[4], "end": s[5]}
                for s in self.spans
                if s is not None
            ],
            "aggregates": {
                name: {"layer": a.layer, "calls": a.calls, "total": a.total, "self": a.self_time}
                for name, a in sorted(self.aggregates.items())
            },
            "counts": self.counts,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


#: Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS: Dict[str, str] = {
    "engine.self_s": "s",
    "engine.self_frac": "fraction",
    "ahb.self_s": "s",
    "ahb.self_frac": "fraction",
    "ahb.calls_per_cycle": "calls/cycle",
    "prediction.self_frac": "fraction",
    "prediction.accuracy": "fraction",
    "lob.self_frac": "fraction",
    "checkpoint.self_frac": "fraction",
    "checkpoint.restores": "count",
    "checkpoint.restore_us": "us",
    "transition.rollback_frac": "fraction",
    "transition.reexec_frac": "fraction",
    "transition.mean_committed": "cycles",
    "channel.self_frac": "fraction",
    "channel.retransmit_frac": "fraction",
    "fastforward.self_frac": "fraction",
    "fastforward.skipped_frac": "fraction",
    "fastforward.replayed_frac": "fraction",
    "fastforward.advance_frac": "fraction",
    "fastforward.refusals": "count",
    "workloads.build_s": "s",
    "orchestration.self_ms_per_point": "ms/point",
    "cache.get_us": "us",
    "cache.hit_frac": "fraction",
    "store.write_ms": "ms",
    "model.modelled_cps": "1/s",
    "model.channel_accesses_per_kcycle": "1/kcycle",
    "trace.overhead_frac": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_metrics(records) -> Dict[str, float]:
    """The paper's modelled metrics, pooled over ``records``.

    ``modelled_cps`` is committed cycles over modelled seconds, so a grid
    pools as one long run.  Both are deterministic per request.
    """
    committed = sum(r.committed_cycles for r in records)
    modelled_s = sum(r.committed_cycles / r.performance for r in records if r.performance)
    accesses = sum(r.channel.get("accesses", 0) for r in records)
    return {
        "model.modelled_cps": _ratio(committed, modelled_s),
        "model.channel_accesses_per_kcycle": _ratio(1000.0 * accesses, committed),
    }


def layer_metrics(tracer: Tracer, records, root: str) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose timed call is span ``root``.

    ``records`` are the run's ``RunRecord`` objects (one for an engine run,
    one per grid point for a sweep); the record-derived ratios pool them.
    """
    totals = tracer.layer_totals()
    seams = tracer.aggregates
    counts = tracer.counts
    empty = Aggregate("")
    wall = seams[root].total

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self", 0.0)

    def seam(name: str) -> Aggregate:
        return seams.get(name, empty)

    committed = sum(r.committed_cycles for r in records)
    transitions = [r.transitions for r in records]
    n_transitions = sum(t.get("transitions", 0) for t in transitions)
    faults = [r.channel.get("faults", {}) for r in records]
    replay = [r.trace_replay for r in records]
    advance_attempts = seam("HalfBusModel.idle_stationary").calls + seam(
        "PeriodicTraceController.try_replay"
    ).calls
    advances = seam("HalfBusModel.adopt_idle_records").calls + counts["replay_hits"]
    restore = seam("CheckpointManager.restore")
    get = seam("ResultCache.get")
    metrics = {
        "engine.self_s": self_s("engine"),
        "engine.self_frac": _ratio(self_s("engine"), wall),
        "ahb.self_s": self_s("ahb"),
        "ahb.self_frac": _ratio(self_s("ahb"), wall),
        "ahb.calls_per_cycle": _ratio(totals.get("ahb", {}).get("calls", 0), committed),
        "prediction.self_frac": _ratio(self_s("prediction"), wall),
        "prediction.accuracy": _ratio(
            sum(r.prediction.get("predictions_correct", 0) for r in records),
            sum(r.prediction.get("predictions_checked", 0) for r in records),
        ),
        "lob.self_frac": _ratio(self_s("lob"), wall),
        "checkpoint.self_frac": _ratio(self_s("checkpoint"), wall),
        "checkpoint.restores": float(restore.calls),
        "checkpoint.restore_us": _ratio(1e6 * restore.total, restore.calls),
        "transition.rollback_frac": _ratio(
            sum(t.get("rollbacks", 0) for t in transitions), n_transitions
        ),
        "transition.reexec_frac": _ratio(
            sum(r.wasted_leader_cycles for r in records), committed
        ),
        "transition.mean_committed": _ratio(
            sum(
                t.get("mean_committed_per_transition", 0.0) * t.get("transitions", 0)
                for t in transitions
            ),
            n_transitions,
        ),
        "channel.self_frac": _ratio(self_s("channel"), wall),
        "channel.retransmit_frac": _ratio(
            sum(f.get("retransmissions", 0) for f in faults),
            sum(f.get("attempts", 0) for f in faults),
        ),
        "fastforward.self_frac": _ratio(self_s("fastforward"), wall),
        "fastforward.skipped_frac": _ratio(counts["idle_records"], counts["domain_cycles"]),
        "fastforward.replayed_frac": _ratio(
            sum(t.get("replayed_cycles", 0) for t in replay), committed
        ),
        "fastforward.advance_frac": _ratio(advances, advance_attempts),
        "fastforward.refusals": float(
            sum(sum(t.get("bailouts", {}).values()) for t in replay)
        ),
        "workloads.build_s": self_s("workloads"),
        "orchestration.self_ms_per_point": _ratio(1e3 * self_s("orchestration"), len(records)),
        "cache.get_us": _ratio(1e6 * get.total, get.calls),
        "cache.hit_frac": _ratio(counts["cache_hits"], get.calls),
        "store.write_ms": 1e3 * seam("RunStore.write").total,
    }
    metrics.update(model_metrics(records))
    return metrics
