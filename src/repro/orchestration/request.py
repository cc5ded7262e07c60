"""Declarative run requests and their execution.

A :class:`RunRequest` is everything needed to reproduce one co-emulation run:
the scenario name (resolved through the workload catalog), the operating mode
(resolved through the engine registry), configuration overrides and the
random seed.  Requests are plain picklable data so they can cross process
boundaries; :func:`execute_request` is the single worker entry point used by
both the serial and the multiprocessing paths of the
:class:`~repro.orchestration.runner.BatchRunner`.

Records are deliberately free of wall-clock measurements: everything in a
:class:`RunRecord` is a deterministic function of its request, which is what
makes ``sweep --jobs N`` byte-identical to the serial run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..channel.faults import ChannelFaultConfig
from ..core.coemulation import CoEmulationConfig, CoEmulationResult, DEFAULT_LOB_DEPTH
from ..core.engine import create_engine, engine_for_mode, get_engine_info
from ..core.modes import OperatingMode
from ..core.topology import Topology
from ..sim.time_model import DomainSpeed
from ..workloads.catalog import build_scenario

#: Scalar spellings of config fields whose natural type is not
#: JSON-serialisable.  Requests must stay canonical-JSON-encodable (their
#: ``request_id`` is a hash of that encoding), so ``config_overrides`` carries
#: plain numbers and :meth:`RunRequest.build_config` rehydrates them.
_SCALAR_CONFIG_OVERRIDES = {
    "simulator_cycles_per_second": "simulator_speed",
    "accelerator_cycles_per_second": "accelerator_speed",
}


def canonical_json(payload: Any) -> str:
    """Stable JSON encoding used for ids, digests and the run store."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive_seed(base_seed: int, *coordinates: Any) -> int:
    """Derive a deterministic per-request seed from grid coordinates.

    Hashing (rather than ``base_seed + index``) keeps seeds stable when the
    grid is filtered or re-ordered: the same (scenario, mode, accuracy, ...)
    point always receives the same seed for the same ``base_seed``.
    """
    digest = _sha256(canonical_json([base_seed, *[str(c) for c in coordinates]]))
    return int(digest[:12], 16)


@dataclass(frozen=True)
class RunRequest:
    """One run of the grid, as declarative data.

    Attributes:
        scenario: catalog name of the SoC configuration.
        mode: operating mode value (``"conservative"`` / ``"sla"`` /
            ``"als"`` / ``"auto"``).
        cycles: target cycles to commit.
        lob_depth: Leader Output Buffer depth.
        accuracy: forced prediction accuracy (``None`` = real predictor).
        seed: seed for the forced-accuracy failure injector.
        engine: explicit engine registration to use (``None`` = resolve from
            ``mode``; ``"analytical"`` selects the closed-form pseudo-engine).
        scenario_params: keyword arguments for the scenario builder.
        config_overrides: extra :class:`CoEmulationConfig` fields by name.
        topology: serialised :class:`~repro.core.topology.Topology` override
            (``Topology.as_dict()`` shape); ``None`` uses the scenario's own
            layout.  Omitted from the canonical encoding when ``None`` so
            topology-free request ids are unchanged.
        channel_faults: serialised :class:`~repro.channel.faults.
            ChannelFaultConfig` override (``ChannelFaultConfig.as_dict()``
            shape); ``None`` uses the scenario's own channel (ideal unless the
            scenario declares faults).  Omitted from the canonical encoding
            when ``None`` so fault-free request ids and digests are unchanged.
        label: free-form display label.
    """

    scenario: str
    mode: str = "als"
    cycles: int = 400
    lob_depth: int = DEFAULT_LOB_DEPTH
    accuracy: Optional[float] = None
    seed: int = 2005
    engine: Optional[str] = None
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    topology: Optional[Mapping[str, Any]] = None
    channel_faults: Optional[Mapping[str, Any]] = None
    label: str = ""

    @property
    def request_id(self) -> str:
        """Stable short id derived from the request's full payload."""
        return _sha256(canonical_json(self.as_dict()))[:12]

    def as_dict(self) -> Dict[str, Any]:
        """The canonical payload: one shallow pass over the fields.

        Every field already holds plain JSON data, so no deep copy is needed
        for :func:`canonical_json` to see the same values.  The mapping
        fields are copied into plain dicts (JSON cannot encode other
        mappings) but their contents are shared with the request.
        """
        payload = {name: getattr(self, name) for name in _REQUEST_FIELDS}
        payload["scenario_params"] = dict(self.scenario_params)
        payload["config_overrides"] = dict(self.config_overrides)
        if self.topology is None:
            # Pre-topology requests must keep their historical ids/digests.
            payload.pop("topology")
        else:
            payload["topology"] = dict(self.topology)
        if self.channel_faults is None:
            # Same rule for the fault axis: ideal requests keep their ids.
            payload.pop("channel_faults")
        else:
            payload["channel_faults"] = dict(self.channel_faults)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRequest":
        """Rebuild a request from its canonical :meth:`as_dict` payload.

        The optional axes omitted from the canonical encoding (topology,
        channel faults) default back to ``None``, so a round trip preserves
        the ``request_id`` exactly -- which is what lets a fleet grid
        manifest address the same cache entries as the process that
        published it.
        """
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ValueError(
                f"payload does not fit the request schema: {exc}"
            ) from None

    def topology_override(self) -> Optional[Topology]:
        """The deserialised topology override, if any (validates the payload)."""
        return None if self.topology is None else Topology.from_dict(self.topology)

    def channel_faults_override(self) -> Optional[ChannelFaultConfig]:
        """The deserialised fault-config override, if any (validates it)."""
        if self.channel_faults is None:
            return None
        return ChannelFaultConfig.from_dict(self.channel_faults)

    def operating_mode(self) -> OperatingMode:
        return OperatingMode(self.mode)

    def engine_name(self) -> str:
        """The registry name this request resolves to: ``engine`` when set,
        else the mode's default engine (as ``create_engine`` resolves it)."""
        if self.engine is not None:
            return self.engine
        return engine_for_mode(self.operating_mode())

    def build_config(self) -> CoEmulationConfig:
        kwargs: Dict[str, Any] = {
            "mode": self.operating_mode(),
            "total_cycles": self.cycles,
            "lob_depth": self.lob_depth,
            "forced_accuracy": self.accuracy,
            "forced_accuracy_seed": self.seed,
        }
        topology = self.topology_override()
        if topology is not None:
            kwargs["topology"] = topology
        channel_faults = self.channel_faults_override()
        if channel_faults is not None:
            kwargs["channel_faults"] = channel_faults
        overrides = dict(self.config_overrides)
        for scalar_key, field_name in _SCALAR_CONFIG_OVERRIDES.items():
            if scalar_key in overrides:
                overrides[field_name] = DomainSpeed(
                    cycles_per_second=float(overrides.pop(scalar_key))
                )
        kwargs.update(overrides)
        return CoEmulationConfig(**kwargs)

    def display_label(self) -> str:
        if self.label:
            return self.label
        accuracy = "-" if self.accuracy is None else f"{self.accuracy:g}"
        return f"{self.scenario}/{self.mode}/p={accuracy}/lob={self.lob_depth}"


_REQUEST_FIELDS = tuple(f.name for f in fields(RunRequest))


@dataclass(frozen=True)
class RunRecord:
    """The deterministic outcome of one executed request.

    Records are frozen and encoded exactly once, at construction: the digest
    (over every field but ``digest``) and the full canonical store line come
    out of one shallow pass and are kept, so verifying a record read from a
    store and writing it back out never re-encodes it.  The nested metric
    dicts are shared with :meth:`as_dict` callers and must not be mutated.
    """

    request_id: str
    label: str
    scenario: str
    mode: str
    engine: str
    seed: int
    cycles: int
    lob_depth: int
    accuracy: Optional[float]
    committed_cycles: int
    performance: float
    per_cycle_times: Dict[str, float]
    channel: dict
    transitions: dict
    prediction: dict
    lob: dict
    monitors_ok: bool
    wasted_leader_cycles: int
    beat_digest: str
    #: Trace-replay counters (``CoEmulationResult.trace_replay``); empty for
    #: engines without the periodic replay controller.
    trace_replay: dict = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        # One canonical encoding pass, split around the "digest" key: the
        # fields sorting before and after it, outer braces stripped.  Joined
        # by a comma they are the payload the digest hashes; with the digest
        # member between them they are the store line.
        before = canonical_json(
            {name: getattr(self, name) for name in _RECORD_FIELDS_BEFORE_DIGEST}
        )[:-1]
        after = canonical_json(
            {name: getattr(self, name) for name in _RECORD_FIELDS_AFTER_DIGEST}
        )[1:]
        digest = _sha256(f"{before},{after}")[:16]
        if not self.digest:
            object.__setattr__(self, "digest", digest)
        line = f"{before},\"digest\":{json.dumps(self.digest)},{after}"
        object.__setattr__(self, "_encoding", (digest, line))

    def compute_digest(self) -> str:
        """The digest the record's content hashes to (``digest`` excluded)."""
        return self._encoding[0]

    def canonical_line(self) -> str:
        """The canonical single-line JSON encoding, ``digest`` included."""
        return self._encoding[1]

    def as_dict(self) -> Dict[str, Any]:
        """The record's fields by name (nested dicts shared, not copied)."""
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    @classmethod
    def from_verified_line(cls, payload: Dict[str, Any], line: str) -> "RunRecord":
        """Adopt a stored record whose ``line`` already passed its digest check.

        ``payload`` is ``json.loads(line)`` holding exactly the record's
        fields, and ``line`` hashes to ``payload["digest"]``
        (:func:`~repro.orchestration.store.parse_record_line` checks both).
        The record keeps ``line`` as its encoding instead of building one.
        """
        record = cls.__new__(cls)
        set_attribute = object.__setattr__
        # Set in __init__'s order, so the instance shares its key layout with
        # engine-built records (a materialised __dict__ costs more memory).
        for name in _RECORD_FIELDS:
            set_attribute(record, name, payload[name])
        set_attribute(record, "_encoding", (payload["digest"], line))
        return record

    def row(self) -> Dict[str, Any]:
        """Flat summary row for tabular reports."""
        return {
            "label": self.label,
            "scenario": self.scenario,
            "mode": self.mode,
            "engine": self.engine,
            "accuracy": self.accuracy,
            "lob_depth": self.lob_depth,
            "cycles": self.committed_cycles,
            "performance": self.performance,
            "channel_accesses": self.channel.get("accesses", 0),
            "rollbacks": self.transitions.get("rollbacks", 0),
            "digest": self.digest,
        }


_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
#: The two halves of a record's sorted-key encoding (``RunRecord.__post_init__``).
_RECORD_FIELDS_BEFORE_DIGEST = tuple(name for name in _RECORD_FIELDS if name < "digest")
_RECORD_FIELDS_AFTER_DIGEST = tuple(name for name in _RECORD_FIELDS if name > "digest")
RECORD_FIELD_SET = frozenset(_RECORD_FIELDS)
#: What follows the digest value in a store line: the first key after it.
DIGEST_MEMBER_END = f',"{min(_RECORD_FIELDS_AFTER_DIGEST)}":'


def _beat_digest(result: CoEmulationResult) -> str:
    """Digest of the committed bus traffic (the functional fingerprint)."""
    return _sha256(repr((result.sim_beat_keys, result.acc_beat_keys)))[:16]


def build_request_engine(request: RunRequest):
    """Build the (un-run) engine a request describes.

    Shared by :func:`execute_request` and the durable executor
    (:mod:`repro.orchestration.durable`), so a resumed run is constructed
    through exactly the code path an uninterrupted one uses.
    """
    config = request.build_config()
    engine_name = request.engine_name()
    info = get_engine_info(engine_name)
    # Building the spec on both paths keeps failure behaviour identical:
    # scenario-name and builder-parameter typos are rejected whether or not
    # the engine ends up touching the mechanism.
    spec = build_scenario(request.scenario, **dict(request.scenario_params))
    if info.requires_split:
        # The scenario's own multi-domain layout applies unless the request
        # carried an explicit ``topology=`` override (prepare_run's rule).
        config, partition = spec.prepare_run(config)
    else:
        partition = None
    return create_engine(config, partition=partition, engine=engine_name)


def record_from_result(
    request: RunRequest, engine_name: str, result: CoEmulationResult
) -> RunRecord:
    """Package one engine result as the request's deterministic record."""
    return RunRecord(
        request_id=request.request_id,
        label=request.display_label(),
        scenario=request.scenario,
        mode=request.mode,
        engine=engine_name,
        seed=request.seed,
        cycles=request.cycles,
        lob_depth=request.lob_depth,
        accuracy=request.accuracy,
        committed_cycles=result.committed_cycles,
        performance=result.performance_cycles_per_second,
        per_cycle_times=dict(result.per_cycle_times),
        channel=dict(result.channel),
        transitions=dict(result.transitions),
        prediction=dict(result.prediction),
        lob=dict(result.lob),
        monitors_ok=result.monitors_ok,
        wasted_leader_cycles=result.wasted_leader_cycles,
        beat_digest=_beat_digest(result),
        trace_replay=dict(result.trace_replay),
    )


def execute_request(request: RunRequest) -> RunRecord:
    """Execute one request through the catalog and the engine registry.

    This is the worker entry point of the batch runner: it must stay
    importable at module level (``multiprocessing`` resolves it by qualified
    name when spawning) and side-effect free apart from the run itself.
    """
    engine = build_request_engine(request)
    return record_from_result(request, request.engine_name(), engine.run())


def grid_requests(
    scenarios: Sequence[str],
    modes: Sequence[str],
    accuracies: Sequence[Optional[float]] = (None,),
    lob_depths: Sequence[int] = (DEFAULT_LOB_DEPTH,),
    cycles: int = 400,
    base_seed: int = 2005,
    engine: Optional[str] = None,
    scenario_params: Optional[Mapping[str, Any]] = None,
    config_overrides: Optional[Mapping[str, Any]] = None,
    topology: Optional[Mapping[str, Any]] = None,
    channel_faults: Optional[Mapping[str, Any]] = None,
) -> List[RunRequest]:
    """Expand a parameter grid into an ordered request list.

    Order is the nested product (scenario, mode, accuracy, lob depth) --
    deterministic, so serial and parallel runs agree on row order.  Each
    request receives a seed derived from its coordinates via
    :func:`derive_seed`.
    """
    requests: List[RunRequest] = []
    for scenario in scenarios:
        for mode in modes:
            for accuracy in accuracies:
                for lob_depth in lob_depths:
                    requests.append(
                        RunRequest(
                            scenario=scenario,
                            mode=mode,
                            cycles=cycles,
                            lob_depth=lob_depth,
                            accuracy=accuracy,
                            seed=derive_seed(
                                base_seed, scenario, mode, accuracy, lob_depth
                            ),
                            engine=engine,
                            scenario_params=dict(scenario_params or {}),
                            config_overrides=dict(config_overrides or {}),
                            topology=None if topology is None else dict(topology),
                            channel_faults=(
                                None if channel_faults is None else dict(channel_faults)
                            ),
                        )
                    )
    return requests
