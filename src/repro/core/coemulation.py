"""Co-emulation configuration, result containers and the common engine base.

The two synchronisation engines (:class:`~repro.core.conventional.
ConventionalCoEmulation` and :class:`~repro.core.optimistic.
OptimisticCoEmulation`) share the partitioned-system plumbing implemented
here: building one domain host per topology domain from a partition of half
bus models, routing boundary values through the per-pair sync channels,
charging modelled time to the shared ledger and packaging results.

Engines consume a *partition mapping* (``{DomainId: HalfBusModel}``) plus a
:class:`~repro.core.topology.Topology`.

Each engine class is the scalar oracle of its mode until
:meth:`CoEmulationEngineBase.enable_fast_paths` switches on one or both fast
paths (the registry's presets do this when the engine is built):

* :data:`QUIESCENCE_SKIP` commits provably all-idle stretches of cycles in
  one batched step instead of one Python dispatch per cycle;
* :data:`PERIODIC_REPLAY` attaches the
  :class:`~repro.core.trace.PeriodicTraceController`, which replays verified
  periodic steady states of the lock-step loop from a template.

Both are bit-identical to the scalar loops on every modelled quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ahb.half_bus import (
    BoundaryDrive,
    drives_functionally_equal,
    merge_boundary_drives,
)
from ..ahb.bus import DriveValues
from ..ahb.signals import AddressPhase, BusCycleRecord, DataPhaseResult, HTrans
from ..ahb.transaction import CompletedBeat
from ..channel.driver import SimulatorAcceleratorChannel
from ..channel.faults import ChannelFaultConfig, ChannelFaultInjector
from ..channel.packet import BoundaryPacketizer
from ..channel.phy import ChannelDirection, ChannelTimingParams
from ..channel.reliability import SelectiveRepeatLink
from ..channel.stats import ChannelStats, FaultStats
from ..sim.batchmath import repeat_add, repeat_add_pattern
from ..sim.checkpoint import (
    ACCELERATOR_STATE_COSTS,
    SIMULATOR_STATE_COSTS,
    StateCostModel,
)
from ..sim.component import Domain
from ..sim.time_model import (
    DEFAULT_ACCELERATOR_SPEED,
    DEFAULT_SIMULATOR_SPEED,
    DomainSpeed,
    WallClockLedger,
)
from .domain import DomainHost, DomainHostConfig
from .modes import OperatingMode
from .prediction import ForcedAccuracyModel, LaggerPredictor, PredictionStats
from .topology import DomainKind, DomainSpec, Topology, TopologyError
from .transition import TransitionLog


#: Paper default: the evaluation assumes 1,000 rollback variables.
DEFAULT_ROLLBACK_VARIABLES = 1000

#: Fast path: advance provably quiescent stretches as one batched step.
QUIESCENCE_SKIP = "quiescence_skip"
#: Fast path: replay verified periodic lock-step steady states.
PERIODIC_REPLAY = "periodic_replay"
FAST_PATHS = frozenset((QUIESCENCE_SKIP, PERIODIC_REPLAY))

#: Shared empty interrupt map (read-only by convention) for remote views.
_NO_INTERRUPTS: Dict[str, bool] = {}

_INF = float("inf")

_OKAY = DataPhaseResult.okay()


def _remote_interrupt_union(drives: List[BoundaryDrive], self_index: int) -> Dict[str, bool]:
    """Union of every peer's interrupt lines (rarely non-empty)."""
    union: Optional[Dict[str, bool]] = None
    for index, drive in enumerate(drives):
        if index != self_index and drive.interrupts:
            if union is None:
                union = {}
            union.update(drive.interrupts)
    return union if union is not None else _NO_INTERRUPTS

#: Paper default LOB depth (Table 2); Figure 4 also evaluates 8.
DEFAULT_LOB_DEPTH = 64


@dataclass
class CoEmulationConfig:
    """All knobs of a co-emulation run.

    Defaults reproduce the paper's Table 2 environment: simulator at
    1,000 kcycles/s, accelerator at 10 Mcycles/s, LOB depth 64, 1,000
    rollback variables and the measured iPROVE PCI channel constants.

    Every field is a modelled quantity or a workload knob.  Host-side fast
    paths are not configured here: they are chosen with the engine, by
    registry preset (``engine="conventional_trace"``, ``--engine``,
    ``--trace``), and never change a result.
    """

    mode: OperatingMode = OperatingMode.ALS
    total_cycles: int = 10_000
    lob_depth: int = DEFAULT_LOB_DEPTH
    simulator_speed: DomainSpeed = DEFAULT_SIMULATOR_SPEED
    accelerator_speed: DomainSpeed = DEFAULT_ACCELERATOR_SPEED
    simulator_state_costs: StateCostModel = SIMULATOR_STATE_COSTS
    accelerator_state_costs: StateCostModel = ACCELERATOR_STATE_COSTS
    rollback_variables: Optional[int] = DEFAULT_ROLLBACK_VARIABLES
    channel_params: ChannelTimingParams = field(default_factory=ChannelTimingParams)
    forced_accuracy: Optional[float] = None
    forced_accuracy_seed: int = 2005
    predict_new_remote_bursts: bool = True
    interrupt_names: List[str] = field(default_factory=list)
    keep_channel_log: bool = False
    stop_when_workload_done: bool = False
    #: Activity-gated multi-domain synchronisation (Chandy-Misra-Bryant style
    #: null-message reduction).  With three or more domains, a domain whose
    #: boundary drive is unchanged since it was last shipped exchanges
    #: nothing; instead it advertises a *lookahead promise* ("nothing from me
    #: before cycle T") whenever its quiet horizon expires, and the
    #: multi-lagger follow-up batches its pairwise exchange into one access
    #: per channel per transition.  Functional behaviour is identical with
    #: the gate on or off (boundary values travel in-process either way) --
    #: only the modelled channel traffic and the host-side bookkeeping
    #: change.  The paper's two-domain topologies are unaffected either way.
    sync_gating: bool = True
    #: Multi-domain layout; ``None`` means the paper's canonical
    #: simulator/accelerator pair built from the per-kind fields above.
    topology: Optional[Topology] = None
    #: Imperfect-channel axis: when set (and not ideal), every sync-channel
    #: access runs through the seeded fault injector plus the selective-repeat
    #: reliability layer of :mod:`repro.channel.reliability`.  Boundary values
    #: still travel in-process, so the committed bus behaviour (and the beat
    #: digests derived from it) is identical to the ideal channel for any
    #: seed -- only the modelled times and the per-channel
    #: :class:`~repro.channel.stats.FaultStats` change.  ``None`` (or an
    #: all-zero config) keeps the ideal hot path byte-untouched.
    channel_faults: Optional[ChannelFaultConfig] = None

    def __post_init__(self) -> None:
        if self.total_cycles <= 0:
            raise ValueError("total_cycles must be positive")
        if self.lob_depth < 1:
            raise ValueError("lob_depth must be at least 1")
        if self.forced_accuracy is not None and not 0.0 <= self.forced_accuracy <= 1.0:
            raise ValueError("forced_accuracy must be within [0, 1]")

    # -- topology resolution ------------------------------------------------
    def resolve_topology(self) -> Topology:
        return self.topology if self.topology is not None else Topology.canonical_pair()

    def domain_speed(self, spec: DomainSpec) -> DomainSpeed:
        """Per-domain execution speed, falling back to the per-kind default."""
        if spec.speed is not None:
            return spec.speed
        if spec.kind is DomainKind.SIMULATOR:
            return self.simulator_speed
        return self.accelerator_speed

    def domain_state_costs(self, spec: DomainSpec) -> StateCostModel:
        """Per-domain checkpoint cost policy, falling back to the kind default."""
        if spec.state_costs is not None:
            return spec.state_costs
        if spec.kind is DomainKind.SIMULATOR:
            return self.simulator_state_costs
        return self.accelerator_state_costs


@dataclass
class CoEmulationResult:
    """Outcome of one co-emulation run."""

    mode: OperatingMode
    committed_cycles: int
    per_cycle_times: Dict[str, float]
    total_modelled_time: float
    performance_cycles_per_second: float
    channel: dict
    transitions: dict
    prediction: dict
    lob: dict
    sim_beat_keys: List[tuple]
    acc_beat_keys: List[tuple]
    monitors_ok: bool
    wasted_leader_cycles: int
    ledger: WallClockLedger
    #: Committed beat streams per domain id (covers every topology domain;
    #: ``sim_beat_keys`` / ``acc_beat_keys`` remain the canonical-pair views).
    domain_beat_keys: Dict[str, List[tuple]] = field(default_factory=dict)
    #: Periodic trace-replay counters (``{}`` for engines without the trace
    #: controller): enabled flag, replayed_cycles, verified_periods,
    #: replay_hits and a per-reason bailout histogram.  Host-side
    #: observability only -- never part of the modelled result.
    trace_replay: Dict[str, object] = field(default_factory=dict)

    @property
    def tsim(self) -> float:
        """Average simulator time per committed target cycle (Tsim.)."""
        return self.per_cycle_times.get("simulator", 0.0)

    @property
    def tacc(self) -> float:
        """Average accelerator time per committed target cycle (Tacc.)."""
        return self.per_cycle_times.get("accelerator", 0.0)

    @property
    def tstore(self) -> float:
        return self.per_cycle_times["state_store"]

    @property
    def trestore(self) -> float:
        return self.per_cycle_times["state_restore"]

    @property
    def tchannel(self) -> float:
        return self.per_cycle_times["channel"]

    def speedup_over(self, baseline: "CoEmulationResult") -> float:
        """Performance ratio of this run over ``baseline``."""
        if baseline.performance_cycles_per_second == 0:
            return float("inf")
        return self.performance_cycles_per_second / baseline.performance_cycles_per_second

    def summary_row(self) -> dict:
        """A flat dict convenient for tabular reports."""
        return {
            "mode": self.mode.value,
            "cycles": self.committed_cycles,
            "Tsim": self.tsim,
            "Tacc": self.tacc,
            "Tstore": self.tstore,
            "Trestore": self.trestore,
            "Tch": self.tchannel,
            "performance": self.performance_cycles_per_second,
            "channel_accesses": self.channel.get("accesses", 0),
            "prediction_accuracy": self.prediction.get("accuracy", 1.0),
            "rollbacks": self.transitions.get("rollbacks", 0),
        }


class ChargePlan:
    """A fixed sequence of channel accesses, charged in closed form.

    ``legs`` are ``(source_host, dest_host, words, purpose)`` in scalar
    order: the accesses of one idle lock-step cycle, or of one replayed trace
    period.  :meth:`apply` books ``count`` repetitions of them as the scalar
    path would -- integer counters by multiplication, float accumulators
    through the bit-exact :mod:`~repro.sim.batchmath` folds -- unless a leg
    needs per-access work: fault injection (per-access RNG draws), a relayed
    pair (per-hop charges) or a channel keeping an access log (per-access
    records).  Such a plan charges every access through the engine's
    per-access path instead.  Nothing a plan depends on (channel objects,
    word counts, timing params) changes after construction.
    """

    __slots__ = ("legs", "closed", "pattern", "per_channel")

    def __init__(self, engine: "CoEmulationEngineBase", legs: List[tuple]) -> None:
        self.legs = legs
        self.pattern: List[float] = []
        self.per_channel: List[list] = []
        channels = engine._channels
        self.closed = not engine._fault_links and all(
            (src.domain, dst.domain) in channels
            and not channels[(src.domain, dst.domain)][0].stats.keep_log
            for src, dst, _, _ in legs
        )
        if not self.closed:
            return
        per_channel: Dict[int, list] = {}
        for src, dst, words, purpose in legs:
            channel, direction = channels[(src.domain, dst.domain)]
            access_time = channel.params.access_time(direction, words)
            self.pattern.append(access_time)
            info = per_channel.get(id(channel))
            if info is None:
                info = per_channel[id(channel)] = [channel, [], 0, 0, {}, {}, {}]
            info[1].append(access_time)
            info[2] += 1
            info[3] += words
            info[4][direction] = info[4].get(direction, 0) + 1
            info[5][direction] = info[5].get(direction, 0) + words
            info[6][purpose] = info[6].get(purpose, 0) + 1
        self.per_channel = list(per_channel.values())

    def apply(self, engine: "CoEmulationEngineBase", cycle: int, count: int = 1) -> None:
        """Charge ``count`` repetitions of the legs, the first at ``cycle``."""
        if not self.closed:
            charge = engine._charge_channel
            for offset in range(count):
                for src, dst, words, purpose in self.legs:
                    charge(src, dst, words, purpose, cycle + offset)
            return
        if not self.legs or count <= 0:
            return
        buckets = engine.ledger.buckets
        buckets["channel"] = repeat_add_pattern(buckets["channel"], self.pattern, count)
        for channel, times, n_legs, n_words, dir_accesses, dir_words, purposes in self.per_channel:
            stats = channel.stats
            stats.accesses += n_legs * count
            stats.words += n_words * count
            stats.total_time = repeat_add_pattern(stats.total_time, times, count)
            for direction, n in dir_accesses.items():
                stats.per_direction_accesses[direction] += n * count
            for direction, w in dir_words.items():
                stats.per_direction_words[direction] += w * count
            per_purpose = stats.per_purpose_accesses
            for purpose, n in purposes.items():
                per_purpose[purpose] = per_purpose.get(purpose, 0) + n * count
            layers = channel.layers
            layer_times = channel.layer_times
            n_adds = n_legs * count
            layer_times.api = repeat_add(layer_times.api, layers.api_overhead, n_adds)
            layer_times.driver = repeat_add(layer_times.driver, layers.driver_overhead, n_adds)
            layer_times.physical = repeat_add(
                layer_times.physical, layers.physical_overhead, n_adds
            )


class CoEmulationEngineBase:
    """Shared plumbing of the conventional and optimistic engines."""

    #: Whether conservative cycles feed the per-domain predictors.  The
    #: optimistic engine needs the training (mode decisions and run-ahead
    #: quality depend on it); the purely conventional engine never predicts,
    #: so it skips the bookkeeping (host-side only -- no modelled quantity
    #: reads predictor state in a conservative run).
    observe_during_conservative = True

    #: Fast paths, off by default (the scalar oracle); see
    #: :meth:`enable_fast_paths`.  The run loops read them into locals once.
    quiescence_skip = False
    #: The periodic trace controller when :data:`PERIODIC_REPLAY` is on.
    replay = None

    def __init__(self, partition, config: CoEmulationConfig) -> None:
        if not partition:
            raise ValueError("co-emulation engines need a non-empty domain partition")
        partition = {Domain(domain): hbm for domain, hbm in partition.items()}
        self.topology = config.resolve_topology()
        if set(partition) != set(self.topology.domain_ids):
            raise ValueError(
                f"partition domains {sorted(d.value for d in partition)} do not match "
                f"the topology's domains {sorted(d.value for d in self.topology.domain_ids)}"
            )
        for domain, hbm in partition.items():
            if hbm is None or hbm.domain != domain:
                raise ValueError(
                    f"partition entry {domain.value!r} holds a half bus built for "
                    f"domain {getattr(hbm, 'domain', None)!r}"
                )
        self.config = config
        self.ledger = WallClockLedger()

        # Per-pair sync channels (one SimulatorAcceleratorChannel each).  The
        # ordered (source, dest) index resolves both the channel object and
        # the direction to charge; orientation follows topology domain order,
        # so the canonical pair keeps sim->acc == SIM_TO_ACC.
        self._channels: Dict[Tuple[Domain, Domain], Tuple[SimulatorAcceleratorChannel, ChannelDirection]] = {}
        self._channel_list: List[SimulatorAcceleratorChannel] = []
        for sync in self.topology.channels:
            channel = SimulatorAcceleratorChannel(
                params=sync.params or config.channel_params,
                keep_log=config.keep_channel_log,
            )
            first, second = self.topology.oriented_pair(sync)
            self._channels[(first, second)] = (channel, ChannelDirection.SIM_TO_ACC)
            self._channels[(second, first)] = (channel, ChannelDirection.ACC_TO_SIM)
            self._channel_list.append(channel)
        # Domain pairs without a direct sync channel (e.g. leaf-to-leaf in a
        # Topology.star farm) relay through the first domain connected to
        # both endpoints, paying one access per hop.
        self._relay_routes: Dict[Tuple[Domain, Domain], Tuple[Tuple[Domain, Domain], ...]] = {}
        ids = self.topology.domain_ids
        for src in ids:
            for dst in ids:
                if src == dst or (src, dst) in self._channels:
                    continue
                for via in ids:
                    if (src, via) in self._channels and (via, dst) in self._channels:
                        self._relay_routes[(src, dst)] = ((src, via), (via, dst))
                        break
        #: Legacy single-channel view (the canonical pair's only channel).
        self.channel = self._channel_list[0] if len(self._channel_list) == 1 else None

        # Imperfect-channel wiring: one modelled selective-repeat link per
        # ordered (source, dest) pair, each drawing from its own seeded
        # stream (derived from the fault seed plus the link coordinates, so
        # one link's schedule never depends on how many others exist).  Both
        # directions of a channel share that channel's FaultStats.  The
        # ideal hot path is untouched: ``_charge_channel`` is only shadowed
        # when a non-ideal fault config is present.
        self._fault_links: Dict[Tuple[Domain, Domain], SelectiveRepeatLink] = {}
        faults = config.channel_faults
        if faults is not None and not faults.is_ideal:
            for sync in self.topology.channels:
                first, second = self.topology.oriented_pair(sync)
                channel, _ = self._channels[(first, second)]
                channel.stats.faults = FaultStats()
                for src, dst in ((first, second), (second, first)):
                    _, direction = self._channels[(src, dst)]
                    injector = ChannelFaultInjector(
                        faults,
                        faults.derive_rng(src.value, dst.value, direction.value),
                        stats=channel.stats.faults,
                    )
                    self._fault_links[(src, dst)] = SelectiveRepeatLink(
                        channel, direction, faults, injector
                    )
            self._charge_channel = self._charge_channel_faulty  # type: ignore[method-assign]

        all_master_ids = sorted(
            {mid for hbm in partition.values() for mid in hbm.local_masters}
        )
        self.packetizer = BoundaryPacketizer(all_master_ids, config.interrupt_names)

        forced = (
            None
            if config.forced_accuracy is None
            else ForcedAccuracyModel(config.forced_accuracy, seed=config.forced_accuracy_seed)
        )
        self.hosts: Dict[Domain, DomainHost] = {}
        for spec in self.topology.domains:
            hbm = partition[spec.domain]
            hbm.finalize()
            remote_ids = sorted(set(all_master_ids) - set(hbm.local_masters))
            predictor = LaggerPredictor(
                _predictor_name(spec.domain),
                remote_master_ids=remote_ids,
                forced_accuracy=forced,
                predict_new_remote_bursts=config.predict_new_remote_bursts,
            )
            self.hosts[spec.domain] = DomainHost(
                DomainHostConfig(
                    domain=spec.domain,
                    speed=config.domain_speed(spec),
                    state_costs=config.domain_state_costs(spec),
                    rollback_variable_budget=config.rollback_variables,
                ),
                hbm=hbm,
                ledger=self.ledger,
                predictor=predictor,
            )
        self._host_list: List[DomainHost] = list(self.hosts.values())
        #: Canonical-pair aliases (``None`` when the topology lacks that id).
        self.sim_host = self.hosts.get(Domain.SIMULATOR)
        self.acc_host = self.hosts.get(Domain.ACCELERATOR)
        self.transitions = TransitionLog()
        # Activity-gate state (N>2 domains only): per source domain, the last
        # boundary drive actually shipped on its channels and the cycle until
        # which it has promised to stay quiet (-1 = no outstanding promise).
        # The gate models the channels' memory, so it lives on the engine and
        # is *not* rolled back -- values already shipped stay shipped.
        self._sync_gating = config.sync_gating and len(self._host_list) > 2
        self._last_broadcast: Dict[Domain, BoundaryDrive] = {}
        self._quiet_until: Dict[Domain, float] = {}
        # Per-domain local-slave id sets (rebuilt per cycle before this was
        # hoisted) and per-host execution bookkeeping for the inlined
        # lock-step commit loop.
        self._slave_ids_of: Dict[Domain, frozenset] = {
            host.domain: frozenset(host.hbm.local_slaves) for host in self._host_list
        }
        self._master_home: Dict[int, DomainHost] = {
            mid: host for host in self._host_list for mid in host.hbm.local_masters
        }
        #: Grant value after the last committed lock-step cycle (quiet-domain
        #: drive reuse is only valid while arbitration is stable).
        self._last_grant: Optional[int] = None
        #: Optional per-safe-point callable ``hook(engine)``, invoked by the
        #: run loops between committed transitions (never mid-transition).
        #: This is where durable snapshots, watchdog heartbeats, chaos
        #: injection and graceful-drain aborts attach; ``None`` (the default)
        #: costs one attribute read per safe point.  Hooks are host-local
        #: plumbing, never modelled state: they are stripped before a
        #: snapshot is taken and stay ``None`` on a restored engine.
        self.run_hook = None

    def enable_fast_paths(self, fast_paths) -> None:
        """Switch on the named fast paths (a subset of :data:`FAST_PATHS`).

        Called once, between construction and :meth:`run`, by
        :func:`~repro.core.engine.create_engine` for fast-path presets.
        """
        unknown = set(fast_paths) - FAST_PATHS
        if unknown:
            raise ValueError(f"unknown fast path(s): {sorted(unknown)}")
        self.quiescence_skip = QUIESCENCE_SKIP in fast_paths
        if PERIODIC_REPLAY in fast_paths:
            from .trace import PeriodicTraceController

            self.replay = PeriodicTraceController(self)

    # -- durable snapshots -------------------------------------------------------
    def _safe_point(self) -> None:
        """Invoke the run hook, if any.  Run loops call this exactly at the
        points where the engine state is self-consistent and snapshottable:
        the committed prefix is fully charged, no transition is in flight and
        no rollback checkpoint is outstanding."""
        hook = self.run_hook
        if hook is not None:
            hook(self)

    @classmethod
    def restore(cls, path) -> "CoEmulationEngineBase":
        """Load a durable snapshot and return the resumable engine.

        The returned engine continues from its snapshotted safe point:
        calling :meth:`run` commits the remaining cycles and produces a
        result bit-identical to an uninterrupted run.
        """
        from .snapshot import SnapshotError, load_engine

        engine = load_engine(path)
        if not isinstance(engine, cls):
            raise SnapshotError(
                f"snapshot at {path} holds a {type(engine).__name__}, "
                f"not a {cls.__name__}"
            )
        return engine

    # -- host helpers -----------------------------------------------------------
    def host_for(self, domain: Domain) -> DomainHost:
        return self.hosts[Domain(domain)]

    def other_host(self, host: DomainHost) -> DomainHost:
        """The single peer of ``host`` (two-domain topologies only)."""
        others = [h for h in self._host_list if h is not host]
        if len(others) != 1:
            raise TopologyError(
                "other_host() is only defined for two-domain topologies; "
                "enumerate engine.hosts instead"
            )
        return others[0]

    def peer_hosts(self, host: DomainHost) -> List[DomainHost]:
        """Every other host, in topology order."""
        return [h for h in self._host_list if h is not host]

    def _charge_channel(
        self, source: DomainHost, dest: DomainHost, n_words: int, purpose: str, cycle: int
    ) -> float:
        """Account one access of ``n_words`` words on the (source, dest) link.

        The boundary values themselves are handed across in-process; only the
        modelled access cost matters, so no message is materialised or
        retained (constant memory regardless of run length).  Pairs without a
        direct channel (restricted topologies such as hub-and-spoke stars)
        relay through an intermediate domain, paying one access per hop.
        """
        entry = self._channels.get((source.domain, dest.domain))
        if entry is None:
            return self._charge_relayed(source, dest, n_words, purpose, cycle)
        channel, direction = entry
        access_time = channel.stats.record_access(
            direction, n_words, purpose=purpose, target_cycle=cycle
        )
        layers = channel.layers
        layer_times = channel.layer_times
        layer_times.api += layers.api_overhead
        layer_times.driver += layers.driver_overhead
        layer_times.physical += layers.physical_overhead
        # Direct bucket update ("channel" is a canonical category and
        # access_time is non-negative by construction).
        self.ledger.buckets["channel"] += access_time
        return access_time

    def _charge_relayed(
        self, source: DomainHost, dest: DomainHost, n_words: int, purpose: str, cycle: int
    ) -> float:
        route = self._relay_routes.get((source.domain, dest.domain))
        if route is None:
            raise TopologyError(
                f"topology has no sync channel (or relay route) between "
                f"{source.domain.value!r} and {dest.domain.value!r}"
            )
        total = 0.0
        for hop_src, hop_dst in route:
            channel, direction = self._channels[(hop_src, hop_dst)]
            total += channel.charge(direction, n_words, purpose=purpose, target_cycle=cycle)
        self.ledger.charge("channel", total)
        return total

    def _charge_channel_faulty(
        self, source: DomainHost, dest: DomainHost, n_words: int, purpose: str, cycle: int
    ) -> float:
        """Fault-injected variant of :meth:`_charge_channel`.

        Installed (as an instance attribute shadowing the ideal method) only
        when ``config.channel_faults`` is active.  Each logical exchange runs
        the modelled selective-repeat delivery: the wire may drop, corrupt,
        duplicate, reorder or jitter the frame, retransmissions pay real
        modelled time with exponential-backoff RTO waits, and the SACK
        feedback frame pays the reverse direction.  Values still travel
        in-process, so nothing functional can diverge; a link degraded past
        the give-up threshold raises
        :class:`~repro.channel.faults.ChannelDegradedError`.
        """
        link = self._fault_links.get((source.domain, dest.domain))
        if link is None:
            route = self._relay_routes.get((source.domain, dest.domain))
            if route is None:
                raise TopologyError(
                    f"topology has no sync channel (or relay route) between "
                    f"{source.domain.value!r} and {dest.domain.value!r}"
                )
            total = 0.0
            for hop in route:
                total += self._fault_links[hop].deliver(n_words, purpose, cycle)
            self.ledger.charge("channel", total)
            return total
        total = link.deliver(n_words, purpose, cycle)
        self.ledger.buckets["channel"] += total
        return total

    # -- conservative (lock-step) cycle ---------------------------------------------
    def _slave_side_host(self) -> DomainHost:
        """The domain hosting the data-phase slave (first domain when idle/tied)."""
        info = self._host_list[0].hbm.core.data_phase_info()  # all cores agree
        if info.active:
            slave_ids_of = self._slave_ids_of
            for host in self._host_list:
                if info.slave_id in slave_ids_of[host.domain]:
                    return host
        return self._host_list[0]

    def run_conservative_cycle(self) -> None:
        """One conventionally synchronised target cycle.

        Every domain that does *not* host the active data-phase slave runs
        its drive step first and ships its contribution to each peer; the
        slave-side domain then completes the cycle and ships back its own
        contribution plus the response.  With two domains this is the
        paper's two-accesses-per-cycle exchange; with N domains each ordered
        pair pays one access per cycle; with one domain no channel is
        touched at all.
        """
        if len(self._host_list) == 2:
            # Hot path: the canonical pair keeps the straight-line exchange
            # (no per-cycle container churn), byte-identical to the general
            # loop below for two domains.
            second = self._slave_side_host()
            first = self.other_host(second)
            cycle = first.current_cycle

            first_drive = first.drive()
            self._charge_channel(
                first,
                second,
                self.packetizer.drive_word_count(first_drive),
                purpose="conservative_drive",
                cycle=cycle,
            )
            second_drive = second.drive()
            merged_second = second.hbm.merge_drive(second_drive, first_drive)
            response = second.respond(merged_second).response or DataPhaseResult.okay()
            second.commit(merged_second, response)

            reply_words = self.packetizer.drive_word_count(second_drive)
            reply_words += self.packetizer.response_word_count(response)
            self._charge_channel(
                second, first, reply_words, purpose="conservative_reply", cycle=cycle
            )

            merged_first = first.hbm.merge_drive(first_drive, second_drive)
            first.commit(merged_first, response)

            if self.observe_during_conservative:
                self._observe_actuals(first, second_drive, response)
                self._observe_actuals(second, first_drive, response)
            self.ledger.commit_cycles(1)
            self.transitions.record_conservative_cycle()
            return

        if self._sync_gating:
            self._run_conservative_cycle_gated()
            return

        responder = self._slave_side_host()
        others = [host for host in self._host_list if host is not responder]
        cycle = self._host_list[0].current_cycle

        drives: Dict[Domain, BoundaryDrive] = {}
        for host in others:
            drive = host.drive()
            drives[host.domain] = drive
            drive_words = self.packetizer.drive_word_count(drive)
            for dest in self._host_list:
                if dest is not host:
                    self._charge_channel(
                        host, dest, drive_words, purpose="conservative_drive", cycle=cycle
                    )

        responder_drive = responder.drive()
        drives[responder.domain] = responder_drive
        merged_responder = responder.hbm.merge_drives(
            responder_drive, [drives[host.domain] for host in others]
        ) if others else responder.hbm.merge_drive(
            responder_drive, BoundaryDrive(cycle=cycle)
        )
        response = responder.respond(merged_responder).response or DataPhaseResult.okay()
        responder.commit(merged_responder, response)

        reply_words = self.packetizer.drive_word_count(responder_drive)
        reply_words += self.packetizer.response_word_count(response)
        for dest in others:
            self._charge_channel(
                responder, dest, reply_words, purpose="conservative_reply", cycle=cycle
            )

        for host in others:
            merged = host.hbm.merge_drives(
                drives[host.domain],
                [drives[peer.domain] for peer in self._host_list if peer is not host],
            )
            host.commit(merged, response)

        if self.observe_during_conservative:
            for host in self._host_list:
                remote = [drives[peer.domain] for peer in self._host_list if peer is not host]
                if remote:
                    self._observe_actuals(host, merge_boundary_drives(remote), response)
        self.ledger.commit_cycles(1)
        self.transitions.record_conservative_cycle()

    def _run_conservative_cycle_gated(self) -> None:
        """One N-domain lock-step cycle with activity-gated channel traffic.

        Functionally identical to the ungated loop (every domain still drives,
        merges all peers' contributions and commits the same values -- the
        gating on/off equivalence tests enforce this); only the modelled
        channel accounting changes:

        * a domain ships its boundary drive to its peers only when the drive
          *changed* since it was last shipped (an unchanged drive carries no
          information -- the receivers keep the last value);
        * a quiet domain instead advertises a one-word *lookahead promise*
          ("nothing from me before cycle T", with T from
          :meth:`~repro.ahb.half_bus.HalfBusModel.influence_lookahead`)
          whenever its previous promise expires, the Chandy-Misra-Bryant
          null-message reduction -- a drained domain promises once and then
          stays silent;
        * the data-phase response is shipped by the responder only while a
          data phase is actually active (the idle OKAY is a constant).

        The per-cycle cost therefore scales with the number of *active*
        ordered pairs instead of all D*(D-1) pairs.
        """
        hosts = self._host_list
        responder = self._slave_side_host()
        cycle = hosts[0].current_cycle
        info = responder.hbm.core.data_phase_info()
        info_active = info.active
        packetizer = self.packetizer
        last_broadcast = self._last_broadcast
        quiet_until = self._quiet_until
        # Quiet-domain drive reuse: while arbitration is stable, a domain
        # holding an *infinite* lookahead promise (all local masters drained
        # or provably waiting), with no per-cycle components and not owning
        # the active data phase, must re-drive exactly the values it last
        # shipped -- its drive step is skipped and the shipped object reused.
        effective_grant = hosts[0].hbm.core.arbiter.current_grant
        grant_stable = effective_grant == self._last_grant
        # Record the grant *in effect this cycle*: the next cycle compares
        # its own effective grant against it, so a re-arbitration at this
        # cycle's commit is seen as unstable next cycle.
        self._last_grant = effective_grant
        owner_host = (
            self._master_home.get(info.owner_master_id) if info_active else None
        )

        drives: List[BoundaryDrive] = []
        for host in hosts:
            domain = host.domain
            if (
                grant_stable
                and host is not owner_host
                and quiet_until.get(domain, -1.0) == _INF
                and not host.hbm._tick_active
            ):
                drives.append(last_broadcast[domain])
                continue
            drive = host.hbm.drive_phase(cycle)
            drives.append(drive)
            last = last_broadcast.get(domain)
            if last is None or not drives_functionally_equal(drive, last):
                words = packetizer.drive_word_count(drive)
                for dest in hosts:
                    if dest is not host:
                        self._charge_channel(
                            host, dest, words, purpose="conservative_drive", cycle=cycle
                        )
                last_broadcast[domain] = drive
                quiet_until[domain] = -1.0
            elif quiet_until.get(domain, -1.0) <= cycle:
                # Quiet horizon expired: renew the lookahead promise (one
                # header word per channel).
                horizon = host.hbm.influence_lookahead(cycle)
                for dest in hosts:
                    if dest is not host:
                        self._charge_channel(
                            host, dest, 1, purpose="sync_promise", cycle=cycle
                        )
                quiet_until[domain] = horizon

        global_drive, _, response = self._commit_lockstep_cycle(
            hosts, cycle, info, drives, responder
        )
        if info_active:
            reply_words = packetizer.response_word_count(response)
            for dest in hosts:
                if dest is not responder:
                    self._charge_channel(
                        responder, dest, reply_words, purpose="conservative_reply", cycle=cycle
                    )

        if self.observe_during_conservative:
            # Per-host remote view derived from the global union (observe
            # only reads remote master ids from the request map, so handing
            # it the global map is equivalent to the peers-only union).
            phase_owner = phase_index = None
            for index, drive in enumerate(drives):
                if drive.address_phase is not None:
                    phase_index = index
                if drive.hwdata is not None:
                    phase_owner = index
            has_interrupts = bool(global_drive.interrupts)
            global_requests = global_drive.requests
            global_phase = global_drive.address_phase
            global_hwdata = global_drive.hwdata
            for index, host in enumerate(hosts):
                remote_view = BoundaryDrive(
                    cycle=cycle,
                    requests=global_requests,
                    address_phase=global_phase if phase_index != index else None,
                    hwdata=global_hwdata if phase_owner != index else None,
                    interrupts=(
                        _remote_interrupt_union(drives, index)
                        if has_interrupts
                        else _NO_INTERRUPTS
                    ),
                )
                self._observe_actuals(host, remote_view, response)
        self.ledger.commit_cycles(1)
        self.transitions.record_conservative_cycle()

    def _commit_lockstep_cycle(
        self,
        hosts: List[DomainHost],
        cycle: int,
        info,
        drives: List[BoundaryDrive],
        responder: Optional[DomainHost],
        fallback: Optional[DataPhaseResult] = None,
    ) -> Tuple[BoundaryDrive, Optional[DataPhaseResult], DataPhaseResult]:
        """Commit one lock-step cycle on every host of ``hosts``.

        ``drives`` are every contribution to the cycle and ``info`` the
        shared data-phase info.  In lock step every replicated core commits
        the *same* merged bus values: master ownership is disjoint across
        domains and at most one domain drives an address phase or write
        data, so the union of all contributions -- built once -- is exactly
        what each host's local-plus-peers merge would produce.  One shared
        DriveValues object, cycle record and completed beat serve every
        commit (nothing mutates committed values; the request dict is
        aliased by every core's latched register, which is read-only after
        commit).  The response is ``responder``'s (``None`` for none), else
        ``fallback``, else OKAY.

        Returns the global drive, the responder's own response and the
        committed response.
        """
        global_drive = merge_boundary_drives(drives)
        global_phase = global_drive.address_phase
        first_core = hosts[0].hbm.core
        merged = DriveValues(
            requests=global_drive.requests,
            address_phase=(
                global_phase
                if global_phase is not None
                else AddressPhase.idle_phase(first_core.arbiter.current_grant)
            ),
            hwdata=global_drive.hwdata,
            interrupts=global_drive.interrupts,
        )
        response = (
            None if responder is None else responder.hbm.response_phase(cycle, merged).response
        )
        committed = response or fallback or _OKAY
        record = BusCycleRecord(
            cycle=cycle,
            granted_master=first_core.arbiter.current_grant,
            address_phase=merged.address_phase,
            data_phase=first_core.data_phase,
            hwdata=merged.hwdata,
            response=committed,
            requests=merged.requests,
        )
        beat = None
        if info.active and committed.hready:
            phase = info.address_phase
            beat = CompletedBeat(
                cycle=cycle,
                master_id=phase.master_id,
                address=phase.haddr,
                write=phase.hwrite,
                data=merged.hwdata if phase.hwrite else committed.hrdata,
                hresp=committed.hresp,
                hburst=phase.hburst,
                hsize=phase.hsize,
                first_beat=phase.htrans is HTrans.NONSEQ,
            )
        for host in hosts:
            host.hbm.commit_lockstep(cycle, merged, committed, record, beat)
            host.advance(1)
        return global_drive, response, committed

    def _observe_actuals(
        self,
        observer: DomainHost,
        remote_drive: BoundaryDrive,
        response: Optional[DataPhaseResult],
    ) -> None:
        """Let a domain's predictor learn from actual remote values."""
        predictor = observer.predictor
        if predictor is None:
            return
        info = observer.hbm.core.data_phase_info()
        remote_slave = (
            info.slave_id
            if info.active and info.slave_id not in self._slave_ids_of[observer.domain]
            else None
        )
        predictor.observe(
            remote_drive,
            response if remote_slave is not None else None,
            slave_id=remote_slave,
        )

    # -- result packaging ------------------------------------------------------------
    def _workload_done(self) -> bool:
        return all(host.hbm.all_local_masters_done() for host in self._host_list)

    def _channel_stats_dict(self) -> dict:
        """Channel traffic totals: single-channel dict, or a mesh aggregate."""
        if len(self._channel_list) == 1:
            return self._channel_list[0].stats.as_dict()
        if not self._channel_list:
            return ChannelStats(params=self.config.channel_params, keep_log=False).as_dict()
        aggregate = {
            "accesses": 0,
            "words": 0,
            "total_time": 0.0,
            "startup_time": 0.0,
            "payload_time": 0.0,
            "per_purpose": {},
            "per_channel": {},
        }
        per_purpose: Dict[str, int] = aggregate["per_purpose"]
        for sync in self.topology.channels:
            first, second = self.topology.oriented_pair(sync)
            channel, _ = self._channels[(first, second)]
            stats = channel.stats.as_dict()
            aggregate["accesses"] += stats["accesses"]
            aggregate["words"] += stats["words"]
            aggregate["total_time"] += stats["total_time"]
            aggregate["startup_time"] += stats["startup_time"]
            aggregate["payload_time"] += stats["payload_time"]
            for purpose, count in stats["per_purpose"].items():
                per_purpose[purpose] = per_purpose.get(purpose, 0) + count
            aggregate["per_channel"][f"{first.value}<->{second.value}"] = {
                "accesses": stats["accesses"],
                "words": stats["words"],
                "total_time": stats["total_time"],
            }
        aggregate["words_per_access"] = (
            aggregate["words"] / aggregate["accesses"] if aggregate["accesses"] else 0.0
        )
        fault_totals: Optional[FaultStats] = None
        for channel in self._channel_list:
            if channel.stats.faults is not None:
                if fault_totals is None:
                    fault_totals = FaultStats()
                fault_totals.merge(channel.stats.faults)
        if fault_totals is not None:
            aggregate["faults"] = fault_totals.as_dict()
        return aggregate

    def _build_result(self, mode: OperatingMode, prediction: PredictionStats, lob: dict) -> CoEmulationResult:
        monitors_ok = True
        for host in self._host_list:
            if host.hbm.monitor is not None and not host.hbm.monitor.ok:
                monitors_ok = False
        domain_beat_keys = {
            host.domain.value: host.hbm.recorder.beat_keys() for host in self._host_list
        }
        return CoEmulationResult(
            mode=mode,
            committed_cycles=self.ledger.committed_cycles,
            per_cycle_times=self.ledger.per_cycle_breakdown(),
            total_modelled_time=self.ledger.total_seconds,
            performance_cycles_per_second=self.ledger.performance_cycles_per_second,
            channel=self._channel_stats_dict(),
            transitions=self.transitions.as_dict(),
            prediction=prediction.as_dict(),
            lob=lob,
            sim_beat_keys=domain_beat_keys.get(Domain.SIMULATOR.value, []),
            acc_beat_keys=domain_beat_keys.get(Domain.ACCELERATOR.value, []),
            monitors_ok=monitors_ok,
            wasted_leader_cycles=sum(host.wasted_cycles for host in self._host_list),
            ledger=self.ledger,
            domain_beat_keys=domain_beat_keys,
            trace_replay={} if self.replay is None else self.replay.stats.as_dict(),
        )


def _predictor_name(domain: Domain) -> str:
    if domain is Domain.SIMULATOR:
        return "sim_side_predictor"
    if domain is Domain.ACCELERATOR:
        return "acc_side_predictor"
    return f"{domain.value}_side_predictor"
