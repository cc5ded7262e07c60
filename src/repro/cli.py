"""Command-line interface.

Exposes the reproduction's experiments without writing any Python::

    python -m repro table2                  # Table 2 (analytical)
    python -m repro figure4                 # Figure 4 (analytical, ASCII chart)
    python -m repro sla                     # SLA summary
    python -m repro conventional            # conventional baselines
    python -m repro scenarios               # the workload catalog
    python -m repro mechanism --cycles 400  # protocol-level accuracy sweep
    python -m repro run --mode als --cycles 1000 --accuracy 0.9
    python -m repro sweep --scenarios als_streaming mixed --jobs 4
    python -m repro sweep --cache .repro-cache --output runs.jsonl --resume
    python -m repro sweep --fleet 4 --cache /shared/sweep --output runs.jsonl
    python -m repro worker --cache /shared/sweep   # join from any host
    python -m repro report --quick --cache .repro-cache --out artifacts

Every sub-command prints a plain-text table (and, where applicable, the
paper's published values next to the reproduced ones).  Engine selection goes
through the engine registry and workloads through the scenario catalog, so
plugins registered by downstream code appear here automatically.  A failing
sub-command exits non-zero with the error on stderr, so the CLI is scriptable
in CI.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .analysis.artifacts import run_pipeline, write_artifacts
from .analysis.fleet import render_fleet_stats
from .analysis.metrics import per_domain_utilisation, summarize_counts, trace_replay_share
from .analysis.report import Series, render_ascii_chart, render_table
from .channel.faults import ChannelDegradedError, ChannelFaultConfig
from .core.topology import Topology
from .version import package_version
from .core.analytical import (
    AnalyticalConfig,
    PAPER_CONVENTIONAL_100K,
    PAPER_CONVENTIONAL_1000K,
    PAPER_TABLE2,
    conventional_performance,
    figure4,
    sla_summary,
    table2,
)
from .core.modes import OperatingMode
from .orchestration import (
    DEFAULT_LEASE_TTL,
    DEFAULT_POLL_INTERVAL,
    BatchRunner,
    ChaosConfig,
    CheckpointPolicy,
    DurableRunEvents,
    EXIT_CODES,
    FleetStats,
    ResultCache,
    RunFailure,
    RunRecord,
    RunRequest,
    RunStore,
    execute_request,
    execute_request_durable,
    failures_path,
    grid_requests,
    load_quarantine,
    plan_resume,
    quarantine_report,
    run_fleet,
    run_worker,
    sweep_exit_code,
    write_failures,
)
from .workloads.catalog import build_scenario, list_scenarios, scenario_names


def _parse_topology(text: Optional[str]) -> Optional[Dict[str, Any]]:
    """Parse a ``--topology`` argument: inline JSON or a path to a JSON file.

    Returns the serialised-topology dict (validated by round-tripping it
    through :meth:`Topology.from_dict`) or ``None`` when no override given.
    """
    if text is None:
        return None
    stripped = text.strip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
    else:
        payload = json.loads(Path(text).read_text())
    return Topology.from_dict(payload).as_dict()


def _parse_faults(text: Optional[str], loss: Optional[float] = None) -> Optional[Dict[str, Any]]:
    """Parse ``--faults`` (inline JSON or a path) plus the ``--loss`` shortcut.

    Returns a serialised :class:`ChannelFaultConfig` dict (validated by
    round-tripping it) or ``None`` when neither option was given.  ``--loss``
    alone builds a pure i.i.d.-loss config; combined with ``--faults`` it
    overrides that config's ``loss_rate``.
    """
    if text is None and loss is None:
        return None
    if text is None:
        payload: Dict[str, Any] = {}
    else:
        stripped = text.strip()
        if stripped.startswith("{"):
            payload = json.loads(stripped)
        else:
            payload = json.loads(Path(text).read_text())
    if loss is not None:
        payload["loss_rate"] = loss
    return ChannelFaultConfig.from_dict(payload).as_dict()


def _scenario_domains(name: str) -> str:
    """The ``a+b+c`` topology rendering of a catalog scenario."""
    return build_scenario(name).resolved_topology().describe()


def _checkpoint_policy(args: argparse.Namespace) -> Optional[CheckpointPolicy]:
    """The :class:`CheckpointPolicy` requested by ``--checkpoint-*`` flags,
    or ``None`` when neither flag was given (durability stays opt-in)."""
    if args.checkpoint_every is None and args.checkpoint_seconds is None:
        return None
    return CheckpointPolicy(
        every_cycles=args.checkpoint_every,
        every_seconds=args.checkpoint_seconds,
    )


def _chaos_config(args: argparse.Namespace) -> Optional[ChaosConfig]:
    """The :class:`ChaosConfig` requested by ``--chaos-*`` flags, or ``None``
    when every probability is zero (no chaos)."""
    if not (args.chaos_kill or args.chaos_hang or args.chaos_disk_full):
        return None
    return ChaosConfig(
        seed=args.chaos_seed,
        kill_probability=args.chaos_kill,
        hang_probability=args.chaos_hang,
        disk_full_probability=args.chaos_disk_full,
        hang_seconds=args.chaos_hang_seconds,
        once=not args.chaos_every_attempt,
    )


def _render_failures(failures: List[RunFailure], title: str) -> str:
    """A quarantine table (deterministic fields only, so stdout-safe)."""
    rows = [
        [
            failure.scenario,
            failure.mode,
            failure.label,
            failure.kind,
            str(failure.attempts),
            str(failure.exit_code),
            failure.message.splitlines()[-1] if failure.message else "-",
        ]
        for failure in failures
    ]
    return render_table(
        ["scenario", "mode", "label", "kind", "attempts", "exit code", "message"],
        rows,
        title=title,
    )


def _write_quarantine_report(path: str, failures: List[RunFailure]) -> None:
    """Write the machine-readable quarantine summary for CI to branch on."""
    report = quarantine_report(failures)
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"quarantine: wrote report for {report['total']} failure(s) to {path}",
        file=sys.stderr,
    )


def _run_on_fleet(
    requests: List[RunRequest],
    coordination: Optional[str],
    workers: int,
    args: argparse.Namespace,
    **options: Any,
) -> Tuple[List[RunRecord], List[RunFailure], FleetStats]:
    """Run ``requests`` supervised on the claim-board fleet.

    ``coordination`` is the fleet directory (claims, attempt ledger,
    snapshots, results); ``None`` uses a temporary one, removed afterwards.
    Returns ``(records, failures, stats)``.
    """
    root = coordination or tempfile.mkdtemp(prefix="repro-fleet-")
    try:
        records, stats = run_fleet(
            requests,
            root,
            workers=workers,
            checkpoint=_checkpoint_policy(args),
            max_retries=2 if args.max_retries is None else args.max_retries,
            deadline=args.deadline,
            log=lambda message: print(f"fleet: {message}", file=sys.stderr),
            **options,
        )
        failures = load_quarantine(root, stats.sweep_id)
    finally:
        if coordination is None:
            shutil.rmtree(root, ignore_errors=True)
    if stats.unfinished:
        raise ValueError(
            f"{stats.unfinished} point(s) have failed or running attempts but "
            "neither a record nor a verdict; let their workers finish, or "
            "drive the sweep with --fleet N"
        )
    return records, failures, stats


def _cmd_table2(args: argparse.Namespace) -> str:
    rows = []
    for estimate in table2():
        paper = PAPER_TABLE2[round(estimate.prediction_accuracy, 3)]
        rows.append(
            [
                f"{estimate.prediction_accuracy:.3f}",
                f"{estimate.t_acc:.2e}",
                f"{estimate.t_channel:.2e}",
                f"{estimate.performance / 1000:.0f}k",
                f"{paper['performance'] / 1000:.0f}k",
                f"{estimate.ratio:.2f}",
                f"{paper['ratio']:.2f}",
            ]
        )
    return render_table(
        ["accuracy", "Tacc", "Tch", "perf (repro)", "perf (paper)", "ratio (repro)", "ratio (paper)"],
        rows,
        title="Table 2: Performance of ALS (analytical reproduction vs paper)",
    )


def _cmd_figure4(args: argparse.Namespace) -> str:
    markers = {
        "Sim=100k, LOBdepth=64": "a",
        "Sim=100k, LOBdepth=8": "b",
        "Sim=1000k, LOBdepth=64": "C",
        "Sim=1000k, LOBdepth=8": "D",
    }
    series = [
        Series(
            label=label,
            x=[e.prediction_accuracy for e in estimates],
            y=[e.performance for e in estimates],
            marker=markers.get(label, "*"),
        )
        for label, estimates in figure4().items()
    ]
    return render_ascii_chart(
        series,
        title="Figure 4: ALS performance vs prediction accuracy",
        x_label="prediction accuracy",
        y_label="cycles/s",
        reference_lines={
            "conventional @1000k": PAPER_CONVENTIONAL_1000K,
            "conventional @100k": PAPER_CONVENTIONAL_100K,
        },
    )


def _cmd_sla(args: argparse.Namespace) -> str:
    summary = sla_summary()
    rows = [
        [
            f"{int(speed / 1000)}k",
            f"{values['max_gain']:.2f}",
            f"{values['max_performance'] / 1000:.0f}k",
            f"{values['breakeven_accuracy']:.2f}",
            f"{values['conventional_performance'] / 1000:.1f}k",
        ]
        for speed, values in sorted(summary.items())
    ]
    return render_table(
        ["simulator speed", "max gain", "max perf", "break-even accuracy", "conventional"],
        rows,
        title="SLA summary (paper: gains 3.25 / 15.34, break-even 0.98 / 0.70)",
    )


def _cmd_conventional(args: argparse.Namespace) -> str:
    rows = []
    for speed, paper in ((1_000_000.0, PAPER_CONVENTIONAL_1000K), (100_000.0, PAPER_CONVENTIONAL_100K)):
        perf = conventional_performance(AnalyticalConfig(simulator_cycles_per_second=speed))
        rows.append([f"{int(speed / 1000)}k", f"{perf / 1000:.1f}k", f"{paper / 1000:.1f}k"])
    return render_table(
        ["simulator speed", "reproduced", "paper"],
        rows,
        title="Conventional (lock-step) co-emulation performance",
    )


def _profile_top_table(stats, n: int) -> str:
    """Render the top ``n`` profiled functions by cumulative time."""
    entries = sorted(
        stats.stats.items(), key=lambda item: item[1][3], reverse=True
    )[:n]
    rows = []
    for (filename, lineno, funcname), (_, ncalls, tottime, cumtime, _) in entries:
        if filename == "~":  # builtins have no file
            location = funcname
        else:
            location = f"{'/'.join(Path(filename).parts[-2:])}:{lineno}({funcname})"
        rows.append([str(ncalls), f"{tottime:.3f}", f"{cumtime:.3f}", location])
    return render_table(
        ["ncalls", "tottime", "cumtime", "function"],
        rows,
        title=f"Top {len(rows)} functions by cumulative time",
    )


def _cmd_scenarios(args: argparse.Namespace) -> str:
    infos = list_scenarios(tag=args.tag)
    headers = ["scenario", "domains", "tags", "masters", "slaves", "description"]
    if args.engine:
        headers.insert(2, "engines")
        # Every mechanism engine (the pseudo-engines that never touch the
        # split are excluded) is swept over every catalog scenario by the
        # equivalence suites, so coverage is catalog-wide by construction.
        from .core.engine import available_engines

        covered = ", ".join(
            sorted(name for name, info in available_engines().items() if info.requires_split)
        )
    rows = []
    for info in infos:
        spec = info.builder()
        row = [
            info.name,
            spec.resolved_topology().describe(),
            ", ".join(info.tags) or "-",
            str(len(spec.masters)),
            str(len(spec.slaves)),
            info.description,
        ]
        if args.engine:
            row.insert(2, covered)
        rows.append(row)
    suffix = f" tagged {args.tag!r}" if args.tag else ""
    return render_table(
        headers,
        rows,
        title=f"Scenario catalog: {len(infos)} registered SoC configuration(s){suffix}",
    )


def _cmd_mechanism(args: argparse.Namespace) -> str:
    requests = [
        RunRequest(
            scenario=args.soc,
            mode="conservative",
            cycles=args.cycles,
            label="conventional",
        )
    ] + [
        RunRequest(
            scenario=args.soc,
            mode="als",
            cycles=args.cycles,
            accuracy=accuracy,
            label=f"p={accuracy:g}",
        )
        for accuracy in args.accuracies
    ]
    records = BatchRunner(jobs=args.jobs).run(requests)
    conventional, points = records[0], records[1:]
    rows = [
        [
            record.label,
            f"{record.performance / 1000:.1f}k",
            f"{record.performance / conventional.performance:.2f}",
            str(record.transitions["rollbacks"]),
            str(record.channel["accesses"]),
        ]
        for record in points
    ]
    rows.append(
        [
            "conventional",
            f"{conventional.performance / 1000:.1f}k",
            "1.00",
            "0",
            str(conventional.channel["accesses"]),
        ]
    )
    return render_table(
        ["accuracy", "performance", "gain", "rollbacks", "channel accesses"],
        rows,
        title=f"Mechanism-level ALS sweep on '{args.soc}' ({args.cycles} cycles)",
    )


def _kernel_refusals(engine) -> Dict[str, int]:
    """Aggregate :class:`~repro.sim.kernel.CycleKernel` fast-forward refusal
    tallies reachable from an engine.

    The co-emulation engines drive the half bus models directly, but
    kernel-backed components (reference buses, accelerator wrappers) may hang
    off the hosts; the probe is defensive so either layout reports.
    """
    totals: Dict[str, int] = {}
    for host in getattr(engine, "_host_list", None) or []:
        stats = getattr(getattr(host, "kernel", None), "stats", None)
        refusals = getattr(stats, "fast_forward_refusals", None)
        if refusals:
            for reason, count in refusals.items():
                totals[reason] = totals.get(reason, 0) + count
    return totals


def _trace_preset(mode: str) -> str:
    """The fast-path preset ``--trace`` selects for ``mode``."""
    return "conventional_trace" if mode == OperatingMode.CONSERVATIVE.value else "als_trace"


def _cmd_run(args: argparse.Namespace) -> Union[str, Tuple[str, int]]:
    topology = _parse_topology(args.topology)
    channel_faults = _parse_faults(args.faults, args.loss)
    request = RunRequest(
        scenario=args.soc,
        mode=args.mode,
        cycles=args.cycles,
        lob_depth=args.lob_depth,
        accuracy=args.accuracy,
        engine=_trace_preset(args.mode) if args.trace else args.engine,
        topology=topology,
        channel_faults=channel_faults,
    )
    if args.profile:
        # Profile exactly the engine loop (scenario build and result
        # packaging excluded) so perf PRs start from data, not guesses.
        import cProfile
        import pstats

        spec = build_scenario(request.scenario, **dict(request.scenario_params))
        config, partition = spec.prepare_run(request.build_config())
        from .core import create_engine

        engine = create_engine(config, partition=partition, engine=request.engine)
        profiler = cProfile.Profile()
        profiler.enable()
        profiled_result = engine.run()
        profiler.disable()
        profiler.dump_stats(args.profile)
        top = pstats.Stats(profiler)
        print(
            f"profile: {int(top.total_calls)} calls in {top.total_tt:.3f}s "
            f"-> {args.profile} (inspect with `python -m pstats {args.profile}`)",
            file=sys.stderr,
        )
        if args.profile_top > 0:
            print(_profile_top_table(top, args.profile_top), file=sys.stderr)
        # Fast-forward diagnostics for perf work: why cycles ran scalar.
        trace = profiled_result.trace_replay
        if trace:
            share = trace_replay_share(trace, profiled_result.committed_cycles)
            bailouts = summarize_counts(trace.get("bailouts", {})) or "none"
            print(
                f"profile: trace replay {'on' if trace.get('enabled') else 'off'}, "
                f"{trace.get('replayed_cycles', 0)} cycles replayed ({share:.1%}), "
                f"bailouts: {bailouts}",
                file=sys.stderr,
            )
        refusals = _kernel_refusals(engine)
        if refusals:
            print(
                f"profile: kernel fast-forward refusals: {summarize_counts(refusals)}",
                file=sys.stderr,
            )
    checkpoint = _checkpoint_policy(args)
    if args.deadline is not None or args.max_retries is not None:
        # Supervised: one fleet worker runs the attempts, retries resume
        # from the latest snapshot.  Without --snapshot-dir the fleet
        # directory is scoped to this invocation.
        records, failures, _ = _run_on_fleet(
            [request], args.snapshot_dir, workers=1, args=args
        )
        if failures:
            failure = failures[0]
            print(
                f"run: {failure.kind} after {failure.attempts} attempt(s): "
                f"{failure.message.splitlines()[-1] if failure.message else '-'}",
                file=sys.stderr,
            )
            return (
                _render_failures([failure], title=f"Run quarantined on '{args.soc}'"),
                failure.exit_code,
            )
        record = records[0]
    elif checkpoint is not None or args.snapshot_dir is not None:
        # Durable (unsupervised): write snapshots, resume from a leftover
        # one if a previous invocation was interrupted mid-run.
        snapshot_dir = args.snapshot_dir or ".repro-snapshots"
        events = DurableRunEvents()
        record = execute_request_durable(
            request,
            snapshot_dir,
            policy=checkpoint or CheckpointPolicy(),
            events=events,
        )
        if events.resumed_from_cycle is not None:
            print(
                f"durable: resumed from cycle {events.resumed_from_cycle}",
                file=sys.stderr,
            )
        if events.snapshots_written or events.snapshot_write_errors:
            print(
                f"durable: {events.snapshots_written} snapshot(s) written, "
                f"{events.snapshot_write_errors} write error(s)",
                file=sys.stderr,
            )
    else:
        record = execute_request(request)
    times = record.per_cycle_times
    if topology is not None:
        domains = Topology.from_dict(topology).describe()
    else:
        domains = _scenario_domains(args.soc)
    rows = [
        ["mode", record.mode],
        ["engine", record.engine],
        ["domains", domains],
        ["committed cycles", str(record.committed_cycles)],
        ["performance", f"{record.performance / 1000:.1f} kcycles/s"],
        [
            "Tsim / Tacc",
            f"{times.get('simulator', 0.0):.2e} / {times.get('accelerator', 0.0):.2e}",
        ],
        ["Tstore / Trestore", f"{times['state_store']:.2e} / {times['state_restore']:.2e}"],
        ["Tch", f"{times['channel']:.2e}"],
        ["channel accesses", str(record.channel.get("accesses", 0))],
        ["prediction accuracy", f"{record.prediction.get('accuracy', 1.0):.3f}"],
        ["rollbacks", str(record.transitions.get("rollbacks", 0))],
        ["monitors clean", str(record.monitors_ok)],
    ]
    trace = record.trace_replay
    if trace:
        share = trace_replay_share(trace, record.committed_cycles)
        rows.append(
            [
                "trace replay",
                f"{trace.get('replayed_cycles', 0)} cycles ({share:.1%}), "
                f"{trace.get('verified_periods', 0)} verified period(s), "
                f"{trace.get('replay_hits', 0)} hit(s)",
            ]
        )
        bailouts = trace.get("bailouts") or {}
        if bailouts:
            rows.append(["trace bailouts", summarize_counts(bailouts)])
    faults = record.channel.get("faults")
    if faults is not None:
        rows.append(
            [
                "channel faults",
                f"{faults['drops']} drop / {faults['retransmissions']} retx / "
                f"{faults['corruptions']} corrupt / {faults['duplicates']} dup",
            ]
        )
    # Sorted so the rendering is stable no matter where the record came from
    # (a live engine keeps insertion order; a fleet worker or cache hit
    # round-trips through canonical JSON, which sorts keys).
    for domain, share in sorted(per_domain_utilisation(times).items()):
        rows.append([f"utilisation[{domain}]", f"{share:.1%}"])
    return render_table(["quantity", "value"], rows, title=f"Co-emulation run on '{args.soc}'")


def _cmd_sweep(args: argparse.Namespace) -> Union[str, Tuple[str, int]]:
    if args.tag and args.scenarios is not None:
        raise ValueError("--scenarios and --tag are mutually exclusive")
    if args.tag:
        scenarios = scenario_names(tag=args.tag)
        if not scenarios:
            raise ValueError(f"no scenarios tagged {args.tag!r}")
    else:
        scenarios = args.scenarios if args.scenarios is not None else ["als_streaming"]
    accuracies: List[Optional[float]] = args.accuracies if args.accuracies else [None]
    topology = _parse_topology(args.topology)
    channel_faults = _parse_faults(args.faults, args.loss)
    requests = grid_requests(
        scenarios=scenarios,
        modes=args.modes,
        accuracies=accuracies,
        lob_depths=args.lob_depths,
        cycles=args.cycles,
        base_seed=args.seed,
        engine=args.engine,
        topology=topology,
        channel_faults=channel_faults,
    )
    if args.trace:
        requests = [replace(r, engine=_trace_preset(r.mode)) for r in requests]
    cache = ResultCache(args.cache) if args.cache else None
    store = RunStore(args.output) if args.output else None
    runner = BatchRunner(jobs=args.jobs)
    chaos = _chaos_config(args)
    supervised = (
        args.deadline is not None
        or args.max_retries is not None
        or chaos is not None
    )
    on_fleet = args.fleet is not None or supervised
    failures: List[RunFailure] = []
    if args.fleet is not None:
        if not args.cache:
            raise ValueError(
                "--fleet requires --cache (the shared coordination directory)"
            )
        if args.resume:
            raise ValueError(
                "--fleet already reconciles crash-tolerantly; drop --resume"
            )
        if args.jobs != 1:
            raise ValueError(
                "--fleet and --jobs are mutually exclusive (fleet workers are "
                "processes already)"
            )
    elif supervised and args.resume:
        raise ValueError(
            "--resume cannot combine with supervision; supervised sweeps "
            "already resume retries from their own snapshots"
        )
    if on_fleet:
        records, failures, fleet_stats = _run_on_fleet(
            requests,
            args.cache,
            workers=args.jobs if args.fleet is None else args.fleet,
            args=args,
            store=store,
            ttl=args.fleet_ttl,
            poll_interval=args.fleet_poll,
            kill_after=args.fleet_kill_after,
            chaos=chaos,
        )
        # Operational stats go to stderr: stdout must stay byte-identical
        # to the same grid swept with --jobs 1.
        print(render_fleet_stats(fleet_stats), file=sys.stderr)
        print(f"fleet: {fleet_stats.summary()}", file=sys.stderr)
    elif args.resume:
        if store is None:
            raise ValueError("--resume requires --output (the store to resume)")
        plan = plan_resume(requests, store)
        executed = runner.run(plan.missing, cache=cache)
        by_id = dict(plan.reusable)
        for record in executed:
            by_id[record.request_id] = record
        # Rewriting the whole store in grid order makes a resumed store
        # byte-identical to one produced by an uninterrupted sweep.
        records = [by_id[request.request_id] for request in requests]
        print(f"resume: {plan.summary()}", file=sys.stderr)
    else:
        records = runner.run(requests, cache=cache)
    if not on_fleet:
        if cache is not None:
            print(f"cache: {cache.stats.summary()}", file=sys.stderr)
        if store is not None:
            # The fleet path's reconciliation already wrote the store.
            store.write(records)
    if store is not None:
        # Failures go to a sidecar, never the store: the store's bytes stay
        # identical to a fully healthy serial sweep.  An empty failure list
        # removes a stale sidecar from an earlier attempt.
        write_failures(failures_path(args.output), failures)
    if args.quarantine_report is not None:
        _write_quarantine_report(args.quarantine_report, failures)
    if failures:
        print(
            _render_failures(
                failures, title=f"Quarantine: {len(failures)} failed point(s)"
            ),
            file=sys.stderr,
        )
    if topology is not None:
        override_domains = Topology.from_dict(topology).describe()
        domains_by_scenario = {name: override_domains for name in scenarios}
    else:
        domains_by_scenario = {name: _scenario_domains(name) for name in scenarios}
    rows = [
        [
            record.scenario,
            domains_by_scenario.get(record.scenario, "-"),
            record.mode,
            "-" if record.accuracy is None else f"{record.accuracy:g}",
            str(record.lob_depth),
            str(record.committed_cycles),
            f"{record.performance / 1000:.1f}k",
            str(record.channel.get("accesses", 0)),
            str(record.transitions.get("rollbacks", 0)),
            "-"
            if not record.trace_replay
            else f"{trace_replay_share(record.trace_replay, record.committed_cycles):.0%}",
            record.digest,
        ]
        for record in records
    ]
    if args.output:
        # Status goes to stderr so stdout stays a deterministic artefact
        # (byte-identical across --jobs and across output paths).
        print(f"wrote {len(records)} record(s) to {args.output}", file=sys.stderr)
    table = render_table(
        ["scenario", "domains", "mode", "accuracy", "lob", "cycles", "performance",
         "channel accesses", "rollbacks", "trace%", "digest"],
        rows,
        title=f"Sweep grid: {len(records)} run(s) over {len(scenarios)} scenario(s)",
    )
    code = sweep_exit_code(failures)
    return table if code == 0 else (table, code)


def _cmd_worker(args: argparse.Namespace) -> str:
    stats = run_worker(
        args.cache,
        owner=args.owner,
        ttl=args.ttl,
        poll_interval=args.poll,
        kill_after=args.kill_after,
        checkpoint=_checkpoint_policy(args),
        max_retries=2 if args.max_retries is None else args.max_retries,
        drain_on_signal=args.drain_on_signal,
        deadline=args.deadline,
    )
    return render_fleet_stats(stats)


def _cmd_report(args: argparse.Namespace) -> str:
    cache = ResultCache(args.cache) if args.cache else None
    result = run_pipeline(
        quick=args.quick, jobs=args.jobs, cache=cache, names=args.artifacts
    )
    manifest = write_artifacts(result.artifacts, args.out)
    # Execution statistics go to stderr: they differ between cold and warm
    # caches, while stdout (like the artifact files) must not.
    print(f"report: {result.summary()}", file=sys.stderr)
    print(
        f"wrote {len(manifest)} artifact file(s) + MANIFEST.json to {args.out}",
        file=sys.stderr,
    )
    rows = []
    for artifact in result.artifacts:
        if artifact.name.startswith("mechanism_"):
            domains = _scenario_domains(artifact.name[len("mechanism_"):])
        else:
            domains = "-"  # analytical artifacts never build the mechanism
        rows.append(
            [
                artifact.name,
                domains,
                str(len(artifact.rows)),
                manifest[artifact.name + ".csv"][:12],
                artifact.title,
            ]
        )
    return render_table(
        ["artifact", "domains", "rows", "csv sha256", "title"],
        rows,
        title=f"Paper-artifact pipeline: {len(result.artifacts)} artifact(s)"
        f"{' (quick grid)' if args.quick else ''}",
    )


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="CYCLES",
        help="write a durable engine snapshot every N committed cycles "
             "(deterministic cadence; resume is bit-identical)",
    )
    parser.add_argument(
        "--checkpoint-seconds", type=float, default=None, metavar="SECONDS",
        help="write a durable engine snapshot every N wall-clock seconds "
             "(combines with --checkpoint-every: whichever is due first)",
    )


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    _add_checkpoint_args(parser)
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="supervise: SIGKILL an attempt that runs past this wall-clock "
             "budget (exit code 10 when the point times out for good)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="supervise: attempts beyond the first a point may spend, each "
             "resuming from the latest snapshot, before it is quarantined as "
             "poison (default 2; counted on the fleet's shared attempt "
             "ledger, so it is fleet-wide)",
    )


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed for the deterministic chaos schedule (which requests get "
             "sabotaged, and at which cycle)",
    )
    parser.add_argument(
        "--chaos-kill", type=float, default=0.0, metavar="P",
        help="chaos: share of requests whose process SIGKILLs itself at a "
             "mid-run safe point",
    )
    parser.add_argument(
        "--chaos-hang", type=float, default=0.0, metavar="P",
        help="chaos: share of requests that hang at a mid-run safe point "
             "(pair with --deadline or a fleet lease TTL)",
    )
    parser.add_argument(
        "--chaos-disk-full", type=float, default=0.0, metavar="P",
        help="chaos: share of requests whose snapshot writes fail with "
             "ENOSPC (runs continue; durability degrades)",
    )
    parser.add_argument(
        "--chaos-hang-seconds", type=float, default=120.0, metavar="SECONDS",
        help="chaos: how long an injected hang sleeps (default 120)",
    )
    parser.add_argument(
        "--chaos-every-attempt", action="store_true",
        help="chaos: fire on every attempt instead of once per (request, "
             "action) -- turns sabotaged points into poison points",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the DATE 2005 prediction packetizing scheme",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="Table 2 (analytical)").set_defaults(func=_cmd_table2)
    sub.add_parser("figure4", help="Figure 4 (analytical, ASCII)").set_defaults(func=_cmd_figure4)
    sub.add_parser("sla", help="SLA summary").set_defaults(func=_cmd_sla)
    sub.add_parser("conventional", help="conventional baselines").set_defaults(
        func=_cmd_conventional
    )

    scenarios = sub.add_parser("scenarios", help="list the workload catalog")
    scenarios.add_argument("--tag", default=None, help="only scenarios with this tag")
    scenarios.add_argument(
        "--engine", action="store_true",
        help="add a column listing the registered engines with equivalence "
             "coverage for each scenario",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    mechanism = sub.add_parser("mechanism", help="protocol-level accuracy sweep")
    mechanism.add_argument("--cycles", type=int, default=400)
    mechanism.add_argument("--soc", choices=scenario_names(), default="als_streaming")
    mechanism.add_argument(
        "--accuracies",
        type=float,
        nargs="+",
        default=[1.0, 0.99, 0.9, 0.6],
    )
    mechanism.add_argument("--jobs", type=int, default=1, help="worker processes")
    mechanism.set_defaults(func=_cmd_mechanism)

    run = sub.add_parser("run", help="one co-emulation run")
    run.add_argument("--mode", choices=[m.value for m in OperatingMode], default="als")
    run.add_argument("--cycles", type=int, default=1000)
    run.add_argument("--lob-depth", type=int, default=64)
    run.add_argument("--accuracy", type=float, default=None)
    run.add_argument("--soc", choices=scenario_names(), default="als_streaming")
    # --trace picks the mode's trace preset, so it cannot combine with an
    # explicit --engine (argparse rejects the pair with exit code 2).
    run_engine = run.add_mutually_exclusive_group()
    run_engine.add_argument(
        "--engine",
        default=None,
        help="force a registered engine (e.g. 'analytical') instead of the mode default",
    )
    run_engine.add_argument(
        "--trace", action="store_true",
        help="run the mode's trace preset (conventional_trace / als_trace): "
             "periodic trace replay, bit-identical to the scalar engine, only "
             "faster on periodic steady states",
    )
    run.add_argument(
        "--topology", default=None, metavar="JSON|PATH",
        help="topology override: inline JSON or a path to a Topology.as_dict() "
             "JSON file (default: the scenario's own topology)",
    )
    run.add_argument(
        "--faults", default=None, metavar="JSON|PATH",
        help="channel-fault override: inline JSON or a path to a "
             "ChannelFaultConfig.as_dict() JSON file (default: the scenario's "
             "own channel; '{}' forces the ideal channel on a faulty scenario)",
    )
    run.add_argument(
        "--loss", type=float, default=None, metavar="RATE",
        help="shortcut: i.i.d. frame-loss rate in [0, 1] (combines with "
             "--faults by overriding its loss_rate)",
    )
    run.add_argument(
        "--profile", default=None, metavar="OUT.pstats",
        help="cProfile the engine loop of an extra identical run and dump "
             "the stats to this path (inspect with `python -m pstats`)",
    )
    run.add_argument(
        "--profile-top", type=int, default=10, metavar="N",
        help="with --profile: also print the top N functions by cumulative "
             "time as a readable table (default 10; 0 disables the table)",
    )
    _add_supervision_args(run)
    run.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="where durable snapshots live (default: '.repro-snapshots' for "
             "plain durable runs; under supervision the fleet directory, a "
             "fresh temporary one by default)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a scenario x mode x accuracy x LOB grid (parallelisable)"
    )
    sweep.add_argument(
        "--scenarios", nargs="+", default=None, metavar="NAME",
        help="catalog scenarios to sweep (default als_streaming; see 'scenarios')",
    )
    sweep.add_argument("--tag", default=None,
                       help="sweep every scenario with this tag (excludes --scenarios)")
    sweep.add_argument(
        "--modes", nargs="+", default=["conservative", "als"],
        choices=[m.value for m in OperatingMode], metavar="MODE",
    )
    sweep.add_argument(
        "--accuracies", type=float, nargs="*", default=[],
        help="forced prediction accuracies (default: the real predictor)",
    )
    sweep.add_argument("--lob-depths", type=int, nargs="+", default=[64])
    sweep.add_argument("--cycles", type=int, default=300)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--seed", type=int, default=2005, help="base seed for the grid")
    sweep_engine = sweep.add_mutually_exclusive_group()
    sweep_engine.add_argument(
        "--engine", default=None,
        help="force a registered engine for every run (e.g. 'analytical')",
    )
    sweep_engine.add_argument(
        "--trace", action="store_true",
        help="run every grid point on its mode's trace preset (bit-identical "
             "results; the trace%% column shows the replayed-cycle share)",
    )
    sweep.add_argument(
        "--topology", default=None, metavar="JSON|PATH",
        help="topology override applied to every grid point (inline JSON or "
             "a path to a Topology.as_dict() JSON file)",
    )
    sweep.add_argument(
        "--faults", default=None, metavar="JSON|PATH",
        help="channel-fault override applied to every grid point (inline JSON "
             "or a path to a ChannelFaultConfig.as_dict() JSON file)",
    )
    sweep.add_argument(
        "--loss", type=float, default=None, metavar="RATE",
        help="shortcut: i.i.d. frame-loss rate applied to every grid point",
    )
    sweep.add_argument("--output", default=None, metavar="PATH",
                       help="write records to a JSON-lines run store")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="content-addressed result cache; hits skip execution")
    sweep.add_argument(
        "--resume", action="store_true",
        help="reuse intact records already in --output and execute only the "
             "grid points that are missing (tolerates a torn/partial store); "
             "the store is rewritten to exactly this grid",
    )
    sweep.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help="distributed mode: publish the grid manifest into --cache, spawn "
             "N local work-stealing workers (0 = reconcile-only: finalize a "
             "sweep executed by external `repro worker` processes), restart "
             "crashed workers, and reconcile a store byte-identical to "
             "--jobs 1; workers on other hosts join via `repro worker "
             "--cache DIR` on the same shared directory",
    )
    sweep.add_argument(
        "--fleet-ttl", type=float, default=DEFAULT_LEASE_TTL, metavar="SECONDS",
        help="lease time-to-live: a claim whose heartbeat stalls this long is "
             "stolen; must comfortably exceed the heartbeat interval (ttl/4) "
             f"(default {DEFAULT_LEASE_TTL:g}s)",
    )
    sweep.add_argument(
        "--fleet-poll", type=float, default=DEFAULT_POLL_INTERVAL,
        metavar="SECONDS",
        help="idle re-scan interval for workers and the driver "
             f"(default {DEFAULT_POLL_INTERVAL:g}s)",
    )
    sweep.add_argument(
        "--fleet-kill-after", type=int, default=None, metavar="N",
        help="crash-tolerance test hook: the first worker SIGKILLs itself "
             "while holding its next claim after N executions (CI uses 0 to "
             "guarantee a dangling lease that must be stolen)",
    )
    _add_supervision_args(sweep)
    _add_chaos_args(sweep)
    sweep.add_argument(
        "--quarantine-report", default=None, metavar="PATH",
        help="write a machine-readable JSON summary of quarantined points "
             "(kind counts + full failure records); written even when empty "
             "so CI can assert on it",
    )
    sweep.set_defaults(func=_cmd_sweep)

    worker = sub.add_parser(
        "worker",
        help="join a published fleet sweep from this host (work-stealing; "
             "exits when the shared grid is fully cached)",
    )
    worker.add_argument(
        "--cache", required=True, metavar="DIR",
        help="the sweep's shared cache directory (holds the grid manifest, "
             "claim leases and result shards)",
    )
    worker.add_argument(
        "--owner", default=None,
        help="worker identity in leases and stats (default: hostname-pid)",
    )
    worker.add_argument(
        "--ttl", type=float, default=DEFAULT_LEASE_TTL, metavar="SECONDS",
        help=f"lease time-to-live (default {DEFAULT_LEASE_TTL:g}s; must match "
             "the fleet's order of magnitude, not its exact value)",
    )
    worker.add_argument(
        "--poll", type=float, default=DEFAULT_POLL_INTERVAL, metavar="SECONDS",
        help="idle re-scan interval "
             f"(default {DEFAULT_POLL_INTERVAL:g}s)",
    )
    worker.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="crash-tolerance test hook: SIGKILL self while holding the next "
             "claim after N executions",
    )
    _add_supervision_args(worker)
    worker.add_argument(
        "--drain-on-signal", action="store_true",
        help="on SIGTERM/SIGINT: snapshot the in-flight run, release all "
             "leases, flush stats and exit 0 -- a successor resumes the "
             "point mid-run instead of replaying it",
    )
    worker.set_defaults(func=_cmd_worker)

    report = sub.add_parser(
        "report",
        help="reproduce the paper artifacts (Table 2, Figure 4, mechanism "
             "tables) through the orchestrator into canonical CSV/JSON files",
    )
    report.add_argument("--quick", action="store_true",
                        help="cut-down grids (CI smoke / fast local check)")
    report.add_argument("--jobs", type=int, default=1, help="worker processes")
    report.add_argument("--cache", default=None, metavar="DIR",
                        help="content-addressed result cache; hits skip execution")
    report.add_argument("--out", default="artifacts", metavar="DIR",
                        help="artifact output directory (default: artifacts/)")
    report.add_argument(
        "--artifacts", nargs="+", default=None, metavar="NAME",
        help="only these artifacts (e.g. table2 figure4 mechanism_mixed)",
    )
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
        # Commands report structured outcomes as (text, exit_code); plain
        # strings mean success.  The codes are the supervisor taxonomy
        # (timeout 10, crash 11, poison 12, degraded 13) so scripts and CI
        # branch on *what* failed without parsing output.
        code = 0
        if isinstance(result, tuple):
            result, code = result
        if result:
            print(result)
        return code
    except BrokenPipeError:  # output piped into a closed reader (e.g. head)
        return 0
    except SystemExit:
        raise
    except ChannelDegradedError as exc:
        # A deterministic channel degradation is an expected outcome of the
        # modelled channel, distinct from an operator error.
        print(f"repro: degraded: {exc}", file=sys.stderr)
        return EXIT_CODES["degraded"]
    except Exception as exc:  # scriptability: non-zero exit, error on stderr
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
