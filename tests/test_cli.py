"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


def test_table2_command_prints_paper_comparison(capsys):
    out = run_cli(capsys, "table2")
    assert "Table 2" in out
    assert "1.000" in out and "0.100" in out
    assert "ratio (paper)" in out


def test_figure4_command_prints_chart_with_legend(capsys):
    out = run_cli(capsys, "figure4")
    assert "Figure 4" in out
    assert "LOBdepth=64" in out and "LOBdepth=8" in out
    assert "conventional" in out


def test_sla_command(capsys):
    out = run_cli(capsys, "sla")
    assert "SLA" in out
    assert "break-even" in out


def test_conventional_command(capsys):
    out = run_cli(capsys, "conventional")
    assert "38.8k" in out or "38.9k" in out
    assert "28.8k" in out


def test_mechanism_command_small_sweep(capsys):
    out = run_cli(
        capsys, "mechanism", "--cycles", "120", "--accuracies", "1.0", "0.8"
    )
    assert "Mechanism-level" in out
    assert "conventional" in out
    assert "p=1" in out and "p=0.8" in out


def test_run_command_reports_breakdown(capsys):
    out = run_cli(capsys, "run", "--cycles", "150", "--mode", "als")
    assert "performance" in out
    assert "monitors clean" in out
    assert "True" in out


def test_run_command_conservative_mode(capsys):
    out = run_cli(capsys, "run", "--cycles", "100", "--mode", "conservative")
    assert "conservative" in out


def test_run_command_profile_dumps_pstats(capsys, tmp_path):
    import pstats

    target = tmp_path / "engine.pstats"
    out = run_cli(
        capsys, "run", "--cycles", "120", "--mode", "als", "--profile", str(target)
    )
    assert "performance" in out  # the normal run still happens and reports
    assert target.exists()
    stats = pstats.Stats(str(target))
    assert stats.total_calls > 0  # the engine loop was actually profiled


def test_run_command_profile_top_table_on_stderr(capsys, tmp_path):
    target = tmp_path / "engine.pstats"
    code = main(
        ["run", "--cycles", "120", "--mode", "als",
         "--profile", str(target), "--profile-top", "5"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Top 5 functions by cumulative time" in captured.err
    assert "cumtime" in captured.err
    assert "performance" in captured.out  # the run itself still reports


def test_run_command_profile_top_zero_disables_table(capsys, tmp_path):
    target = tmp_path / "engine.pstats"
    code = main(
        ["run", "--cycles", "120", "--mode", "als",
         "--profile", str(target), "--profile-top", "0"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "by cumulative time" not in captured.err
    assert target.exists()  # the dump itself is unaffected


def test_run_command_batch_engine(capsys):
    out = run_cli(
        capsys, "run", "--cycles", "150", "--mode", "als", "--engine", "als_batch"
    )
    assert "als_batch" in out
    assert "performance" in out


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_trace_with_explicit_engine_is_a_usage_error(capsys, command):
    """--trace picks the mode's trace preset; with --engine it would be
    silently ignored, so argparse refuses the pair (exit 2)."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--engine", "conventional", "--trace", "--cycles", "10"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--trace" in err and "--engine" in err


def test_sweep_trace_rows_use_trace_presets_and_match_scalar_rows(capsys, tmp_path):
    """--trace runs each grid point on its mode's trace preset; the records
    equal the scalar ones apart from the engine name, the request id, the
    digest and the replay counters."""
    from repro.orchestration import RunStore

    rows = {}
    for label, extra in (("scalar", []), ("trace", ["--trace"])):
        path = tmp_path / f"{label}.jsonl"
        argv = [
            "sweep",
            "--scenarios", "als_streaming", "sparse_telemetry",
            "--modes", "conservative", "als",
            "--cycles", "200",
            "--output", str(path),
            *extra,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        rows[label] = [record.as_dict() for record in RunStore(path).load()]
    presets = {"conservative": "conventional_trace", "als": "als_trace"}
    assert [row["engine"] for row in rows["trace"]] == [
        presets[row["mode"]] for row in rows["trace"]
    ]
    assert all(row["trace_replay"] for row in rows["trace"])
    dropped = ("request_id", "engine", "digest", "trace_replay")

    def strip(row):
        return {key: value for key, value in row.items() if key not in dropped}

    assert len(rows["trace"]) == len(rows["scalar"]) == 4
    assert [strip(row) for row in rows["trace"]] == [strip(row) for row in rows["scalar"]]


def test_scenarios_command_lists_catalog(capsys):
    out = run_cli(capsys, "scenarios")
    assert "Scenario catalog" in out
    for name in (
        "als_streaming",
        "sla_streaming",
        "mixed",
        "multi_master_contention",
        "dma_burst_storm",
        "interrupt_control",
        "sparse_telemetry",
        "rmw_fifo",
    ):
        assert name in out
    # at least 8 scenarios registered
    from repro.workloads import scenario_names

    assert len(scenario_names()) >= 8


def test_scenarios_command_tag_filter(capsys):
    out = run_cli(capsys, "scenarios", "--tag", "paper")
    assert "als_streaming" in out
    assert "dma_burst_storm" not in out


def test_scenarios_command_engine_column(capsys):
    out = run_cli(capsys, "scenarios", "--engine")
    assert "engines" in out
    assert "als_batch" in out
    assert "conventional_batch" in out
    # pseudo-engines that never touch the mechanism are excluded
    assert "analytical" not in out


def test_sweep_command_runs_grid(capsys):
    out = run_cli(
        capsys,
        "sweep",
        "--scenarios", "single_master",
        "--modes", "conservative", "als",
        "--cycles", "80",
    )
    assert "Sweep grid: 2 run(s)" in out
    assert "conservative" in out and "als" in out
    assert "digest" in out


def test_sweep_command_parallel_output_identical_to_serial(capsys):
    argv = [
        "sweep",
        "--scenarios", "single_master", "mixed",
        "--modes", "conservative", "als",
        "--cycles", "80",
    ]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    parallel = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel


def test_sweep_command_writes_run_store(capsys, tmp_path):
    path = tmp_path / "runs.jsonl"
    code = main(
        [
            "sweep",
            "--scenarios", "single_master",
            "--modes", "als",
            "--cycles", "60",
            "--output", str(path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    # the status line goes to stderr; stdout stays a deterministic artefact
    assert f"wrote 1 record(s) to {path}" in captured.err
    assert "Sweep grid" in captured.out
    from repro.orchestration import RunStore

    assert len(RunStore(path)) == 1


def test_sweep_command_cache_warm_run_is_all_hits(capsys, tmp_path):
    argv = [
        "sweep",
        "--scenarios", "single_master",
        "--modes", "conservative", "als",
        "--cycles", "60",
        "--cache", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "0 hit(s), 2 miss(es), 2 store(s)" in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "2 hit(s), 0 miss(es), 0 store(s)" in warm.err
    assert cold.out == warm.out


def test_sweep_command_resume_completes_a_torn_store(capsys, tmp_path):
    full = tmp_path / "full.jsonl"
    partial = tmp_path / "partial.jsonl"
    argv = [
        "sweep",
        "--scenarios", "single_master", "mixed",
        "--modes", "conservative", "als",
        "--cycles", "60",
    ]
    assert main(argv + ["--output", str(full)]) == 0
    full_out = capsys.readouterr().out
    # interrupted mid-grid: two whole records, the third torn mid-line
    lines = full.read_text().splitlines()
    partial.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[2][:50])
    assert main(argv + ["--output", str(partial), "--resume"]) == 0
    resumed = capsys.readouterr()
    assert "resume: 2 reusable, 2 to execute, 1 damaged line(s) dropped" in resumed.err
    assert resumed.out == full_out
    assert partial.read_bytes() == full.read_bytes()


def test_sweep_command_resume_requires_output(capsys):
    code = main(["sweep", "--scenarios", "single_master", "--resume"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--resume requires --output" in captured.err


def test_report_command_quick_twice_is_cached_and_byte_identical(capsys, tmp_path):
    argv = [
        "report",
        "--quick",
        "--artifacts", "table2", "mechanism_single_master",
        "--cache", str(tmp_path / "cache"),
    ]
    assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr()
    assert "cache hit(s)" in cold.err
    assert "0 executed" not in cold.err
    assert "table2" in cold.out and "mechanism_single_master" in cold.out
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    warm = capsys.readouterr()
    assert "0 executed" in warm.err
    assert cold.out == warm.out
    cold_files = sorted((tmp_path / "cold").iterdir())
    assert [p.name for p in cold_files] == sorted(
        ["MANIFEST.json", "table2.csv", "table2.json",
         "mechanism_single_master.csv", "mechanism_single_master.json"]
    )
    for path in cold_files:
        assert path.read_bytes() == (tmp_path / "warm" / path.name).read_bytes()


def test_report_command_unknown_artifact_exits_nonzero(capsys, tmp_path):
    code = main(
        ["report", "--quick", "--artifacts", "bogus", "--out", str(tmp_path / "a")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "bogus" in captured.err


def test_run_command_analytical_engine(capsys):
    out = run_cli(capsys, "run", "--engine", "analytical", "--cycles", "100")
    assert "analytical" in out


def test_version_flag_reports_pyproject_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    from repro.version import package_version

    assert package_version() in out
    assert package_version() != "0+unknown"


def test_failing_subcommand_exits_nonzero(capsys):
    code = main(["sweep", "--scenarios", "single_master", "--engine", "bogus"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err
    assert "bogus" in captured.err


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-command"])


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_with_faulty_scenario_reports_fault_counters(capsys):
    out = run_cli(capsys, "run", "--soc", "lossy_streaming", "--cycles", "120")
    assert "channel faults" in out
    assert "retx" in out


def test_run_command_loss_shortcut_on_ideal_scenario(capsys):
    out = run_cli(
        capsys, "run", "--soc", "mixed", "--cycles", "120", "--loss", "0.05"
    )
    assert "channel faults" in out


def test_run_command_faults_json_inline(capsys):
    out = run_cli(
        capsys, "run", "--soc", "mixed", "--cycles", "100",
        "--faults", '{"loss_rate": 0.02, "seed": 4}',
    )
    assert "channel faults" in out


def test_run_command_empty_faults_forces_ideal_channel(capsys):
    out = run_cli(
        capsys, "run", "--soc", "lossy_streaming", "--cycles", "100",
        "--faults", "{}",
    )
    assert "channel faults" not in out


def test_run_command_rejects_bad_faults_json(capsys):
    code = main(["run", "--soc", "mixed", "--faults", '{"loss_rtae": 0.1}'])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown channel-fault field" in captured.err


def test_sweep_command_faulty_tag_parallel_matches_serial(capsys):
    argv = [
        "sweep", "--tag", "faulty", "--modes", "als",
        "--cycles", "100", "--seed", "7",
    ]
    serial = run_cli(capsys, *argv, "--jobs", "1")
    parallel = run_cli(capsys, *argv, "--jobs", "2")
    assert serial == parallel
    assert "lossy_streaming" in serial


# ---------------------------------------------------------------------------
# Fleet sweeps and the worker subcommand.
# ---------------------------------------------------------------------------

def test_sweep_fleet_stdout_and_store_byte_identical_to_serial(capsys, tmp_path):
    argv = [
        "sweep",
        "--scenarios", "single_master", "mixed",
        "--modes", "conservative", "als",
        "--cycles", "60",
    ]
    serial_path = tmp_path / "serial.jsonl"
    assert main(argv + ["--jobs", "1", "--output", str(serial_path)]) == 0
    serial = capsys.readouterr()
    fleet_path = tmp_path / "fleet.jsonl"
    assert main(
        argv
        + [
            "--fleet", "1",
            "--cache", str(tmp_path / "cache"),
            "--fleet-poll", "0.02",
            "--output", str(fleet_path),
        ]
    ) == 0
    fleet = capsys.readouterr()
    # The deterministic artefact (stdout + store bytes) must not change; all
    # the fleet chatter (worker table, summary) belongs to stderr.
    assert fleet.out == serial.out
    assert fleet_path.read_bytes() == serial_path.read_bytes()
    assert "TOTAL" in fleet.err
    assert "reconciliation pass(es)" in fleet.err


def test_sweep_fleet_requires_cache(capsys):
    code = main(["sweep", "--scenarios", "single_master", "--fleet", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--fleet requires --cache" in captured.err


def test_sweep_fleet_rejects_resume_and_jobs(capsys, tmp_path):
    base = [
        "sweep", "--scenarios", "single_master",
        "--fleet", "1", "--cache", str(tmp_path / "cache"),
    ]
    code = main(base + ["--resume", "--output", str(tmp_path / "out.jsonl")])
    assert code == 1
    assert "drop --resume" in capsys.readouterr().err
    code = main(base + ["--jobs", "2"])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_worker_command_joins_a_published_sweep(capsys, tmp_path):
    from repro.orchestration import grid_requests, publish_grid

    cache = tmp_path / "cache"
    publish_grid(
        cache,
        grid_requests(
            scenarios=["single_master"], modes=["als"], cycles=60
        ),
    )
    out = run_cli(
        capsys, "worker", "--cache", str(cache), "--owner", "cli-probe",
        "--poll", "0.02",
    )
    assert "cli-probe" in out
    assert "executed" in out


def test_worker_command_without_manifest_exits_nonzero(capsys, tmp_path):
    code = main(["worker", "--cache", str(tmp_path / "nowhere")])
    captured = capsys.readouterr()
    assert code == 1
    assert "--fleet" in captured.err  # the hint names the publishing command


# ---------------------------------------------------------------------------
# Durable runs, supervision and the exit-code taxonomy.
# ---------------------------------------------------------------------------

def test_run_durable_checkpoint_output_identical_and_cleaned_up(capsys, tmp_path):
    plain = run_cli(capsys, "run", "--cycles", "150", "--mode", "als")
    durable = run_cli(
        capsys, "run", "--cycles", "150", "--mode", "als",
        "--checkpoint-every", "40", "--snapshot-dir", str(tmp_path / "snaps"),
    )
    assert durable == plain  # durability must not perturb the result
    assert list((tmp_path / "snaps").glob("*.snap")) == []  # consumed on success


def test_run_supervised_output_identical(capsys, tmp_path):
    plain = run_cli(capsys, "run", "--cycles", "120", "--mode", "conservative",
                    "--soc", "single_master")
    supervised = run_cli(
        capsys, "run", "--cycles", "120", "--mode", "conservative",
        "--soc", "single_master", "--deadline", "60",
        "--snapshot-dir", str(tmp_path / "snaps"),
    )
    assert supervised == plain


def test_run_deterministic_degradation_exits_13(capsys):
    code = main([
        "run", "--soc", "mixed", "--mode", "als", "--cycles", "300",
        "--faults", '{"loss_rate": 1.0, "max_attempts": 3}',
    ])
    captured = capsys.readouterr()
    assert code == 13
    assert "degraded" in captured.err


def test_run_supervised_degradation_prints_quarantine_table(capsys, tmp_path):
    code = main([
        "run", "--soc", "mixed", "--mode", "als", "--cycles", "300",
        "--faults", '{"loss_rate": 1.0, "max_attempts": 3}',
        "--deadline", "60", "--snapshot-dir", str(tmp_path / "snaps"),
    ])
    captured = capsys.readouterr()
    assert code == 13
    assert "quarantined" in captured.out or "quarantined" in captured.err
    assert "degraded" in captured.out


def test_sweep_supervised_chaos_kill_retried_to_identical_bytes(capsys, tmp_path):
    argv = [
        "sweep", "--scenarios", "single_master", "als_streaming",
        "--modes", "conservative", "--cycles", "150",
    ]
    assert main(argv + ["--output", str(tmp_path / "plain.jsonl")]) == 0
    plain = capsys.readouterr()
    report = tmp_path / "quarantine.json"
    code = main(argv + [
        "--output", str(tmp_path / "chaos.jsonl"),
        "--snapshot-dir", str(tmp_path / "snaps"),
        "--checkpoint-every", "30", "--deadline", "60",
        "--chaos-seed", "11", "--chaos-kill", "0.45",
        "--quarantine-report", str(report),
    ])
    chaos = capsys.readouterr()
    assert code == 0  # every sabotaged point was retried to success
    assert chaos.out == plain.out
    assert (tmp_path / "chaos.jsonl").read_bytes() == (
        tmp_path / "plain.jsonl"
    ).read_bytes()
    assert not (tmp_path / "chaos.jsonl.failures").exists()
    import json as _json

    payload = _json.loads(report.read_text())
    assert payload == {"total": 0, "by_kind": {}, "failures": []}


def test_sweep_poison_exits_12_with_sidecar_and_report(capsys, tmp_path):
    report = tmp_path / "quarantine.json"
    code = main([
        "sweep", "--scenarios", "single_master", "als_streaming",
        "--modes", "conservative", "--cycles", "150",
        "--output", str(tmp_path / "runs.jsonl"),
        "--snapshot-dir", str(tmp_path / "snaps"),
        "--deadline", "60", "--max-retries", "1",
        "--chaos-seed", "11", "--chaos-kill", "0.45", "--chaos-every-attempt",
        "--quarantine-report", str(report),
    ])
    captured = capsys.readouterr()
    assert code == 12  # poison: retries exhausted
    assert "Quarantine" in captured.err
    import json as _json

    payload = _json.loads(report.read_text())
    assert payload["by_kind"] == {"poison": payload["total"]}
    assert payload["total"] >= 1
    sidecar = tmp_path / "runs.jsonl.failures"
    assert sidecar.exists()
    assert len(sidecar.read_text().splitlines()) == payload["total"]
    # The store holds only healthy records -- failures never leak into it.
    store_lines = (tmp_path / "runs.jsonl").read_text().splitlines()
    assert len(store_lines) == 2 - payload["total"]


def test_sweep_timeout_exits_10(capsys, tmp_path):
    code = main([
        "sweep", "--scenarios", "single_master", "--modes", "conservative",
        "--cycles", "150", "--deadline", "1.0", "--max-retries", "0",
        "--chaos-seed", "0", "--chaos-kill", "0.0",
        "--chaos-hang", "1.0", "--chaos-hang-seconds", "30",
        "--chaos-every-attempt",
        "--snapshot-dir", str(tmp_path / "snaps"),
    ])
    captured = capsys.readouterr()
    assert code == 10
    assert "timeout" in captured.err


def test_sweep_resume_rejects_supervision(capsys, tmp_path):
    code = main([
        "sweep", "--scenarios", "single_master", "--cycles", "60",
        "--resume", "--output", str(tmp_path / "runs.jsonl"),
        "--deadline", "5",
    ])
    assert code == 1
    assert "--resume cannot combine" in capsys.readouterr().err


def test_sweep_fleet_rejects_deadline(capsys, tmp_path):
    code = main([
        "sweep", "--scenarios", "single_master", "--cycles", "60",
        "--fleet", "1", "--cache", str(tmp_path / "cache"), "--deadline", "5",
    ])
    assert code == 1
    assert "--fleet-ttl" in capsys.readouterr().err


def test_worker_parser_accepts_durability_flags():
    args = build_parser().parse_args([
        "worker", "--cache", "somewhere", "--drain-on-signal",
        "--checkpoint-every", "500", "--max-retries", "3",
    ])
    assert args.drain_on_signal is True
    assert args.checkpoint_every == 500
    assert args.max_retries == 3
    defaults = build_parser().parse_args(["worker", "--cache", "somewhere"])
    assert defaults.drain_on_signal is False
    assert defaults.max_retries is None
