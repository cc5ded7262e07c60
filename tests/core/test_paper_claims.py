"""Paper-claim regression tests.

Each test pins one quantitative or qualitative claim from the paper to the
reproduction.  Absolute agreement is not expected everywhere (the paper's
exact analytical derivation is unpublished and its testbed is hardware), but
the headline numbers, orderings and crossovers must hold.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import PaperComparison, crossover_accuracy
from repro.core import (
    CoEmulationConfig,
    ConventionalCoEmulation,
    OperatingMode,
    OptimisticCoEmulation,
)
from repro.core.analytical import (
    AnalyticalConfig,
    PAPER_ALS_MAX_GAIN_1000K,
    PAPER_CONVENTIONAL_100K,
    PAPER_CONVENTIONAL_1000K,
    PAPER_SLA_MAX_GAIN_100K,
    PAPER_SLA_MAX_GAIN_1000K,
    PAPER_TABLE2,
    conventional_performance,
    estimate_performance,
    figure4,
    sla_summary,
    table2,
)
from repro.workloads import als_streaming_soc


class TestChannelCharacterisation:
    """Section 1.2: the channel constants and their consequences."""

    def test_conventional_cycle_is_startup_dominated(self):
        config = AnalyticalConfig()
        cycle_time = 1.0 / conventional_performance(config)
        startup = 2 * config.channel.startup_overhead
        assert startup / cycle_time > 0.9

    def test_payload_amortisation_claim(self):
        """Sending 64 cycles worth of data in one access costs far less than
        64 separate accesses."""
        config = AnalyticalConfig()
        one_big = config.channel.startup_overhead + 64 * config.channel.acc_to_sim_word_time
        many_small = 64 * (config.channel.startup_overhead + config.channel.acc_to_sim_word_time)
        assert many_small / one_big > 40


class TestConventionalBaseline:
    def test_38_9_and_28_8_kcycles(self):
        assert conventional_performance(AnalyticalConfig()) == pytest.approx(
            PAPER_CONVENTIONAL_1000K, rel=0.02
        )
        assert conventional_performance(
            AnalyticalConfig(simulator_cycles_per_second=100_000.0)
        ) == pytest.approx(PAPER_CONVENTIONAL_100K, rel=0.02)


class TestAbstractHeadline:
    def test_1500_percent_gain_at_perfect_accuracy(self):
        """Abstract: 'a performance gain of 1500% compared to the conventional
        one' under ideal (100 % accuracy) conditions."""
        estimate = estimate_performance(AnalyticalConfig(prediction_accuracy=1.0))
        assert estimate.ratio > 15.0


class TestTable2:
    def test_ratio_column_within_tolerance(self):
        comparison = PaperComparison.from_mappings(
            "Table 2 ratio",
            paper={f"p={p}": PAPER_TABLE2[p]["ratio"] for p in PAPER_TABLE2},
            measured={
                f"p={round(e.prediction_accuracy, 3)}": e.ratio for e in table2()
            },
        )
        assert comparison.max_error() < 0.30
        # high-accuracy points are tight
        tight = [row for row in comparison.rows if float(row.name.split("=")[1]) >= 0.9]
        assert all(row.error < 0.10 for row in tight)

    def test_als_gain_matches_paper_at_p1(self):
        estimate = estimate_performance(AnalyticalConfig(prediction_accuracy=1.0))
        assert estimate.ratio == pytest.approx(PAPER_ALS_MAX_GAIN_1000K, rel=0.05)

    def test_als_crossover_with_conventional_near_p_0_1(self):
        """Paper Table 2: ratio drops to 0.94 at 10 % accuracy, i.e. the
        crossover with the conventional scheme happens around p ~ 0.1."""
        estimates = table2()
        accuracies = [e.prediction_accuracy for e in estimates]
        ratios = [e.ratio for e in estimates]
        crossing = crossover_accuracy(accuracies, ratios, threshold=1.0)
        assert crossing is not None
        assert 0.05 < crossing < 0.40

    def test_degradation_is_dominated_by_leader_time_and_channel(self):
        """Section 6: 'the biggest degradation comes from the increased number
        of clock cycles to be processed by leader and channel accesses.'"""
        low = estimate_performance(AnalyticalConfig(prediction_accuracy=0.3))
        degradation_terms = {
            "leader": low.t_acc,
            "channel": low.t_channel,
            "store": low.t_store,
            "restore": low.t_restore,
        }
        assert degradation_terms["channel"] > degradation_terms["store"] * 100
        assert degradation_terms["leader"] > degradation_terms["restore"] * 10


class TestSlaClaims:
    def test_max_gains(self):
        summary = sla_summary()
        assert summary[1_000_000.0]["max_gain"] == pytest.approx(
            PAPER_SLA_MAX_GAIN_1000K, rel=0.05
        )
        assert summary[100_000.0]["max_gain"] == pytest.approx(
            PAPER_SLA_MAX_GAIN_100K, rel=0.05
        )

    def test_sla_is_more_sensitive_to_accuracy_than_als(self):
        """Section 6: 'SLA suffers more from low prediction accuracies'
        because leader (simulator) time dominates."""
        for accuracy in (0.9, 0.6, 0.3):
            als = estimate_performance(
                AnalyticalConfig(mode=OperatingMode.ALS, prediction_accuracy=accuracy)
            )
            sla = estimate_performance(
                AnalyticalConfig(mode=OperatingMode.SLA, prediction_accuracy=accuracy)
            )
            assert sla.ratio < als.ratio

    def test_slower_simulator_needs_higher_accuracy_to_break_even(self):
        summary = sla_summary()
        assert (
            summary[100_000.0]["breakeven_accuracy"]
            > summary[1_000_000.0]["breakeven_accuracy"]
        )


class TestFigure4Claims:
    def test_reference_lines_match_conventional_baselines(self):
        series = figure4()
        for label, estimates in series.items():
            conventional = estimates[0].conventional_performance
            if "Sim=100k" in label:
                assert conventional == pytest.approx(PAPER_CONVENTIONAL_100K, rel=0.02)
            else:
                assert conventional == pytest.approx(PAPER_CONVENTIONAL_1000K, rel=0.02)

    def test_lob_depth_helps_high_accuracy_hurts_low_accuracy(self):
        series = figure4()
        for sim in ("100k", "1000k"):
            deep = series[f"Sim={sim}, LOBdepth=64"]
            shallow = series[f"Sim={sim}, LOBdepth=8"]
            assert deep[0].performance > shallow[0].performance  # p = 1.0
            assert deep[-1].performance < shallow[-1].performance  # p = 0.1


class TestMechanismReproducesTrends:
    """The protocol-level simulation (not just the closed-form model) must
    show the same qualitative behaviour."""

    @pytest.fixture(scope="class")
    def mechanism_results(self):
        results = {}
        for accuracy in (1.0, 0.9, 0.5):
            partition = als_streaming_soc(n_bursts=10).build_partition()
            config = CoEmulationConfig(
                mode=OperatingMode.ALS,
                total_cycles=400,
                forced_accuracy=None if accuracy == 1.0 else accuracy,
            )
            results[accuracy] = OptimisticCoEmulation(partition, config).run()
        results["conventional"] = ConventionalCoEmulation(
            als_streaming_soc(n_bursts=10).build_partition(),
            CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=400),
        ).run()
        return results

    def test_substantial_gain_at_high_accuracy(self, mechanism_results):
        gain = mechanism_results[1.0].speedup_over(mechanism_results["conventional"])
        assert gain > 5.0

    def test_gain_decreases_with_accuracy(self, mechanism_results):
        perfs = [
            mechanism_results[1.0].performance_cycles_per_second,
            mechanism_results[0.9].performance_cycles_per_second,
            mechanism_results[0.5].performance_cycles_per_second,
        ]
        assert perfs == sorted(perfs, reverse=True)

    def test_channel_access_reduction_is_the_source_of_the_gain(self, mechanism_results):
        conventional = mechanism_results["conventional"]
        optimistic = mechanism_results[1.0]
        assert optimistic.channel["accesses"] < conventional.channel["accesses"] / 10
        assert optimistic.tchannel < conventional.tchannel / 5
