"""Tests of :class:`~repro.core.coemulation.ChargePlan`, the closed-form
charge of a fixed access sequence shared by the quiescence skip and trace
replay."""

from __future__ import annotations

import pytest

from repro.core import CoEmulationConfig, ConventionalCoEmulation, OperatingMode
from repro.core.coemulation import ChargePlan
from repro.sim.component import Domain


def build_engine(spec, **kwargs):
    sim_hbm, acc_hbm, _ = spec.build_split()
    config = CoEmulationConfig(mode=OperatingMode.CONSERVATIVE, total_cycles=100, **kwargs)
    return ConventionalCoEmulation({Domain.SIMULATOR: sim_hbm, Domain.ACCELERATOR: acc_hbm}, config)


def legs_of(engine):
    sim = engine.host_for(Domain.SIMULATOR)
    acc = engine.host_for(Domain.ACCELERATOR)
    return [(acc, sim, 3, "conservative_drive"), (sim, acc, 5, "conservative_reply")]


def channels_of(engine):
    """The engine's distinct channels (each is keyed by both directions)."""
    return list({id(c): c for c, _ in engine._channels.values()}.values())


def channel_state(engine):
    """Every float and counter a channel access books, as exact reprs."""
    state = [repr(engine.ledger.buckets["channel"])]
    for channel in channels_of(engine):
        stats = channel.stats
        times = channel.layer_times
        state.append(
            (
                stats.accesses,
                stats.words,
                repr(stats.total_time),
                dict(stats.per_direction_accesses),
                dict(stats.per_direction_words),
                dict(stats.per_purpose_accesses),
                repr(times.api),
                repr(times.driver),
                repr(times.physical),
            )
        )
    return state


@pytest.mark.parametrize("count", [1, 37])
def test_closed_form_plan_books_what_per_access_charges_book(als_spec, count):
    planned = build_engine(als_spec)
    scalar = build_engine(als_spec)
    for engine in (planned, scalar):
        engine.ledger.buckets["channel"] = 0.1  # a non-trivial fold start
    plan = ChargePlan(planned, legs_of(planned))
    assert plan.closed
    plan.apply(planned, 10, count)
    for offset in range(count):
        for src, dst, words, purpose in legs_of(scalar):
            scalar._charge_channel(src, dst, words, purpose, 10 + offset)
    assert channel_state(planned) == channel_state(scalar)
    assert sum(c.stats.accesses for c in channels_of(planned)) == 2 * count


def test_plan_on_a_logging_channel_charges_every_access(als_spec):
    engine = build_engine(als_spec, keep_channel_log=True)
    plan = ChargePlan(engine, legs_of(engine))
    assert not plan.closed
    plan.apply(engine, 10, 4)
    channel, _ = engine._channels[(Domain.SIMULATOR, Domain.ACCELERATOR)]
    assert [(r.purpose, r.target_cycle) for r in channel.stats.log] == [
        (purpose, cycle)
        for cycle in range(10, 14)
        for purpose in ("conservative_drive", "conservative_reply")
    ]


def test_zero_count_plan_books_nothing(als_spec):
    engine = build_engine(als_spec)
    before = channel_state(engine)
    ChargePlan(engine, legs_of(engine)).apply(engine, 0, 0)
    ChargePlan(engine, []).apply(engine, 0, 5)
    assert channel_state(engine) == before
