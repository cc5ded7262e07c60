"""Channel memory stays bounded on long engine runs.

The seed retained every message written to the channel (the engines write
for cost accounting but never read), so memory grew linearly with target
cycles.  In fire-and-forget accounting mode (``keep_log=False``, the
engines' configuration) nothing is retained: queue lengths and the stats
log stay empty no matter how long the run is, so a 10M-cycle run holds
constant memory.
"""

from __future__ import annotations

from repro.channel.driver import SimulatorAcceleratorChannel
from repro.channel.phy import ChannelDirection
from repro.core import CoEmulationConfig, OperatingMode, OptimisticCoEmulation
from repro.workloads import als_streaming_soc


def test_fire_and_forget_mode_retains_nothing():
    channel = SimulatorAcceleratorChannel(keep_log=False)
    for index in range(1000):
        channel.write(ChannelDirection.SIM_TO_ACC, [1, 2, 3], purpose="x", target_cycle=index)
        channel.charge(ChannelDirection.ACC_TO_SIM, 2, purpose="y", target_cycle=index)
    assert channel.pending(ChannelDirection.SIM_TO_ACC) == 0
    assert channel.pending(ChannelDirection.ACC_TO_SIM) == 0
    assert channel.stats.log == []
    # accounting is unaffected by the missing retention
    assert channel.stats.accesses == 2000
    assert channel.stats.words == 5000


def test_logging_mode_still_queues_messages():
    channel = SimulatorAcceleratorChannel(keep_log=True)
    channel.write(ChannelDirection.SIM_TO_ACC, [7, 8], purpose="drive")
    assert channel.pending(ChannelDirection.SIM_TO_ACC) == 1
    message = channel.read(ChannelDirection.SIM_TO_ACC)
    assert message.words == [7, 8]
    # charge() never queues, even in logging mode
    channel.charge(ChannelDirection.SIM_TO_ACC, 4, purpose="drive")
    assert channel.pending(ChannelDirection.SIM_TO_ACC) == 0
    assert len(channel.stats.log) == 2


def test_engine_run_holds_channel_queues_empty():
    """Proxy for the 1M-cycle acceptance run: after a long optimistic run in
    the engines' default configuration the channel retains no messages, so
    queue length is trivially bounded by the LOB depth."""
    partition = als_streaming_soc(n_bursts=600).build_partition()
    config = CoEmulationConfig(mode=OperatingMode.ALS, total_cycles=20_000)
    engine = OptimisticCoEmulation(partition, config)
    result = engine.run()
    assert result.committed_cycles == 20_000
    for direction in ChannelDirection:
        assert engine.channel.pending(direction) <= config.lob_depth
        assert engine.channel.pending(direction) == 0
    assert engine.channel.stats.log == []
