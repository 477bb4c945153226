"""Reads lived on a kernel the way the simulator's callers live them.

A model read inside :func:`~repro.sim.kernel.collecting_io` decides at
once and defers its time cost; :func:`~repro.sim.kernel.replay_plan` then
experiences the waits inside the calling kernel process.  Tests ``yield
from`` these to queue at a device or race a hedge.
"""

from repro.sim.kernel import collecting_io, replay_plan
from repro.storage.remote import ReadResult


def device_read(device, size: int):
    """Read ``size`` bytes from a kernel-attached device; returns the latency."""
    plan: list = []
    with collecting_io(plan):
        device.read(size)
    return (yield from replay_plan(plan))


def source_read(source, file_id: str, offset: int, length: int):
    """One ``DataSource.read``; returns its result with the measured latency."""
    plan: list = []
    with collecting_io(plan):
        result = source.read(file_id, offset, length)
    latency = yield from replay_plan(plan)
    return ReadResult(data=result.data, latency=latency)
