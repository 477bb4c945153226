"""Continuous telemetry: a kernel process sampling metrics in virtual time.

The paper's cache earns production trust because operators watch hit
ratio, queue depth, and rejection counts *continuously* (§5-6), not as a
single end-of-run snapshot.  :class:`TelemetrySampler` is that dashboard
for simulated runs: a kernel process that wakes every ``interval``
virtual seconds and snapshots a :class:`~repro.core.metrics.MetricsRegistry`
-- every gauge's current value, a configurable set of counters, and the
derived hit ratio -- into bounded :class:`~repro.analysis.timeseries.RingSeries`
buffers.  Memory stays bounded on arbitrarily long soaks (oldest points
drop, with a ``dropped`` count so truncation is visible), every timestamp
is virtual, and a fixed-seed run produces byte-identical exports.

Export surfaces: :meth:`TelemetrySampler.to_jsonl` (one JSON object per
retained point, stream-friendly) and :func:`format_telemetry` (the
``tools/report.py`` section).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Generator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel -> obs)
    from repro.analysis.timeseries import RingSeries
    from repro.core.metrics import MetricsRegistry
    from repro.sim.kernel import Kernel, Process

#: counters sampled by default: the paper's operator headline set --
#: hit/miss trajectory, admission verdicts, and reclaim pressure
DEFAULT_COUNTERS = (
    "get_hits",
    "get_misses",
    "puts",
    "put_rejected_admission",
    "put_rejected_quota",
    "put_rejected_space",
    "evictions",
)


class TelemetrySampler:
    """Periodic virtual-time snapshots of a metrics registry.

    >>> from repro.core.metrics import MetricsRegistry
    >>> from repro.sim.kernel import Kernel
    >>> kernel = Kernel()
    >>> registry = MetricsRegistry()
    >>> sampler = TelemetrySampler(kernel, registry, interval=1.0)
    >>> _ = sampler.start()
    >>> registry.gauge("device_queue_depth").set(3.0)
    >>> kernel.run_until(2.5)
    >>> sampler.stop()
    >>> sampler.series["gauge:device_queue_depth"].values()
    [3.0, 3.0]
    """

    def __init__(
        self,
        kernel: "Kernel",
        registry: "MetricsRegistry",
        *,
        interval: float = 1.0,
        capacity: int = 1024,
        counters: Sequence[str] = DEFAULT_COUNTERS,
        name: str = "telemetry-sampler",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.kernel = kernel
        self.registry = registry
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.counter_names = tuple(counters)
        self.name = name
        self.series: dict[str, RingSeries] = {}
        self.ticks = 0
        self.process: "Process | None" = None
        self._stop = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Process":
        """Spawn the sampling process (call before running the kernel)."""
        if self.process is not None and not self.process.done:
            raise RuntimeError("sampler already running")
        self._stop = False
        self.process = self.kernel.spawn(self._run(), name=self.name)
        return self.process

    def stop(self) -> None:
        """Stop at the next tick boundary (the pending timer drains quietly)."""
        self._stop = True

    def _run(self) -> Generator[Any, Any, None]:
        from repro.sim.kernel import Timeout  # late: kernel imports obs first

        # Timeout is immutable, so one instance serves every tick -- a
        # million-tick soak allocates nothing per sample
        pause = Timeout(self.interval)
        while not self._stop:
            yield pause
            if self._stop:
                return
            self.tick()

    # -- sampling -----------------------------------------------------------

    def _buf(self, key: str) -> "RingSeries":
        if key not in self.series:
            # deferred: sanctioned obs -> analysis runtime hook (see the
            # `obs-below-everything` contract)
            from repro.analysis.timeseries import RingSeries

            self.series[key] = RingSeries(self.capacity)
        return self.series[key]

    def tick(self) -> None:
        """Take one snapshot now (also callable manually, e.g. at t=0)."""
        now = float(self.kernel.clock.now())
        self.ticks += 1
        for name, value in sorted(self.registry.gauge_values().items()):
            self._buf(f"gauge:{name}").append(now, value)
        for name in self.counter_names:
            self._buf(f"counter:{name}").append(
                now, float(self.registry.counter(name).value)
            )
        self._buf("derived:hit_ratio").append(now, self.registry.hit_ratio)

    # -- exports ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per retained point, metrics in sorted order.

        Deterministic for a fixed-seed run: virtual timestamps only, sorted
        keys, and a stable metric ordering.
        """
        lines = []
        for metric in sorted(self.series):
            buf = self.series[metric]
            for t, v in buf.items():
                lines.append(json.dumps(
                    {"metric": metric, "t": t, "v": v}, sort_keys=True
                ))
        return "\n".join(lines)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-metric ``{samples, dropped, min, mean, max, last}``."""
        out: dict[str, dict[str, float]] = {}
        for metric in sorted(self.series):
            buf = self.series[metric]
            values = buf.values()
            if not values:
                continue
            out[metric] = {
                "samples": float(len(values)),
                "dropped": float(buf.dropped),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "last": values[-1],
            }
        return out


def format_telemetry(sampler: TelemetrySampler) -> str:
    """The ``telemetry`` section body for ``tools/report.py``."""
    lines = [
        f"ticks={sampler.ticks} interval={sampler.interval:g}s "
        f"capacity={sampler.capacity}",
        "",
        f"{'metric':<40} {'n':>6} {'drop':>6} {'min':>12} "
        f"{'mean':>12} {'max':>12} {'last':>12}",
    ]
    for metric, row in sampler.summary().items():
        lines.append(
            f"{metric:<40} {int(row['samples']):>6} {int(row['dropped']):>6} "
            f"{row['min']:>12.4f} {row['mean']:>12.4f} "
            f"{row['max']:>12.4f} {row['last']:>12.4f}"
        )
    return "\n".join(lines)
