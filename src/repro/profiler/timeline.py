"""Time-varying NUMA measurements (paper Section 10, future work #3).

"Third, we plan to collect trace-based measurements to study time-varying
NUMA patterns in addition to profiles."

:class:`TimelineRecorder` is an auxiliary monitor that buckets the NUMA
metrics by (region, iteration) — a trace at timestep granularity. Stacked
with :class:`~repro.profiler.profiler.NumaProfiler` via
:class:`~repro.runtime.engine.Monitor` composition
(:class:`CompositeMonitor`), it shows how M_l / M_r and latency evolve
over a program's phases: e.g. a first timestep dominated by compulsory
misses followed by a steady state, or a solver whose remote fraction
drifts as the grid hierarchy changes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.profiler.metrics import MetricNames
from repro.runtime.engine import Monitor


@dataclass
class TimelineBucket:
    """Aggregated metrics for one (region, iteration) interval."""

    region: str
    iteration: int
    metrics: defaultdict = field(default_factory=lambda: defaultdict(float))

    def remote_fraction(self) -> float:
        """M_r / (M_l + M_r) within this interval."""
        m_l = self.metrics.get(MetricNames.NUMA_MATCH, 0.0)
        m_r = self.metrics.get(MetricNames.NUMA_MISMATCH, 0.0)
        total = m_l + m_r
        return m_r / total if total else 0.0


class TimelineRecorder(Monitor):
    """Buckets exact per-access NUMA events by region iteration.

    Uses the full access stream (not samples), so interval metrics are
    exact; cheap because the counting is vectorized per chunk.
    """

    def __init__(self) -> None:
        self._current: dict[int, tuple[str, int]] = {}
        self.buckets: dict[tuple[str, int], TimelineBucket] = {}

    def on_region_enter(self, tid: int, region, iteration: int) -> None:
        self._current[tid] = (region.name, iteration)

    def on_region_exit(self, tid: int, region, iteration: int) -> None:
        self._current.pop(tid, None)

    def _bucket(self, tid: int) -> TimelineBucket | None:
        key = self._current.get(tid)
        if key is None:
            return None
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = TimelineBucket(region=key[0], iteration=key[1])
            self.buckets[key] = bucket
        return bucket

    def on_step(self, views) -> list[float]:
        """Count every chunk's instructions and, for memory chunks, its
        exact access events from the engine's precomputed masks."""
        for v, n_ins, n_acc in zip(
            views, views.n_ins.tolist(), views.n_acc.tolist()
        ):
            bucket = self._bucket(v.tid)
            if bucket is None:
                continue
            m = bucket.metrics
            if n_acc:
                remote = v.remote_mask
                latencies = v.latencies
                m[MetricNames.NUMA_MATCH] += float(np.count_nonzero(~remote))
                m[MetricNames.NUMA_MISMATCH] += float(np.count_nonzero(remote))
                m[MetricNames.LAT_TOTAL] += float(latencies.sum())
                m[MetricNames.LAT_REMOTE] += float(latencies[remote].sum())
                m["DRAM"] += float(np.count_nonzero(v.dram_mask))
            m[MetricNames.INSTR] += float(n_ins)
        return [0.0] * len(views)

    # ------------------------------------------------------------------ #

    def series(self, region: str) -> list[TimelineBucket]:
        """Buckets of one region, in iteration order."""
        return [
            b
            for (name, _), b in sorted(self.buckets.items())
            if name == region
        ]

    def remote_fraction_series(self, region: str) -> np.ndarray:
        """M_r fraction per iteration of ``region``."""
        return np.array([b.remote_fraction() for b in self.series(region)])

    def render(self, region: str, width: int = 40) -> str:
        """ASCII sparkline of the remote fraction over iterations."""
        series = self.remote_fraction_series(region)
        lines = [f"timeline — remote fraction per iteration of {region}"]
        for i, value in enumerate(series):
            bar = "#" * int(round(value * width))
            lines.append(f"  it {i:>3} |{bar:<{width}}| {value:.0%}")
        return "\n".join(lines)


class CompositeMonitor(Monitor):
    """Fan one engine's monitoring hooks out to several monitors.

    Hook costs sum — each monitor's measurement overhead is charged.
    """

    def __init__(self, *monitors: Monitor) -> None:
        self.monitors = list(monitors)

    def on_run_start(self, engine) -> None:
        for m in self.monitors:
            m.on_run_start(engine)

    def on_alloc(self, var) -> None:
        for m in self.monitors:
            m.on_alloc(var)

    def on_free(self, var) -> None:
        for m in self.monitors:
            m.on_free(var)

    def on_region_enter(self, tid, region, iteration) -> None:
        for m in self.monitors:
            m.on_region_enter(tid, region, iteration)

    def on_region_exit(self, tid, region, iteration) -> None:
        for m in self.monitors:
            m.on_region_exit(tid, region, iteration)

    def on_first_touch(self, tid, cpu, var, pages, path) -> float:
        return sum(
            m.on_first_touch(tid, cpu, var, pages, path) for m in self.monitors
        )

    def on_step(self, views) -> list[float]:
        totals = [0.0] * len(views)
        for m in self.monitors:
            for i, cost in enumerate(m.on_step(views)):
                totals[i] += cost
        return totals

    def on_run_end(self, result) -> None:
        for m in self.monitors:
            m.on_run_end(result)
