"""IBM POWER marked-event sampling (MRK).

MRK marks instructions that cause a chosen event — the paper uses
``PM_MRK_FROM_L3MISS``, i.e. loads satisfied from beyond the L3 — and
reports the marked instruction's effective address. It cannot measure
latency, and its hardware limits the achievable rate: "Marked event
sampling on POWER7 with the fastest sampling rate under user control
generates less than 100 samples/second per thread" (paper footnote 2),
even at the configured period of 1. The rate cap is modeled explicitly.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.sampling.base import (
    EventSamplingMechanism,
    MechanismCapabilities,
    _starts_from_counts,
)


class MRK(EventSamplingMechanism):
    """Marked-event sampling of L3 misses with a hardware rate cap."""

    name = "MRK"
    capabilities = MechanismCapabilities(
        measures_latency=False,
        samples_all_instructions=False,
        event_based=True,
        supports_numa_events=True,
        counts_absolute_events=True,
        precise_ip=True,
        max_sample_rate_per_sec=100.0,
    )

    #: Table 1 default: period 1 (every marked L3 miss is a candidate).
    DEFAULT_PERIOD = 1

    # Marked events fire on *demand* L3 misses; prefetched lines do not
    # retire a marked miss.
    event_primitive = "demand_miss_events"

    def __init__(
        self,
        period: int = DEFAULT_PERIOD,
        *,
        max_rate: float | None = None,
        **cost_overrides,
    ) -> None:
        """``max_rate`` overrides the per-second sample cap — analysis runs
        on short simulated executions scale it up to gather a usable
        profile, just as the paper's minutes-long runs accumulate samples
        at under 100/s."""
        cost = {"per_sample_cycles": 3_000.0, "instr_tax_cycles": 0.035}
        cost.update(cost_overrides)
        super().__init__(period, **cost)
        self.max_rate = (
            max_rate
            if max_rate is not None
            else self.capabilities.max_sample_rate_per_sec
        )
        # Fractional per-thread sample budget so the rate cap is unbiased
        # across chunk sizes (a tiny chunk must not get a free sample).
        self._budget: dict[int, float] = {}

    def _extra_state_digest(self):
        # The rate-cap budget evolves per chunk and gates selections,
        # so it is part of the phase detector's fixed-point condition.
        return tuple(sorted(self._budget.items()))

    def _event_args(self) -> tuple:
        # Without a machine there is no latency model: every DRAM
        # access counts.
        if self.machine is None:
            return (-np.inf,)
        return (self.machine.latency_model.demand_min_latency,)

    def _capped(self) -> bool:
        return self.max_rate is not None and self.machine is not None

    def _cap_step(
        self, tids: np.ndarray, chosen: np.ndarray, counts: np.ndarray,
        n_ins: np.ndarray, lat_totals: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hardware rate cap: at most ``max_rate`` samples per simulated
        second of execution, tracked as a fractional per-thread budget
        so the cap stays unbiased across chunk sizes. Every chunk that
        chose events is capped at once, with the float operations of
        capping it alone, in the same order."""
        rows = np.flatnonzero(counts)
        row_tids = tids[rows].tolist()
        cap_rate = self.max_rate
        chunk_cycles = n_ins[rows] * self.machine.base_cpi + lat_totals[rows]
        chunk_seconds = chunk_cycles / (self.machine.ghz * 1e9)
        carried = np.array([self._budget.get(t, 0.0) for t in row_tids])
        budget = carried + chunk_seconds * cap_rate
        # The hardware cannot bank unused allowance indefinitely:
        # clamp the carried budget to a couple of chunks' worth so a
        # long quiet phase does not license a later sampling burst.
        budget = np.minimum(
            budget, 3.0 * np.maximum(chunk_seconds * cap_rate, 1.0)
        )
        max_samples = budget.astype(np.int64)
        sizes = counts[rows]
        kept = np.minimum(sizes, max_samples)
        dropped = int((sizes - kept).sum())
        if dropped:
            obs.TRACER.count("sampling.samples.dropped", dropped)
            picks = _linspace_picks(sizes, kept)
            picks += _starts_from_counts(counts)[rows].repeat(kept)
            chosen = chosen[picks]
            counts = counts.copy()
            counts[rows] = kept
        self._budget.update(zip(row_tids, (budget - kept).tolist()))
        return chosen, counts


def _linspace_picks(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``np.linspace(0, n[j] - 1, m[j]).astype(np.int64)`` for every
    ``j`` (``m[j] <= n[j]``), concatenated, with linspace's float
    products: a chunk that keeps all its events gets ``0..n[j]-1``.
    Holds at most two arrays of ``sum(m)`` values at once."""
    ends = np.cumsum(m)
    # The ramp 0..m[j]-1 of each chunk, as the exact float64 values that
    # multiplying the integer ramp by the float step would convert it to.
    ramp = np.arange(ends[-1], dtype=np.float64)
    ramp -= np.repeat(ends - m, m)
    # linspace's step; a single point is index 0.
    step = np.divide(n - 1, m - 1, out=np.zeros(m.size), where=m > 1)
    ramp *= np.repeat(step, m)
    picks = ramp.astype(np.int64)
    # linspace pins its last point to the stop value.
    multi = m > 1
    picks[ends[multi] - 1] = n[multi] - 1
    return picks
